"""JSON and CSV file formats for geometries, circuits, plans, and results.

All JSON is written with sorted keys and newline-terminated, and floats
rely on Python's shortest round-trip repr, so identical inputs always
produce byte-identical files and coefficients survive a round trip
bit-exactly.  Matrices are stored row-major as [re, im] pairs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .circuit import (
    ClassicallyControlledGate,
    Gate,
    GateKind,
    Measurement,
    QuantumCircuit,
)
from .cmt import TransferResult
from .compiler import Exposure, GratingStack, Hologram, MaterialSpec
from .errors import HologateError
from .metrics import FidelityReport
from .modes import ConeGeometry, ModeSet, PlaneWaveMode, Role, make_cone_basis

PLAN_FORMAT = "hologate-plan-v1"


class FileFormatError(HologateError, ValueError):
    """Input file does not match the expected schema."""


def dump_json(payload: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def load_json(path: str | Path) -> dict:
    def reject(token: str) -> float:
        raise FileFormatError(f"{path}: non-standard JSON number {token}")

    try:
        payload = json.loads(Path(path).read_text(), parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FileFormatError(f"{path}: expected a JSON object at top level")
    return payload


def _require(payload: dict, key: str, context: str) -> Any:
    if key not in payload:
        raise FileFormatError(f"{context}: missing required field {key!r}")
    return payload[key]


def _integer(payload: dict, key: str, context: str) -> int:
    value = _require(payload, key, context)
    if isinstance(value, bool) or not isinstance(value, int):
        raise FileFormatError(f"{context}: field {key!r} must be an integer, got {value!r}")
    return value


# -- geometry and material ---------------------------------------------------

def geometry_to_dict(geometry: ConeGeometry) -> dict:
    return {
        "n": geometry.dimension,
        "theta_s_rad": geometry.signal_half_angle,
        "theta_r_rad": geometry.reference_half_angle,
        "lambda_m": geometry.wavelength,
        "aperture_m": geometry.aperture_breadth,
        "signal_offset_rad": geometry.signal_azimuth_offset,
        "reference_offset_rad": geometry.reference_azimuth_offset,
    }


def geometry_from_dict(payload: dict) -> ConeGeometry:
    return ConeGeometry(
        dimension=_integer(payload, "n", "geometry"),
        signal_half_angle=float(_require(payload, "theta_s_rad", "geometry")),
        reference_half_angle=float(_require(payload, "theta_r_rad", "geometry")),
        wavelength=float(_require(payload, "lambda_m", "geometry")),
        aperture_breadth=float(_require(payload, "aperture_m", "geometry")),
        signal_azimuth_offset=float(payload.get("signal_offset_rad", 0.0)),
        reference_azimuth_offset=float(payload.get("reference_offset_rad", np.pi)),
    )


def material_to_dict(material: MaterialSpec) -> dict:
    return {
        "name": material.name,
        "max_total_thickness_m": material.max_total_thickness,
        "max_index_modulation": material.max_index_modulation,
        "meters_per_recording": material.meters_per_recording,
    }


def material_from_dict(payload: dict) -> MaterialSpec:
    return MaterialSpec(
        max_total_thickness=float(_require(payload, "max_total_thickness_m", "material")),
        max_index_modulation=float(_require(payload, "max_index_modulation", "material")),
        meters_per_recording=float(payload.get("meters_per_recording", 1e-3)),
        name=str(payload.get("name", "")),
    )


# -- matrices ----------------------------------------------------------------

def matrix_to_dict(matrix: np.ndarray) -> dict:
    matrix = np.asarray(matrix, dtype=complex)
    return {
        "dim": matrix.shape[0],
        "entries": [[float(v.real), float(v.imag)] for v in matrix.reshape(-1)],
    }


def matrix_from_dict(payload: dict) -> np.ndarray:
    dim = _integer(payload, "dim", "matrix")
    entries = _require(payload, "entries", "matrix")
    if len(entries) != dim * dim:
        raise FileFormatError(f"matrix: expected {dim * dim} entries, got {len(entries)}")
    values = [complex(float(re), float(im)) for re, im in entries]
    return np.array(values, dtype=complex).reshape(dim, dim)


# -- circuits ----------------------------------------------------------------

def circuit_to_dict(circuit: QuantumCircuit) -> dict:
    elements = []
    for element in circuit.elements:
        if isinstance(element, Gate):
            elements.append(_gate_to_dict(element))
        elif isinstance(element, Measurement):
            elements.append({"kind": "measure", "wire": element.wire})
        else:
            elements.append(
                {
                    "kind": "cgate",
                    "source_wire": element.source_wire,
                    "gate": _gate_to_dict(element.gate),
                }
            )
    return {"width": circuit.width, "elements": elements}


def _gate_to_dict(gate: Gate) -> dict:
    entry: dict[str, Any] = {"kind": "gate", "name": gate.kind.value, "wires": list(gate.wires)}
    if gate.payload is not None:
        entry["matrix"] = matrix_to_dict(gate.payload)
    return entry


def _gate_from_dict(payload: dict) -> Gate:
    name = str(_require(payload, "name", "gate"))
    try:
        kind = GateKind(name)
    except ValueError:
        raise FileFormatError(f"gate: unknown gate name {name!r}") from None
    wires = tuple(int(w) for w in _require(payload, "wires", "gate"))
    matrix = payload.get("matrix")
    return Gate(kind, wires, matrix_from_dict(matrix) if matrix is not None else None)


def circuit_from_dict(payload: dict) -> QuantumCircuit:
    width = _integer(payload, "width", "circuit")
    elements: list = []
    for entry in _require(payload, "elements", "circuit"):
        kind = _require(entry, "kind", "circuit element")
        if kind == "gate":
            elements.append(_gate_from_dict(entry))
        elif kind == "measure":
            elements.append(Measurement(_integer(entry, "wire", "measure")))
        elif kind == "cgate":
            elements.append(
                ClassicallyControlledGate(
                    gate=_gate_from_dict(_require(entry, "gate", "cgate")),
                    source_wire=_integer(entry, "source_wire", "cgate"),
                )
            )
        else:
            raise FileFormatError(f"circuit element: unknown kind {kind!r}")
    return QuantumCircuit(width, tuple(elements))


# -- plans -------------------------------------------------------------------

def _mode_key(mode: PlaneWaveMode) -> dict:
    return {"role": mode.role.value, "index": mode.index}


def _mode_from_key(payload: dict, modes: ModeSet) -> PlaneWaveMode:
    role = Role(str(_require(payload, "role", "mode")))
    return modes.find(role, _integer(payload, "index", "mode"))


def plan_to_dict(stack: GratingStack) -> dict:
    holograms = []
    for hologram in stack.holograms:
        exposures = []
        for exposure in hologram.exposures:
            coefficients = [
                {"mode": _mode_key(mode), "re": float(c.real), "im": float(c.imag)}
                for mode, c in sorted(
                    exposure.coefficients.items(), key=lambda kv: (kv[0].role.value, kv[0].index)
                )
            ]
            exposures.append(
                {
                    "partner": _mode_key(exposure.partner),
                    "coefficients": coefficients,
                    "delta_n": exposure.index_modulation,
                    "phase_rad": exposure.phase,
                }
            )
        holograms.append(
            {
                "label": hologram.label,
                "thickness_m": hologram.thickness,
                "exposures": exposures,
            }
        )
    return {
        "format": PLAN_FORMAT,
        "geometry": geometry_to_dict(stack.mode_set.geometry),
        "holograms": holograms,
    }


def plan_from_dict(payload: dict) -> GratingStack:
    if payload.get("format") != PLAN_FORMAT:
        raise FileFormatError(f"plan: expected format {PLAN_FORMAT!r}")
    modes = make_cone_basis(geometry_from_dict(_require(payload, "geometry", "plan")))
    holograms = []
    for h_payload in _require(payload, "holograms", "plan"):
        exposures = []
        for e_payload in _require(h_payload, "exposures", "hologram"):
            coefficients = {}
            for c_payload in _require(e_payload, "coefficients", "exposure"):
                mode = _mode_from_key(_require(c_payload, "mode", "coefficient"), modes)
                coefficients[mode] = complex(
                    float(_require(c_payload, "re", "coefficient")),
                    float(_require(c_payload, "im", "coefficient")),
                )
            exposures.append(
                Exposure(
                    partner=_mode_from_key(_require(e_payload, "partner", "exposure"), modes),
                    coefficients=coefficients,
                    index_modulation=float(_require(e_payload, "delta_n", "exposure")),
                    phase=float(e_payload.get("phase_rad", 0.0)),
                )
            )
        thickness = h_payload.get("thickness_m")
        holograms.append(
            Hologram(
                exposures=tuple(exposures),
                thickness=float(thickness) if thickness is not None else None,
                label=str(h_payload.get("label", "")),
            )
        )
    return GratingStack(holograms=tuple(holograms), mode_set=modes)


# -- results, reports, sweeps ------------------------------------------------

def result_to_dict(result: TransferResult) -> dict:
    return {
        "thickness_m": result.thickness_used,
        "modes": [_mode_key(m) for m in result.modes],
        "per_mode_efficiency": list(result.per_mode_efficiency),
        "transfer": matrix_to_dict(result.transfer),
        "inter_hologram_phase": "per-cone-constant-normalized-to-zero",
    }


def fidelity_report_to_dict(report: FidelityReport) -> dict:
    return {
        "fidelity": report.fidelity,
        "global_phase_rad": report.global_phase,
        "max_err": report.max_elementwise_error,
        "pass": report.passed,
        "threshold": report.threshold,
    }


def write_sweep_csv(rows: list[tuple[float, float]], path: str | Path) -> None:
    lines = ["tilt_rad,efficiency"]
    lines += [f"{tilt:.12e},{eff:.12e}" for tilt, eff in rows]
    Path(path).write_text("\n".join(lines) + "\n")
