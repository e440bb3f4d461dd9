"""JSON and CSV file formats for geometries, circuits, plans, and results.

Every JSON file holds, byte for byte, the stdlib's text for the payload
with indent 2, sorted keys and no NaN or infinity, plus a newline.
Floats use Python's shortest round-trip repr, so identical inputs always
produce byte-identical files and coefficients survive a round trip
bit-exactly.  `dump_json` writes that text itself, because the stdlib
serves indented output only from its pure-Python generator encoder,
which took most of the time of compiling a large plan.  One path writes four
list item shapes from `%`-templates, re-indented once per run of a shape:
plan coefficients, {"index", "role"} mode keys, finite [re, im] float pairs
and finite floats; any other item takes the generic path.  `plan_from_dict`
builds a coefficient's JSON path only when one of its checks fails.  Every
file is read as UTF-8, whatever the locale.  Matrices are stored row-major
as [re, im] pairs.
"""

from __future__ import annotations

import contextlib
import json
import math
import reprlib
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
from .compiler import GratingStack, Hologram, MaterialSpec, _FringeTable
from .errors import HologateError, UnknownMode
from .metrics import FidelityReport
from .modes import ConeGeometry, ModeSet, PlaneWaveMode, Role, make_cone_basis

PLAN_FORMAT = "hologate-plan-v1"


class FileFormatError(HologateError, ValueError):
    """Input file does not match the expected schema."""


def dump_json(payload: dict, path: str | Path) -> None:
    """Write `payload` as the stdlib's indent-2, sorted-key JSON text plus a newline.

    The bytes are those of `json.dumps` with ``indent=2``,
    ``sort_keys=True`` and ``allow_nan=False``, but `_encode` builds them:
    the stdlib has no C encoder for indented text.  The text is complete
    before the file is opened, so a NaN or infinity (ValueError, with the
    stdlib's message) or a value JSON cannot hold (TypeError) leaves no file.
    """
    parts: list[str] = []
    _encode(payload, "\n", parts)
    parts.append("\n")
    Path(path).write_text("".join(parts))


_escape = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_int_repr = int.__repr__
_COEFFICIENT_KEYS, _MODE_KEYS = {"im", "mode", "re"}, {"index", "role"}
#: The stdlib text at indent 0 of a plan coefficient, a mode key and an [re, im]
#: pair; %r writes an exact float or int as json does.
_COEFFICIENT = '{\n  "im": %r,\n  "mode": {\n    "index": %r,\n    "role": %s\n  },\n  "re": %r\n}'
_MODE = '{\n  "index": %r,\n  "role": %s\n}'
_PAIR = "[\n  %r,\n  %r\n]"


def _encode(value: Any, newline: str, parts: list[str]) -> None:
    """Append the JSON text of `value` to `parts`, testing types in the stdlib's order.

    `newline` is a newline plus the indent of the line `value` starts on.
    A dict key that is not a string raises TypeError from `_escape`.  A list
    item that is, tested in this order, a plan coefficient or a mode key of
    exactly `_COEFFICIENT`'s or `_MODE`'s keys and types, a finite [re, im]
    float pair or a finite float is written from its template, re-indented
    once per run of one shape; any other item, NaN and infinity too, recurses.
    """
    if isinstance(value, str):
        parts.append(_escape(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(_int_repr(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        parts.append(_float_repr(value))
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        separator, shape = "[" + inner, None
        for item in value:
            kind, template = type(item), None
            if (kind is dict and item.keys() == _COEFFICIENT_KEYS
                    and type(mode := item["mode"]) is dict and mode.keys() == _MODE_KEYS
                    and type(re := item["re"]) is float and type(im := item["im"]) is float
                    and type(index := mode["index"]) is int and type(role := mode["role"]) is str
                    and math.isfinite(re) and math.isfinite(im)):
                template, args = _COEFFICIENT, (im, index, _escape(role), re)
            elif (kind is dict and item.keys() == _MODE_KEYS
                    and type(index := item["index"]) is int and type(role := item["role"]) is str):
                template, args = _MODE, (index, _escape(role))
            elif (kind is list and len(item) == 2 and type(re := item[0]) is float
                    and type(im := item[1]) is float and math.isfinite(re) and math.isfinite(im)):
                template, args = _PAIR, (re, im)
            elif kind is float and math.isfinite(item):
                template, args = "%r", (item,)
            if template is None:
                parts.append(separator)
                _encode(item, inner, parts)
            else:
                if template is not shape:  # indented once per run of one shape
                    shape, indented = template, template.replace("\n", inner)
                parts.append(separator + indented % args)
            separator = "," + inner
        parts.append(newline + "]" if value else "[]")
    elif isinstance(value, dict):
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            parts.append(separator + _escape(key) + ": ")
            _encode(value[key], inner, parts)
            separator = "," + inner
        parts.append(newline + "}" if value else "{}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def load_json(path: str | Path) -> dict:
    """The JSON object in the file at `path`, read as UTF-8 whatever the locale
    (RFC 8259 section 8.1)."""
    def reject(token: str) -> float:
        raise FileFormatError(f"{path}: non-standard JSON number {token}")

    try:
        payload = json.loads(Path(path).read_bytes(), parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    except FileFormatError:
        raise
    except (RecursionError, ValueError) as exc:  # nested too deep, or an integer too long
        raise FileFormatError(f"{path}: JSON beyond the reader's limits ({exc})") from exc
    if not isinstance(payload, dict):
        raise FileFormatError(f"{path}: expected a JSON object at top level")
    return payload


_REQUIRED = object()
_KIND_NAMES = {
    dict: "an object", list: "a list", int: "an integer", float: "a number", str: "a string",
}


def _as(value: Any, kind: type, where: str) -> Any:
    """`value` checked to be of JSON type `kind`; `where` names it in the error.

    int means a JSON integer, not a bool.  float means a JSON number or a
    string that float() reads, returned as a float: "nan" and "inf" pass
    here and fail the range check of the field they land in.  object
    accepts any value.
    """
    if type(value) is kind or kind is object:
        return value
    if kind is float and type(value) in (int, str):
        with contextlib.suppress(ValueError, OverflowError):
            return float(value)
    raise FileFormatError(f"{where} must be {_KIND_NAMES[kind]}, got {reprlib.repr(value)}")


def _field(payload: Any, key: str, context: str, kind: type, default: Any = _REQUIRED) -> Any:
    """payload[key] as JSON type `kind` (see `_as`), or `default` when absent.

    `payload` must be a JSON object; `context` is its path in the file.
    """
    if type(payload) is not dict:
        _as(payload, dict, context)
    if key not in payload:
        if default is _REQUIRED:
            raise FileFormatError(f"{context}: missing required field {key!r}")
        return default
    value = payload[key]
    return value if type(value) is kind else _as(value, kind, f"{context}: field {key!r}")


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
        dimension=_field(payload, "n", "geometry", int),
        signal_half_angle=_field(payload, "theta_s_rad", "geometry", float),
        reference_half_angle=_field(payload, "theta_r_rad", "geometry", float),
        wavelength=_field(payload, "lambda_m", "geometry", float),
        aperture_breadth=_field(payload, "aperture_m", "geometry", float),
        signal_azimuth_offset=_field(payload, "signal_offset_rad", "geometry", float, 0.0),
        reference_azimuth_offset=_field(payload, "reference_offset_rad", "geometry", float, np.pi),
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
        max_total_thickness=_field(payload, "max_total_thickness_m", "material", float),
        max_index_modulation=_field(payload, "max_index_modulation", "material", float),
        meters_per_recording=_field(payload, "meters_per_recording", "material", float, 1e-3),
        name=_field(payload, "name", "material", str, ""),
    )


# -- matrices ----------------------------------------------------------------

def matrix_to_dict(matrix: np.ndarray) -> dict:
    matrix = np.ascontiguousarray(matrix, dtype=complex)
    return {"dim": matrix.shape[0], "entries": matrix.reshape(-1, 1).view(float).tolist()}


def matrix_from_dict(payload: dict) -> np.ndarray:
    dim = _field(payload, "dim", "matrix", int)
    if dim < 1:
        raise FileFormatError(f"matrix: field 'dim' must be positive, got {dim}")
    entries = _field(payload, "entries", "matrix", list)
    if len(entries) != dim * dim:
        raise FileFormatError(f"matrix: expected {dim * dim} entries, got {len(entries)}")
    values = []
    for k, entry in enumerate(entries):
        if type(entry) is not list or len(entry) != 2:
            raise FileFormatError(
                f"matrix: entries[{k}] must be an [re, im] pair, got {reprlib.repr(entry)}"
            )
        re, im = entry
        if type(re) is not float or type(im) is not float:
            re, im = (_as(v, float, f"matrix: entries[{k}]") for v in entry)
        values.append(complex(re, im))
    return np.array(values, dtype=complex).reshape(dim, dim)


# -- circuits ----------------------------------------------------------------

def _gate_from_dict(payload: dict, context: str) -> Gate:
    # "kind" is optional inside a cgate, which holds only a gate.
    if _field(payload, "kind", context, str, "gate") != "gate":
        raise FileFormatError(f"{context}: expected a gate, got kind {payload['kind']!r}")
    name = _field(payload, "name", context, str)
    try:
        kind = GateKind(name)
    except ValueError:
        raise FileFormatError(f"{context}: unknown gate name {name!r}") from None
    wires = _field(payload, "wires", context, object)
    if type(wires) is not list or not all(type(w) is int for w in wires):
        raise FileFormatError(
            f"{context}: field 'wires' must be a list of integers, got {reprlib.repr(wires)}"
        )
    matrix = _field(payload, "matrix", context, dict, None)
    return Gate(kind, tuple(wires), matrix_from_dict(matrix) if matrix is not None else None)


def circuit_from_dict(payload: dict) -> QuantumCircuit:
    width = _field(payload, "width", "circuit", int)
    elements: list = []
    for i, entry in enumerate(_field(payload, "elements", "circuit", list)):
        context = f"circuit.elements[{i}]"
        kind = _field(entry, "kind", context, str)
        if kind == "gate":
            elements.append(_gate_from_dict(entry, context))
        elif kind == "measure":
            elements.append(Measurement(_field(entry, "wire", context, int)))
        elif kind == "cgate":
            elements.append(
                ClassicallyControlledGate(
                    gate=_gate_from_dict(_field(entry, "gate", context, dict), f"{context}.gate"),
                    source_wire=_field(entry, "source_wire", context, int),
                )
            )
        else:
            raise FileFormatError(f"{context}: unknown kind {kind!r}")
    return QuantumCircuit(width, tuple(elements))


# -- plans -------------------------------------------------------------------

def _mode_key(mode: PlaneWaveMode) -> dict:
    return {"role": mode.role.value, "index": mode.index}


_ROLES = {role.value: role for role in Role}


def _position_from_key(parent: dict, key: str, context: str, modes: ModeSet) -> int:
    """Universe position of the mode that parent[key] names; an unknown one names its path."""
    payload = _field(parent, key, context, dict)
    context = f"{context}.{key}"
    name = _field(payload, "role", context, str)
    role = _ROLES.get(name)
    if role is None:
        raise FileFormatError(f"{context}: unknown role {reprlib.repr(name)}")
    index = _field(payload, "index", context, int)
    try:
        modes.find(role, index)
    except UnknownMode as exc:
        raise FileFormatError(f"{context}: {exc.args[0]} (n = {modes.dimension})") from None
    return index - 1 + (0 if role is Role.SIGNAL else modes.dimension)


def plan_to_dict(stack: GratingStack) -> dict:
    """The plan's payload; each mode is named by the mode set's own mode in its slot."""
    keys = [_mode_key(m) for m in stack.mode_set.universe]  # each fringe writes its own copy
    order = [(key["role"], key["index"]) for key in keys]
    holograms = []
    for hologram in stack.holograms:
        table = hologram._fringes
        positions = table.positions(stack.mode_set)
        component, partner = positions[table.component].tolist(), positions[table.partner].tolist()
        coefficient, bounds = table.coefficient.tolist(), table.bounds
        exposures = []
        rows = zip(bounds, bounds[1:], table.delta_n.tolist(), table.phase.tolist())
        for a, b, delta_n, phase in rows:
            fringes = sorted(zip(component[a:b], coefficient[a:b]), key=lambda mc: order[mc[0]])
            coefficients = [{"mode": {**keys[m]}, "re": v.real, "im": v.imag} for m, v in fringes]
            exposures.append({"partner": {**keys[partner[a]]}, "coefficients": coefficients,
                              "delta_n": delta_n, "phase_rad": phase})
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
    """The plan's stack; each hologram's fringe table is filled straight from its rows."""
    if payload.get("format") != PLAN_FORMAT:
        raise FileFormatError(f"plan: expected format {PLAN_FORMAT!r}")
    modes = make_cone_basis(geometry_from_dict(_field(payload, "geometry", "plan", dict)))
    n, offsets = modes.dimension, {Role.SIGNAL.value: 0, Role.REFERENCE.value: modes.dimension}

    def rows(h_payload: dict, h_context: str):  # universe positions, read as the table asks
        for j, e_payload in enumerate(_field(h_payload, "exposures", h_context, list)):
            e_context = f"{h_context}.exposures[{j}]"
            components, coefficients, used = [], [], set()
            for k, c_payload in enumerate(_field(e_payload, "coefficients", e_context, list)):
                try:  # exact types read plainly; `_field` reads a failed one again, by its path
                    exact = (type(c_payload) is dict and type(mode := c_payload["mode"]) is dict
                             and type(re := c_payload["re"]) is float is type(im := c_payload["im"])
                             and type(role := mode["role"]) is str and role in offsets
                             and type(index := mode["index"]) is int and 0 < index <= n)
                except KeyError:
                    exact = False
                if exact:
                    position = offsets[role] + index - 1
                else:
                    c_context = f"{e_context}.coefficients[{k}]"
                    re, im = (_field(c_payload, key, c_context, float) for key in ("re", "im"))
                    position = _position_from_key(c_payload, "mode", c_context, modes)
                coefficients.append(complex(re, im))
                if position in used:
                    raise FileFormatError(
                        f"{e_context}.coefficients[{k}].mode: listed twice in one exposure")
                used.add(position)
                components.append(position)
            partner = _position_from_key(e_payload, "partner", e_context, modes)
            delta_n = _field(e_payload, "delta_n", e_context, float)
            phase = _field(e_payload, "phase_rad", e_context, float, 0.0)
            yield partner, components, coefficients, delta_n, phase

    holograms = []
    for i, h_payload in enumerate(_field(payload, "holograms", "plan", list)):
        h_context = f"plan.holograms[{i}]"
        table = _FringeTable(modes.universe, rows(h_payload, h_context))
        # null, as written for an untuned hologram, leaves the thickness unset.
        thickness = h_payload.get("thickness_m")
        if thickness is not None:
            thickness = _field(h_payload, "thickness_m", h_context, float)
        holograms.append(Hologram(table, thickness, _field(h_payload, "label", h_context, str, "")))
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
