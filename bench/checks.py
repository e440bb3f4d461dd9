"""Answer checks for benchmark jobs, written without the program's own code.

Every check reads the files a job wrote with the parsers below and
compares them with an answer known from the job's input: a matrix the
benchmark generated, or one it computed with its own circuit algebra.
Nothing here imports `hologate`, so a defect in the program's metrics or
formats cannot hide itself.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

#: Process fidelity of a matched verify job must equal 1 to this tolerance.
FIDELITY_TOL = 1e-9
#: Largest |T^H T - I| entry accepted for any simulated transfer.
UNITARITY_TOL = 1e-9
#: Signal-block and tilt-0 efficiency error without crosstalk.  The ideal
#: and untilted detuned routes are exact up to rounding (about 1e-15).
BLOCK_TOL = 1e-8
#: Signal-block and tilt-0 efficiency error with crosstalk.  Parasitic
#: fringes really perturb the transfer: RK4 gives about 1.4e-5 on
#: multiplex plans and 8.3e-3 on single-grating stacks.
CROSSTALK_BLOCK_TOL = 2e-2
#: Smallest signal-block error with crosstalk on a plan that has parasitic
#: fringes: a route that leaves them out is exact and fails this check.
CROSSTALK_MIN_EFFECT = 1e-7
#: Coefficients that the compiler copies from conj(U) rows.
COEFF_TOL = 1e-12
#: Matrix entries at or below this magnitude produce no fringe.
NEGLIGIBLE_COEFF = 1e-14


class CheckFailed(Exception):
    """A job's output differs from the answer known from its input."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- reference algebra -------------------------------------------------------

SQRT1_2 = 1.0 / math.sqrt(2.0)
GATES = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) * SQRT1_2,
}
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def lift(matrix: np.ndarray, targets: list[int], controls: list[int], width: int) -> np.ndarray:
    """Full 2**width matrix of `matrix` on `targets` (wire 1 = most significant
    bit), applied only where every wire in `controls` is 1."""
    dim = 1 << width
    out = np.zeros((dim, dim), dtype=complex)
    t_bits = [width - w for w in targets]
    c_bits = [width - w for w in controls]
    for col in range(dim):
        if not all((col >> b) & 1 for b in c_bits):
            out[col, col] = 1.0
            continue
        sub_in = 0
        for b in t_bits:
            sub_in = (sub_in << 1) | ((col >> b) & 1)
        for sub_out in range(matrix.shape[0]):
            row = col
            for k, b in enumerate(t_bits):
                bit = (sub_out >> (len(t_bits) - 1 - k)) & 1
                row = (row & ~(1 << b)) | (bit << b)
            out[row, col] += matrix[sub_out, sub_in]
    return out


def gate_unitary(gate: dict, width: int, extra_controls: list[int]) -> np.ndarray:
    name, wires = gate["name"], list(gate["wires"])
    if name == "cnot":
        return lift(GATES["x"], wires[1:], [wires[0], *extra_controls], width)
    if name == "cu":
        payload = matrix_from_json(gate["matrix"])
        return lift(payload, wires[1:], [wires[0], *extra_controls], width)
    return lift(GATES[name], wires, extra_controls, width)


def circuit_unitary(circuit: dict) -> np.ndarray:
    """Unitary of a circuit file after deferring its measurements.

    A classically controlled gate acts as the same gate with the measured
    wire as one more quantum control; measurements act as the identity.
    """
    width = circuit["width"]
    unitary = np.eye(1 << width, dtype=complex)
    for element in circuit["elements"]:
        if element["kind"] == "gate":
            unitary = gate_unitary(element, width, []) @ unitary
        elif element["kind"] == "cgate":
            unitary = gate_unitary(element["gate"], width, [element["source_wire"]]) @ unitary
    return unitary


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * SQRT1_2
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


# -- file parsers ------------------------------------------------------------

def read_json(path: Path) -> dict:
    payload = json.loads(Path(path).read_text())
    expect(isinstance(payload, dict), f"{path}: top level is not a JSON object")
    return payload


def matrix_to_json(matrix: np.ndarray) -> dict:
    matrix = np.asarray(matrix, dtype=complex)
    return {
        "dim": matrix.shape[0],
        "entries": [[float(v.real), float(v.imag)] for v in matrix.reshape(-1)],
    }


def matrix_from_json(payload: dict) -> np.ndarray:
    dim = payload["dim"]
    entries = payload["entries"]
    expect(len(entries) == dim * dim, f"matrix has {len(entries)} entries for dim {dim}")
    return np.array([complex(re, im) for re, im in entries]).reshape(dim, dim)


def read_sweep(path: Path) -> list[tuple[float, float]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    expect(rows and rows[0] == ["tilt_rad", "efficiency"], f"{path}: bad CSV header")
    return [(float(t), float(e)) for t, e in rows[1:]]


def plan_exposures(plan: dict) -> list[list[dict]]:
    """Exposures of each hologram as dicts: partner (role, index), phase and
    coefficients {(role, index): complex}."""
    expect(plan.get("format") == "hologate-plan-v1", "plan format tag is wrong")
    holograms = []
    for hologram in plan["holograms"]:
        exposures = []
        for exposure in hologram["exposures"]:
            partner = exposure["partner"]
            exposures.append(
                {
                    "partner": (partner["role"], partner["index"]),
                    "phase": exposure.get("phase_rad", 0.0),
                    "coefficients": {
                        (c["mode"]["role"], c["mode"]["index"]): complex(c["re"], c["im"])
                        for c in exposure["coefficients"]
                    },
                }
            )
        holograms.append(exposures)
    return holograms


# -- expected plan structure -------------------------------------------------

def multiplex_exposures(unitary: np.ndarray) -> list[list[dict]]:
    """Exposures of the multiplex + redirection plan of `unitary`."""
    n = unitary.shape[0]
    transform = [
        {
            "partner": ("reference", i + 1),
            "phase": 0.0,
            "coefficients": {
                ("signal", j + 1): np.conj(unitary[i, j])
                for j in range(n)
                if abs(unitary[i, j]) > NEGLIGIBLE_COEFF
            },
        }
        for i in range(n)
    ]
    redirection = [
        {"partner": ("signal", i + 1), "phase": 0.0,
         "coefficients": {("reference", i + 1): 1.0 + 0.0j}}
        for i in range(n)
    ]
    return [transform, redirection]


def stacked_exposures(unitary: np.ndarray) -> list[list[dict]]:
    """Single-exposure gratings of the signed-permutation stack of `unitary`:
    one forward grating per moved column, then one pi-shifted return
    grating per reference wave used, in row order."""
    n = unitary.shape[0]
    forward, rows = [], []
    for col in range(n):
        row = int(np.argmax(np.abs(unitary[:, col])))
        entry = unitary[row, col]
        if row == col and abs(entry - 1.0) <= 1e-12:
            continue
        forward.append([{"partner": ("reference", row + 1), "phase": 0.0,
                         "coefficients": {("signal", col + 1): np.conj(entry)}}])
        rows.append(row)
    returns = [
        [{"partner": ("signal", row + 1), "phase": math.pi,
          "coefficients": {("reference", row + 1): 1.0 + 0.0j}}]
        for row in sorted(rows)
    ]
    return forward + returns


def check_plan(path: Path, expected: list[list[dict]]) -> None:
    actual = plan_exposures(read_json(path))
    expect(len(actual) == len(expected),
           f"plan has {len(actual)} holograms, expected {len(expected)}")
    for h, (got_h, want_h) in enumerate(zip(actual, expected)):
        expect(len(got_h) == len(want_h),
               f"hologram {h} has {len(got_h)} exposures, expected {len(want_h)}")
        for e, (got, want) in enumerate(zip(got_h, want_h)):
            where = f"hologram {h} exposure {e}"
            expect(got["partner"] == want["partner"], f"{where}: wrong partner wave")
            expect(abs(got["phase"] - want["phase"]) <= 1e-12, f"{where}: wrong fringe phase")
            expect(set(got["coefficients"]) == set(want["coefficients"]),
                   f"{where}: wrong superposition components")
            for mode, value in want["coefficients"].items():
                expect(abs(got["coefficients"][mode] - value) <= COEFF_TOL,
                       f"{where}: coefficient of {mode} is not the conj(U) entry")


def plan_recording_count(expected: list[list[dict]]) -> int:
    return sum(len(h) for h in expected)


# -- per-command checks ------------------------------------------------------

def check_result(path: Path, signal_block: np.ndarray, tol: float) -> float:
    """Check a result file's transfer; returns its signal-block error."""
    transfer = matrix_from_json(read_json(path)["transfer"])
    n = signal_block.shape[0]
    expect(transfer.shape == (2 * n, 2 * n), f"{path}: transfer shape {transfer.shape}")
    defect = np.abs(transfer.conj().T @ transfer - np.eye(2 * n)).max()
    expect(defect <= UNITARITY_TOL, f"{path}: unitarity defect {defect:.2e}")
    error = float(np.abs(transfer[:n, :n] - signal_block).max())
    expect(error <= tol, f"{path}: signal block differs from the target by {error:.2e}")
    return error


def check_verify(code: int, report_path: Path, fidelity: float, matched: bool) -> None:
    expect(code == (0 if matched else 3), f"verify exit code {code}, matched={matched}")
    report = read_json(report_path)
    expect(abs(report["fidelity"] - fidelity) <= FIDELITY_TOL,
           f"verify fidelity {report['fidelity']!r}, expected {fidelity!r}")
    expect(report["pass"] is matched, "verify pass flag disagrees with the target")


def check_sweep(path: Path, tilt_range: float, samples: int, designed: float, tol: float) -> None:
    rows = read_sweep(path)
    expect(len(rows) == samples, f"sweep has {len(rows)} rows, expected {samples}")
    grid = np.linspace(0.0, tilt_range, samples)
    for (tilt, efficiency), want in zip(rows, grid):
        expect(abs(tilt - want) <= 1e-11 * tilt_range, f"sweep tilt {tilt!r} is off the grid")
        expect(-1e-12 <= efficiency <= 1.0 + 1e-9, f"sweep efficiency {efficiency!r} outside [0, 1]")
    expect(abs(rows[0][1] - designed) <= tol,
           f"tilt-0 efficiency {rows[0][1]!r}, designed {designed!r}")


def designed_efficiency(signal_block: np.ndarray, first_exposure_column: int) -> float:
    """Tilt-0 efficiency of a sweep: the input is the first exposure's
    strongest component, the output the mode it lands in most."""
    return float(np.max(np.abs(signal_block[:, first_exposure_column]) ** 2))


def check_feasibility(code: int, path: Path, recordings: int, dimension: int) -> None:
    expect(code == 0, f"feasibility exit code {code}")
    report = read_json(path)
    expect(report["recordings"] == recordings,
           f"feasibility counts {report['recordings']} recordings, plan has {recordings}")
    expect(report["dimension"] == dimension, "feasibility dimension differs from the plan")
