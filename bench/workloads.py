"""Seeded inputs and job cycles for the four benchmark workloads.

A workload is a fixed cycle of CLI jobs.  The seed picks the matrices,
circuits and tilt ranges; it never changes which jobs a cycle holds or
how much work each one does, so every seed costs the same and runs can
be compared across seeds.  Within a cycle the jobs are grouped by cost so
that the median and the tail percentile of job time fall inside a group
of near-equal jobs for the cycle counts a run makes at this commit.

Each builder returns the cycle and leaves in `Workspace.setup` the jobs
that pre-compile the plans the cycle reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks as ck

#: Illustrative PTR-glass values, the same numbers `hologate init` writes.
GEOMETRY = {
    "theta_s_rad": 0.08,
    "theta_r_rad": 0.16,
    "lambda_m": 6.33e-7,
    "aperture_m": 5e-3,
    "signal_offset_rad": 0.0,
    "reference_offset_rad": math.pi,
}
MATERIAL = {
    "name": "ptr-like-sample",
    "max_total_thickness_m": 2.5e-2,
    "max_index_modulation": 1e-3,
    "meters_per_recording": 1e-3,
}

#: 8x8 teleportation unitary with an unconditional Z correction: CNOT(1,2),
#: H(1), CX(2->3), Z(1).  Its multiplexed plan is sparse and carries 16
#: parasitic fringes under the sample geometry.
TELEPORT_CIRCUIT = {
    "width": 3,
    "elements": [
        {"kind": "gate", "name": "cnot", "wires": [1, 2]},
        {"kind": "gate", "name": "h", "wires": [1]},
        {"kind": "gate", "name": "cnot", "wires": [2, 3]},
        {"kind": "gate", "name": "z", "wires": [1]},
    ],
}


@dataclass
class Job:
    """One CLI invocation and the answer its outputs must match."""

    name: str
    argv: list[str]
    outputs: list[Path]
    check: Callable[[int], None]
    #: Holograms in the plans the job simulates (denominator of
    #: builds_per_hologram).
    holograms: int
    crosstalk: bool = False


@dataclass
class Plan:
    """A plan file and the exposures that its unitary and layout imply."""

    path: Path
    unitary: np.ndarray
    layout: str

    def __post_init__(self):
        self.exposures = (
            ck.multiplex_exposures(self.unitary) if self.layout == "multiplex"
            else ck.stacked_exposures(self.unitary)
        )

    @property
    def signal_block(self) -> np.ndarray:
        """Signal-to-signal block of the stack transfer.  Every tuned
        diffraction multiplies by i, so multiplex + redirection gives -U."""
        return -self.unitary if self.layout == "multiplex" else self.unitary

    @property
    def first_input_column(self) -> int:
        first = self.exposures[0][0]["coefficients"]
        strongest = max(abs(c) for c in first.values())
        return min(index - 1 for (_, index), c in first.items() if abs(c) == strongest)


def dump(payload: dict, path: Path) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def is_dihedral(perm: list[int]) -> bool:
    n = len(perm)
    return any(
        all(perm[i] == (perm[0] + s * i) % n for i in range(n)) for s in (1, -1)
    )


def phased_permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    """A permutation with random phases that is no symmetry of the cone.
    Symmetric (dihedral) permutations produce no parasitic fringes."""
    while True:
        perm = [int(p) for p in rng.permutation(n)]
        if not is_dihedral(perm):
            break
    matrix = np.zeros((n, n), dtype=complex)
    for col, row in enumerate(perm):
        matrix[row, col] = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return matrix


def signed_transposition(rng: np.random.Generator, n: int) -> np.ndarray:
    """Swap two basis states with random signs; the rest pass through.
    Its stack has four gratings, like CNOT."""
    a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
    matrix = np.eye(n, dtype=complex)
    matrix[a, a] = matrix[b, b] = 0.0
    matrix[b, a] = rng.choice([-1.0, 1.0])
    matrix[a, b] = rng.choice([-1.0, 1.0])
    return matrix


def signed_derangement(rng: np.random.Generator, n: int) -> np.ndarray:
    """A signed permutation that moves every basis state (2n gratings)."""
    while True:
        perm = [int(p) for p in rng.permutation(n)]
        if all(p != i for i, p in enumerate(perm)):
            break
    matrix = np.zeros((n, n), dtype=complex)
    for col, row in enumerate(perm):
        matrix[row, col] = rng.choice([-1.0, 1.0])
    return matrix


def random_circuit(rng: np.random.Generator, width: int) -> dict:
    """Gates, then mid-circuit measurements each feeding a classically
    controlled gate, so the deferred-measurement rewrite runs.  The seed
    picks wires and payloads; the gate kinds are fixed per width, so every
    seed costs the same."""
    live = list(range(1, width + 1))

    def wires(count: int) -> list[int]:
        return [int(w) for w in rng.choice(live, size=count, replace=False)]

    def controlled_u() -> dict:
        return {"kind": "gate", "name": "cu", "wires": wires(2),
                "matrix": ck.matrix_to_json(ck.haar_unitary(rng, 2))}

    elements = [
        {"kind": "gate", "name": "h", "wires": wires(1)},
        {"kind": "gate", "name": "cnot", "wires": wires(2)},
        controlled_u(),
        {"kind": "gate", "name": "z", "wires": wires(1)},
    ]
    for _ in range(max(1, width - 2)):
        measured = wires(1)[0]
        live.remove(measured)
        inner = controlled_u() if len(live) >= 2 else {
            "kind": "gate", "name": "x", "wires": wires(1)}
        elements += [
            {"kind": "measure", "wire": measured},
            {"kind": "cgate", "source_wire": measured, "gate": inner},
            {"kind": "gate", "name": "h", "wires": wires(1)},
        ]
    return {"width": width, "elements": elements}


class Workspace:
    """Writes a workload's input files and builds its jobs."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.rng = np.random.default_rng(seed)
        root.mkdir(parents=True, exist_ok=True)
        self.material = dump(MATERIAL, root / "material.json")
        self.setup: list[Job] = []
        self._count = 0

    def path(self, stem: str) -> Path:
        self._count += 1
        return self.root / f"{self._count:03d}-{stem}"

    def geometry(self, n: int) -> Path:
        path = self.root / f"geometry-{n}.json"
        if not path.exists():
            dump({"n": n, **GEOMETRY}, path)
        return path

    def matrix(self, stem: str, unitary: np.ndarray) -> Path:
        return dump(ck.matrix_to_json(unitary), self.path(stem + ".json"))

    def compile_job(self, stem: str, unitary: np.ndarray, layout: str,
                    source: Path | None = None) -> tuple[Job, Plan]:
        """A `compile` job, reading a matrix file or, given `source`, a circuit."""
        n = unitary.shape[0]
        plan = Plan(self.path(stem + "-plan.json"), unitary, layout)
        if source is None:
            source_args = ["--unitary", str(self.matrix(stem, unitary))]
        else:
            source_args = ["--circuit", str(source)]
        argv = ["compile", *source_args, "--geometry", str(self.geometry(n)),
                "--layout", layout, "--out", str(plan.path)]

        def check(code: int) -> None:
            ck.expect(code == 0, f"compile exit code {code}")
            ck.check_plan(plan.path, plan.exposures)

        job = Job(f"compile-{stem}", argv, [plan.path], check, len(plan.exposures))
        return job, plan

    def plan(self, stem: str, unitary: np.ndarray, layout: str) -> Plan:
        """A plan that setup pre-compiles."""
        job, plan = self.compile_job(stem, unitary, layout)
        self.setup.append(job)
        return plan

    def feasibility_job(self, stem: str, plan: Plan) -> Job:
        report = self.path(stem + "-feasibility.json")
        argv = ["feasibility", "--plan", str(plan.path), "--material", str(self.material),
                "--out", str(report)]
        recordings = ck.plan_recording_count(plan.exposures)
        dimension = plan.unitary.shape[0]
        return Job(f"feasibility-{stem}", argv, [report],
                   lambda code: ck.check_feasibility(code, report, recordings, dimension),
                   len(plan.exposures))

    def verify_job(self, stem: str, plan: Plan, matched: bool) -> Job:
        n = plan.unitary.shape[0]
        target = plan.unitary if matched else ck.haar_unitary(self.rng, n)
        fidelity = abs(np.trace(target.conj().T @ plan.signal_block)) / n
        target_path = self.matrix(stem + "-target", target)
        report = self.path(stem + "-report.json")
        argv = ["verify", "--plan", str(plan.path), "--target", str(target_path),
                "--out", str(report)]
        return Job(f"verify-{stem}", argv, [report],
                   lambda code: ck.check_verify(code, report, fidelity, matched),
                   len(plan.exposures))

    def simulate_job(self, stem: str, plan: Plan, crosstalk: bool) -> Job:
        out = self.path(stem + "-result.json")
        argv = ["simulate", "--plan", str(plan.path), "--mode", "detuned",
                *(["--crosstalk"] if crosstalk else []), "--out", str(out)]
        tol = ck.CROSSTALK_BLOCK_TOL if crosstalk else ck.BLOCK_TOL

        def check(code: int) -> None:
            ck.expect(code == 0, f"simulate exit code {code}")
            error = ck.check_result(out, plan.signal_block, tol)
            if crosstalk:
                ck.expect(error >= ck.CROSSTALK_MIN_EFFECT,
                          f"crosstalk left the transfer exact (error {error:.1e})")

        return Job(f"simulate-{stem}", argv, [out], check, len(plan.exposures), crosstalk)

    def sweep_job(self, stem: str, plan: Plan, samples: int, crosstalk: bool) -> Job:
        out = self.path(stem + "-sweep.csv")
        tilt_range = float(self.rng.uniform(1e-3, 3e-3))
        argv = ["sweep", "--plan", str(plan.path), "--tilt-range", repr(tilt_range),
                "--samples", str(samples), *(["--crosstalk"] if crosstalk else []),
                "--out", str(out)]
        designed = ck.designed_efficiency(plan.signal_block, plan.first_input_column)
        tol = ck.CROSSTALK_BLOCK_TOL if crosstalk else ck.BLOCK_TOL

        def check(code: int) -> None:
            ck.expect(code == 0, f"sweep exit code {code}")
            ck.check_sweep(out, tilt_range, samples, designed, tol)

        return Job(f"sweep-{stem}", argv, [out], check, len(plan.exposures), crosstalk)

    def demo_job(self, command: str, unitary: np.ndarray, layout: str) -> Job:
        n = unitary.shape[0]
        out_dir = self.path(command)
        plan = Plan(out_dir / "plan.json", unitary, layout)
        exposures = plan.exposures
        # The demo sweeps its first hologram alone over twice the angular
        # selectivity of a plan occupying one recording depth per exposure.
        required = ck.plan_recording_count(exposures) * MATERIAL["meters_per_recording"]
        wavenumber = 2.0 * math.pi / GEOMETRY["lambda_m"]
        selectivity = math.sqrt(3.0) * math.pi / (
            required * wavenumber * math.sin(GEOMETRY["theta_s_rad"])
        )
        # A multiplex hologram alone sends the input to the reference cone
        # with the target's column weights; a single grating moves it whole.
        designed = (ck.designed_efficiency(unitary, plan.first_input_column)
                    if layout == "multiplex" else 1.0)
        argv = [command, "--geometry", str(self.geometry(n)), "--material",
                str(self.material), "--out-dir", str(out_dir)]
        outputs = [out_dir / name for name in ("plan.json", "result.json", "report.json", "sweep.csv")]

        def check(code: int) -> None:
            ck.expect(code == 0, f"{command} exit code {code}")
            ck.check_plan(plan.path, exposures)
            ck.check_result(out_dir / "result.json", plan.signal_block, ck.BLOCK_TOL)
            report = ck.read_json(out_dir / "report.json")
            ck.expect(abs(report["fidelity"] - 1.0) <= ck.FIDELITY_TOL,
                      f"{command} fidelity {report['fidelity']!r}")
            ck.check_sweep(out_dir / "sweep.csv", 2.0 * selectivity, 9, designed, ck.BLOCK_TOL)

        return Job(command, argv, outputs, check, len(exposures))


def verify_multiplex(ws: Workspace, smoke: bool) -> list[Job]:
    """Ideal route on dense Haar plans: the coupling build dominates."""
    # (N, matched) per job; two of eleven targets are another unitary (exit
    # 3).  Three N=8, three N=12 and five N=16 jobs: the median lands among
    # the N=12 jobs and the tail percentile inside the N=16 group.
    layout = [(8, True), (8, False)] if smoke else [
        (8, True), (12, True), (16, True), (8, False), (16, True), (12, True),
        (16, False), (8, True), (16, True), (12, True), (16, True),
    ]
    jobs = []
    for k, (n, matched) in enumerate(layout):
        plan = ws.plan(f"haar{n}", ck.haar_unitary(ws.rng, n), "multiplex")
        jobs.append(ws.verify_job(f"haar{n}-{k}", plan, matched))
    return jobs


def detuned_sweep(ws: Workspace, smoke: bool) -> list[Job]:
    """RK4 without crosstalk on plans with N <= 8."""
    h4 = ws.plan("haar4", ck.haar_unitary(ws.rng, 4), "multiplex")
    if smoke:
        return [ws.simulate_job("haar4", h4, False), ws.sweep_job("haar4", h4, 2, False)]
    teleport = ck.circuit_unitary(TELEPORT_CIRCUIT)
    more_h4 = [ws.plan(f"haar4-{k}", ck.haar_unitary(ws.rng, 4), "multiplex") for k in range(2)]
    tele = ws.plan("teleport", teleport, "multiplex")
    h8 = ws.plan("haar8", ck.haar_unitary(ws.rng, 8), "multiplex")
    cnot = ws.plan("cnot", ck.CNOT, "stacked")
    sp4 = [ws.plan(f"signed4-{k}", signed_transposition(ws.rng, 4), "stacked") for k in range(2)]
    # Cost groups per cycle: 3 two-slab N=4 simulations, 5 simulations of
    # four N=4 slabs or two N=8 slabs, then 5 sweeps and demos.
    return [
        ws.simulate_job("haar4", h4, False),
        *(ws.simulate_job(f"haar4-{k}", plan, False) for k, plan in enumerate(more_h4)),
        ws.simulate_job("teleport", tele, False),
        ws.simulate_job("haar8", h8, False),
        ws.simulate_job("cnot", cnot, False),
        *(ws.simulate_job(f"signed4-{k}", plan, False) for k, plan in enumerate(sp4)),
        ws.sweep_job("teleport", tele, 4, False),
        ws.sweep_job("cnot", cnot, 3, False),
        ws.sweep_job("haar4", h4, 6, False),
        ws.demo_job("teleport-demo", teleport, "multiplex"),
        ws.demo_job("cnot-demo", ck.CNOT, "stacked"),
    ]


def crosstalk(ws: Workspace, smoke: bool) -> list[Job]:
    """RK4 with the parasitic fringes of sparse plans."""
    pp4 = [ws.plan(f"phased4-{k}", phased_permutation(ws.rng, 4), "multiplex")
           for k in range(1 if smoke else 3)]
    if smoke:
        return [ws.simulate_job("phased4-0", pp4[0], True)]
    pp8 = [ws.plan(f"phased8-{k}", phased_permutation(ws.rng, 8), "multiplex")
           for k in range(2)]
    tele = ws.plan("teleport", ck.circuit_unitary(TELEPORT_CIRCUIT), "multiplex")
    pp16 = ws.plan("phased16", phased_permutation(ws.rng, 16), "multiplex")
    cnot = ws.plan("cnot", ck.CNOT, "stacked")
    sp4 = ws.plan("signed4", signed_transposition(ws.rng, 4), "stacked")
    # Cost groups per cycle: three 2-slab N=4 simulations; four 2-slab N=8
    # ones and a 3-sample sweep (three N=4 transfers); three heavy jobs (a
    # 2-slab N=16 plan, two 4-slab N=4 stacks).  With three cycles the
    # median lands among the N=8 simulations and the tail on the sweep.
    return [
        *(ws.simulate_job(f"phased4-{k}", plan, True) for k, plan in enumerate(pp4)),
        *(ws.simulate_job(f"phased8-{k}", plan, True) for k, plan in enumerate(pp8)),
        ws.simulate_job("teleport", tele, True),
        ws.simulate_job("teleport", tele, True),
        ws.sweep_job("phased4-0", pp4[0], 3, True),
        ws.simulate_job("phased16", pp16, True),
        ws.simulate_job("cnot", cnot, True),
        ws.simulate_job("signed4", sp4, True),
    ]


def compile_plan(ws: Workspace, smoke: bool) -> list[Job]:
    """The write side: compile, then feasibility on the written plan."""
    cases: list[tuple[str, np.ndarray, str, Path | None]] = []
    for width in ((2,) if smoke else (2, 3, 4)):
        circuit = random_circuit(ws.rng, width)
        path = dump(circuit, ws.path(f"circuit{width}.json"))
        cases.append((f"circuit{width}", ck.circuit_unitary(circuit), "multiplex", path))
    for n in ((4,) if smoke else (4, 8, 16)):
        cases.append((f"signed{n}", signed_derangement(ws.rng, n), "stacked", None))
    if not smoke:
        # Two N=64 compiles: the tail percentile needs at least eleven runs
        # of the costliest job, and a run makes seven or more cycles.
        for k, n in enumerate((16, 32, 64, 64)):
            cases.append((f"haar{n}-{k}", ck.haar_unitary(ws.rng, n), "multiplex", None))
    jobs = []
    for stem, unitary, layout, source in cases:
        job, plan = ws.compile_job(stem, unitary, layout, source)
        jobs += [job, ws.feasibility_job(stem, plan)]
    return jobs


WORKLOADS = {
    "verify-multiplex": verify_multiplex,
    "detuned-sweep": detuned_sweep,
    "crosstalk": crosstalk,
    "compile-plan": compile_plan,
}
