"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Expected matrices are rebuilt here as literals, independent of the package
constants they guard.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from hologate.circuit import (
    CNOT_MATRIX,
    Gate,
    GateKind,
    PAULI_X,
    QuantumCircuit,
    circuit_unitary,
    embed_gate,
    gate_matrix,
    teleport_check,
    teleportation_unitary,
)
from hologate.cli import main
from hologate.cmt import (
    CouplingSystem,
    build_coupling,
    detuned_transfer,
    ideal_transfer,
    optimal_thickness,
    simulate_stack,
    tune_stack,
)
from hologate.compiler import (
    Exposure,
    GratingStack,
    Hologram,
    compile_multiplex,
    compile_redirection,
    compile_signed_permutation_stack,
    feasibility_report,
)
from hologate.metrics import diffraction_efficiency, process_fidelity, realized_unitary
from hologate.modes import PlaneWaveMode, Role, make_cone_basis

from conftest import geometry, haar_unitary

SQRT1_2 = 1.0 / math.sqrt(2.0)

# 8x8 unitary of the teleportation sequence with the unconditional final
# phase flip, written out entrywise.
QT_MATRIX = SQRT1_2 * np.array(
    [
        [1, 0, 0, 0, 0, 0, 1, 0],
        [0, 1, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0, 1, 0, 0],
        [0, 0, 1, 0, 1, 0, 0, 0],
        [-1, 0, 0, 0, 0, 0, 1, 0],
        [0, -1, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, -1, 0, 1, 0, 0],
        [0, 0, -1, 0, 1, 0, 0, 0],
    ],
    dtype=complex,
)

CNOT_4 = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

# Embeddings of the teleportation-circuit gates on three wires.
CNOT_12_EMBEDDED = np.eye(8, dtype=complex)[[0, 1, 2, 3, 6, 7, 4, 5]]
CX_23_EMBEDDED = np.eye(8, dtype=complex)[[0, 1, 3, 2, 4, 5, 7, 6]]


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_golden_matrices():
    with criterion(1, "golden gate matrices"):
        assert np.array_equal(gate_matrix(GateKind.CNOT), CNOT_4)
        assert np.array_equal(embed_gate(Gate(GateKind.CNOT, (1, 2)), 3), CNOT_12_EMBEDDED)
        assert np.array_equal(
            embed_gate(Gate(GateKind.CONTROLLED_U, (2, 3), PAULI_X), 3), CX_23_EMBEDDED
        )
        # Composition with the unconditional-Z final correction reproduces
        # the 8x8 teleportation matrix entrywise.
        product = circuit_unitary(
            QuantumCircuit(
                3,
                (
                    Gate(GateKind.CNOT, (1, 2)),
                    Gate(GateKind.H, (1,)),
                    Gate(GateKind.CONTROLLED_U, (2, 3), PAULI_X),
                    Gate(GateKind.Z, (1,)),
                ),
            )
        )
        assert np.abs(product - QT_MATRIX).max() <= 1e-12


def test_criterion_2_compiler_golden_recordings():
    with criterion(2, "multiplex compiler recordings"):
        modes = make_cone_basis(geometry(8))
        hologram = compile_multiplex(QT_MATRIX, modes)
        expected = [
            {7: SQRT1_2, 1: SQRT1_2},
            {8: SQRT1_2, 2: SQRT1_2},
            {6: SQRT1_2, 4: SQRT1_2},
            {5: SQRT1_2, 3: SQRT1_2},
            {7: SQRT1_2, 1: -SQRT1_2},
            {8: SQRT1_2, 2: -SQRT1_2},
            {6: SQRT1_2, 4: -SQRT1_2},
            {5: SQRT1_2, 3: -SQRT1_2},
        ]
        assert len(hologram.exposures) == 8
        for i, (exposure, want) in enumerate(zip(hologram.exposures, expected)):
            assert exposure.partner == modes.references[i]
            got = {m.index: c for m, c in exposure.coefficients.items()}
            assert set(got) == set(want)
            for index, value in want.items():
                assert abs(got[index] - value) < 1e-12


def test_criterion_3_cnot_stack_end_to_end(material):
    with criterion(3, "four-grating CNOT stack"):
        modes = make_cone_basis(geometry(4))
        stack = tune_stack(compile_signed_permutation_stack(CNOT_MATRIX, modes), material)
        result = simulate_stack(stack, material, "ideal")
        block = realized_unitary(result, modes, Role.SIGNAL)
        assert process_fidelity(CNOT_4, block).fidelity >= 1 - 1e-9


def test_criterion_4_teleport_stack_end_to_end(material):
    with criterion(4, "multiplexed teleport element"):
        modes = make_cone_basis(geometry(8))
        multiplexed = compile_multiplex(QT_MATRIX, modes)

        bare = tune_stack(
            GratingStack(holograms=(multiplexed,), mode_set=modes), material
        )
        bare_result = simulate_stack(bare, material, "ideal")
        reference_block = realized_unitary(bare_result, modes, Role.REFERENCE)
        signal_block = realized_unitary(bare_result, modes, Role.SIGNAL)
        # The bare element sends every signal onto the reference cone.
        assert np.abs(signal_block).max() < 1e-9
        assert process_fidelity(QT_MATRIX, reference_block).fidelity >= 1 - 1e-9

        stack = tune_stack(
            GratingStack(
                holograms=(multiplexed, compile_redirection(modes)), mode_set=modes
            ),
            material,
        )
        full = simulate_stack(stack, material, "ideal")
        block = realized_unitary(full, modes, Role.SIGNAL)
        assert process_fidelity(QT_MATRIX, block).fidelity >= 1 - 1e-9


def test_criterion_5_teleportation_property():
    with criterion(5, "teleportation fidelity"):
        conditional = teleportation_unitary("conditional")
        rng = np.random.default_rng(2024)
        for _ in range(100):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = z / np.linalg.norm(z)
            assert abs(teleport_check(psi, conditional).wire3_fidelity - 1.0) < 1e-9

        for basis_state in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            report = teleport_check(basis_state, QT_MATRIX)
            assert abs(report.wire3_fidelity - 1.0) < 1e-9
        plus = np.array([1.0, 1.0]) * SQRT1_2
        # Regression constant pinned by the direct-application oracle: the
        # unconditional variant leaves wire 3 maximally mixed for |+>.
        assert abs(teleport_check(plus, QT_MATRIX).wire3_fidelity - 0.5) < 1e-12


def test_criterion_6_efficiency_physics(material):
    with criterion(6, "grating efficiency physics"):
        modes = make_cone_basis(geometry(2))
        hologram = Hologram(
            exposures=(
                Exposure(
                    partner=modes.references[0],
                    coefficients={modes.signals[0]: 1.0},
                ),
            ),
        )
        system = build_coupling(hologram, modes, material)
        d = optimal_thickness(system)
        tuned = ideal_transfer(system, d)
        assert abs(
            diffraction_efficiency(tuned, modes.signals[0], modes.references[0]) - 1.0
        ) < 1e-9
        half = ideal_transfer(system, d / 2.0)
        assert abs(
            diffraction_efficiency(half, modes.signals[0], modes.references[0]) - 0.5
        ) < 1e-9

        # Detuned two-mode integration against the closed form
        # eta = nu^2/(nu^2 + x^2) * sin^2(sqrt(nu^2 + x^2)), x = xi*d/2.
        pair = (
            PlaneWaveMode(Role.SIGNAL, 1, 0.0, 0.1, 2 * math.pi),
            PlaneWaveMode(Role.REFERENCE, 1, math.pi, 0.2, 2 * math.pi),
        )
        for nu in np.linspace(0.0, math.pi, 9):
            for x in np.linspace(0.0, 2 * math.pi, 9):
                synthetic = CouplingSystem(
                    modes=pair,
                    kappa=np.array([[0.0, nu], [nu, 0.0]], dtype=complex),
                    xi=np.array([[0.0, 2 * x], [-2 * x, 0.0]]),
                    recorded_mask=np.ones((2, 2), dtype=bool),
                    exposure_strengths=(nu,),
                )
                efficiency = abs(detuned_transfer(synthetic, 1.0).transfer[1, 0]) ** 2
                s = math.hypot(nu, x)
                closed_form = 0.0 if s == 0.0 else (nu / s) ** 2 * math.sin(s) ** 2
                assert abs(efficiency - closed_form) < 1e-6


def test_criterion_7_random_unitary_round_trip(material):
    with criterion(7, "random-unitary round trip"):
        rng = np.random.default_rng(7777)
        cases = [2] * 17 + [4] * 17 + [8] * 16
        for n in cases:
            modes = make_cone_basis(geometry(n))
            target = haar_unitary(n, rng)
            stack = tune_stack(
                GratingStack(
                    holograms=(
                        compile_multiplex(target, modes),
                        compile_redirection(modes),
                    ),
                    mode_set=modes,
                ),
                material,
            )
            result = simulate_stack(stack, material, "ideal")
            norms = np.linalg.norm(result.transfer, axis=0)
            assert np.abs(norms - 1.0).max() < 1e-8  # energy conservation
            block = realized_unitary(result, modes, Role.SIGNAL)
            assert process_fidelity(target, block).fidelity >= 1 - 1e-9


def test_criterion_8_feasibility_numbers(material):
    with criterion(8, "feasibility numbers"):
        geom = geometry(8)
        modes = make_cone_basis(geom)
        plan = compile_multiplex(QT_MATRIX, modes)
        report = feasibility_report(GratingStack(holograms=(plan,), mode_set=modes), material)
        assert report.recordings == 8
        assert report.required_thickness == pytest.approx(8e-3, rel=1e-12)
        assert material.max_total_thickness == pytest.approx(25e-3)
        assert 10 <= report.max_dimension <= 20


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical demo outputs"):
        outputs = ("plan.json", "result.json", "report.json", "sweep.csv")
        for demo in ("cnot-demo", "teleport-demo"):
            first = tmp_path / demo / "run1"
            second = tmp_path / demo / "run2"
            assert main([demo, "--out-dir", str(first)]) == 0
            assert main([demo, "--out-dir", str(second)]) == 0
            for name in outputs:
                assert (first / name).read_bytes() == (second / name).read_bytes(), name
