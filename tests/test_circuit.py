import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hologate.circuit import (
    BELL_STATE,
    ClassicallyControlledGate,
    Gate,
    GateKind,
    HADAMARD,
    Measurement,
    PAULI_X,
    PAULI_Z,
    QuantumCircuit,
    TELEPORT_UNITARY_UNCONDITIONAL_Z,
    apply_unitary,
    circuit_unitary,
    defer_measurements,
    embed_gate,
    gate_matrix,
    measurement_distribution,
    teleport_check,
    teleport_input,
    teleportation_circuit,
    teleportation_unitary,
    validate_circuit,
    without_terminal_measurements,
)
from hologate.cli import main
from hologate.errors import DimensionMismatch, MalformedCircuit, WireOutOfRange
from hologate.formats import dump_json, geometry_to_dict
from hologate.samples import sample_geometry

from conftest import random_state

I2 = np.eye(2, dtype=complex)


def kron_chain(*factors):
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def controlled_oracle(control, target, payload, width):
    """Independent controlled-gate oracle built from projector Kronecker chains."""
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    idle = [I2] * width
    first = list(idle)
    first[control - 1] = p0
    second = list(idle)
    second[control - 1] = p1
    second[target - 1] = payload
    return kron_chain(*first) + kron_chain(*second)


# Expected embeddings for the 3-wire teleportation construction.
U_CX_GOLDEN = np.eye(8, dtype=complex)
U_CX_GOLDEN[[2, 3]] = U_CX_GOLDEN[[3, 2]]
U_CX_GOLDEN[[6, 7]] = U_CX_GOLDEN[[7, 6]]
U_CNOT12_GOLDEN = np.eye(8, dtype=complex)
U_CNOT12_GOLDEN[[4, 5, 6, 7]] = U_CNOT12_GOLDEN[[6, 7, 4, 5]]


class TestGateMatrix:
    def test_pauli_x(self):
        assert np.array_equal(gate_matrix(GateKind.X), [[0, 1], [1, 0]])

    def test_cnot(self):
        assert np.array_equal(
            gate_matrix(GateKind.CNOT),
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        )

    def test_hadamard(self):
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(gate_matrix(GateKind.H), expected, atol=1e-15)

    def test_controlled_u_has_no_fixed_matrix(self):
        with pytest.raises(MalformedCircuit):
            gate_matrix(GateKind.CONTROLLED_U)


class TestEmbedGate:
    def test_hadamard_on_first_of_three(self):
        embedded = embed_gate(Gate(GateKind.H, (1,)), 3)
        assert np.allclose(embedded, kron_chain(HADAMARD, I2, I2), atol=1e-15)
        i4 = np.eye(4)
        top = np.hstack([i4, i4]) / math.sqrt(2)
        bottom = np.hstack([i4, -i4]) / math.sqrt(2)
        assert np.allclose(embedded, np.vstack([top, bottom]), atol=1e-15)

    def test_controlled_x_row_swaps(self):
        embedded = embed_gate(Gate(GateKind.CONTROLLED_U, (2, 3), PAULI_X), 3)
        assert np.array_equal(embedded, U_CX_GOLDEN)
        assert np.array_equal(embed_gate(Gate(GateKind.CNOT, (2, 3)), 3), U_CX_GOLDEN)

    def test_cnot_on_first_pair_of_three(self):
        embedded = embed_gate(Gate(GateKind.CNOT, (1, 2)), 3)
        assert np.array_equal(embedded, U_CNOT12_GOLDEN)

    def test_controlled_z_is_sparse_diagonal(self):
        embedded = embed_gate(Gate(GateKind.CONTROLLED_U, (1, 3), PAULI_Z), 3)
        assert np.array_equal(np.diag(embedded), [1, 1, 1, 1, 1, -1, 1, -1])
        oracle = controlled_oracle(1, 3, PAULI_Z, 3)
        assert np.allclose(embedded, oracle, atol=1e-15)

    def test_unconditional_z_on_first_wire(self):
        embedded = embed_gate(Gate(GateKind.Z, (1,)), 3)
        assert np.array_equal(np.diag(embedded), [1, 1, 1, 1, -1, -1, -1, -1])

    def test_against_kron_oracle_random_placements(self):
        rng = np.random.default_rng(11)
        payloads = {GateKind.X: PAULI_X, GateKind.Z: PAULI_Z, GateKind.H: HADAMARD}
        for _ in range(25):
            width = int(rng.integers(1, 5))
            wire = int(rng.integers(1, width + 1))
            kind = rng.choice([GateKind.X, GateKind.Z, GateKind.H])
            factors = [I2] * width
            factors[wire - 1] = payloads[kind]
            assert np.allclose(
                embed_gate(Gate(kind, (wire,)), width), kron_chain(*factors), atol=1e-15
            )

    def test_controlled_any_pair_against_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            width = int(rng.integers(2, 5))
            control, target = rng.choice(np.arange(1, width + 1), size=2, replace=False)
            payload = rng.choice([PAULI_X, PAULI_Z, HADAMARD])
            embedded = embed_gate(
                Gate(GateKind.CONTROLLED_U, (int(control), int(target)), payload), width
            )
            assert np.allclose(
                embedded, controlled_oracle(int(control), int(target), payload, width),
                atol=1e-15,
            )

    def test_wire_out_of_range(self):
        with pytest.raises(WireOutOfRange):
            embed_gate(Gate(GateKind.X, (4,)), 3)

    def test_unitarity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            width = int(rng.integers(1, 5))
            wire = int(rng.integers(1, width + 1))
            u = embed_gate(Gate(GateKind.H, (wire,)), width)
            assert np.linalg.norm(u.conj().T @ u - np.eye(1 << width)) < 1e-10


class TestDeferMeasurements:
    def test_teleportation_rewrites_to_four_gates_two_measurements(self):
        deferred = defer_measurements(teleportation_circuit())
        gates = [e for e in deferred.elements if isinstance(e, Gate)]
        measurements = [e for e in deferred.elements if isinstance(e, Measurement)]
        assert len(gates) == 4 and len(measurements) == 2
        assert deferred.elements[:4] == tuple(gates)
        assert gates[2].kind is GateKind.CONTROLLED_U and gates[2].wires == (2, 3)
        assert gates[3].kind is GateKind.CONTROLLED_U and gates[3].wires == (1, 3)
        assert [m.wire for m in measurements] == [1, 2]

    def test_measurement_free_circuit_unchanged(self):
        circuit = QuantumCircuit(2, (Gate(GateKind.H, (1,)), Gate(GateKind.CNOT, (1, 2))))
        assert defer_measurements(circuit).elements == circuit.elements

    def test_minimal_classical_control(self):
        circuit = QuantumCircuit(
            2, (Measurement(1), ClassicallyControlledGate(Gate(GateKind.X, (2,)), 1))
        )
        deferred = defer_measurements(circuit)
        assert isinstance(deferred.elements[0], Gate)
        assert deferred.elements[0].wires == (1, 2)
        assert isinstance(deferred.elements[1], Measurement)

    def test_unmeasured_source_rejected(self):
        circuit = QuantumCircuit(
            2, (ClassicallyControlledGate(Gate(GateKind.X, (2,)), 1), Measurement(1))
        )
        with pytest.raises(MalformedCircuit):
            defer_measurements(circuit)

    def test_gate_after_measurement_rejected(self):
        circuit = QuantumCircuit(2, (Measurement(1), Gate(GateKind.X, (1,))))
        with pytest.raises(MalformedCircuit):
            defer_measurements(circuit)

    def _random_measured_circuit(self, rng):
        kinds = [GateKind.X, GateKind.Z, GateKind.H]
        elements = [
            Gate(rng.choice(kinds), (int(rng.integers(1, 4)),)),
            Gate(GateKind.CNOT, tuple(rng.choice([1, 2, 3], size=2, replace=False).tolist())),
            Measurement(1),
            ClassicallyControlledGate(Gate(rng.choice(kinds), (int(rng.integers(2, 4)),)), 1),
            Measurement(2),
            ClassicallyControlledGate(Gate(rng.choice(kinds), (3,)), 2),
        ]
        return QuantumCircuit(3, tuple(elements))

    def test_distribution_equivalence_over_random_circuits(self):
        # Exact joint outcome statistics must survive the rewrite.
        rng = np.random.default_rng(21)
        for _ in range(20):
            circuit = self._random_measured_circuit(rng)
            state = random_state(8, rng)
            original = measurement_distribution(circuit, state)
            deferred = measurement_distribution(defer_measurements(circuit), state)
            assert set(original) == set(deferred)
            variation = 0.5 * sum(
                abs(original[key] - deferred[key]) for key in original
            )
            assert variation < 1e-9

    def test_classically_controlled_controlled_gate(self):
        # The inner control folds into the payload; outcome statistics match
        # the explicitly branched simulation.
        rng = np.random.default_rng(23)
        circuit = QuantumCircuit(
            3,
            (
                Gate(GateKind.H, (1,)),
                Measurement(1),
                ClassicallyControlledGate(
                    Gate(GateKind.CONTROLLED_U, (2, 3), PAULI_X), source_wire=1
                ),
                Measurement(3),
            ),
        )
        deferred = defer_measurements(circuit)
        doubly = deferred.elements[1]
        assert doubly.wires == (1, 2, 3)
        assert np.array_equal(doubly.payload, np.kron(np.diag([1, 0]), I2)
                              + np.kron(np.diag([0, 1]), PAULI_X))
        for _ in range(5):
            state = random_state(8, rng)
            original = measurement_distribution(circuit, state)
            rewritten = measurement_distribution(deferred, state)
            assert all(abs(original[k] - rewritten[k]) < 1e-12 for k in original)


class TestCircuitUnitary:
    def test_empty_circuit_is_identity(self):
        assert np.array_equal(circuit_unitary(QuantumCircuit(3, ())), np.eye(8))

    def test_unconditional_z_product_matches_constant(self):
        unitary = teleportation_unitary("unconditional")
        assert np.abs(unitary - TELEPORT_UNITARY_UNCONDITIONAL_Z).max() < 1e-12

    def test_conditional_variant_first_column(self):
        unitary = teleportation_unitary("conditional")
        expected = np.zeros(8)
        expected[[0, 4]] = 1 / math.sqrt(2)
        assert np.allclose(unitary[:, 0], expected, atol=1e-12)

    def test_rejects_measurements(self):
        with pytest.raises(MalformedCircuit):
            circuit_unitary(QuantumCircuit(1, (Measurement(1),)))

    def test_concatenation_composes(self):
        rng = np.random.default_rng(5)
        kinds = [GateKind.X, GateKind.Z, GateKind.H]
        for _ in range(10):
            first = QuantumCircuit(
                2, tuple(Gate(rng.choice(kinds), (int(rng.integers(1, 3)),)) for _ in range(3))
            )
            second = QuantumCircuit(
                2, tuple(Gate(rng.choice(kinds), (int(rng.integers(1, 3)),)) for _ in range(3))
            )
            combined = QuantumCircuit(2, first.elements + second.elements)
            assert np.allclose(
                circuit_unitary(combined),
                circuit_unitary(second) @ circuit_unitary(first),
                atol=1e-12,
            )

    def test_all_products_unitary(self):
        for variant in ("conditional", "unconditional"):
            u = teleportation_unitary(variant)
            assert np.linalg.norm(u.conj().T @ u - np.eye(8)) < 1e-10


class TestApplyUnitary:
    def test_identity(self):
        state = random_state(8, np.random.default_rng(1))
        assert np.array_equal(apply_unitary(np.eye(8), state), state)

    def test_bell_product_input_structure(self):
        alpha, beta = 0.6, 0.8
        state = teleport_input(np.array([alpha, beta]))
        expected = np.array([alpha, 0, 0, alpha, beta, 0, 0, beta]) / math.sqrt(2)
        assert np.allclose(state, expected, atol=1e-15)

    def test_unconditional_z_matrix_on_bell_product(self):
        alpha, beta = 0.6, 0.8j
        out = apply_unitary(
            TELEPORT_UNITARY_UNCONDITIONAL_Z, teleport_input(np.array([alpha, beta]))
        )
        expected = 0.5 * np.array(
            [alpha, beta, alpha, beta, -alpha, beta, -alpha, beta]
        )
        assert np.allclose(out, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_unitary(np.eye(4), np.zeros(8))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(8, rng)
        out = apply_unitary(teleportation_unitary("conditional"), state)
        assert math.isclose(float(np.linalg.norm(out)), 1.0, rel_tol=0, abs_tol=1e-12)


class TestTeleportCheck:
    def test_conditional_variant_teleports_everything(self):
        unitary = teleportation_unitary("conditional")
        rng = np.random.default_rng(100)
        for _ in range(100):
            report = teleport_check(random_state(2, rng), unitary)
            assert abs(report.wire3_fidelity - 1.0) < 1e-9
            assert report.wires12_product

    def test_unconditional_variant_teleports_z_eigenstates(self):
        unitary = TELEPORT_UNITARY_UNCONDITIONAL_Z
        for basis_state in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            report = teleport_check(basis_state, unitary)
            assert abs(report.wire3_fidelity - 1.0) < 1e-9

    def test_unconditional_variant_plus_state_regression(self):
        # Frozen oracle value: ((|0>+|1>)/sqrt 2) (x) Bell through the
        # unconditional-Z matrix leaves wire 3 maximally mixed.
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        report = teleport_check(plus, TELEPORT_UNITARY_UNCONDITIONAL_Z)
        assert abs(report.wire3_fidelity - 0.5) < 1e-12
        assert not report.wires12_product

    def test_wrong_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            teleport_check(np.array([1.0, 0.0]), np.eye(4))


class TestMeasurementDistribution:
    def test_bell_measurement_statistics(self):
        circuit = QuantumCircuit(2, (Measurement(1), Measurement(2)))
        dist = measurement_distribution(circuit, np.kron(BELL_STATE, [1]))
        assert dist[(0, 0)] == pytest.approx(0.5, abs=1e-12)
        assert dist[(1, 1)] == pytest.approx(0.5, abs=1e-12)
        assert dist[(0, 1)] == pytest.approx(0.0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(17)
        circuit = teleportation_circuit()
        dist = measurement_distribution(circuit, teleport_input(random_state(2, rng)))
        assert math.isclose(sum(dist.values()), 1.0, abs_tol=1e-12)
        assert all(p == pytest.approx(0.25, abs=1e-9) for p in dist.values())


class TestRejectedInputs:
    @pytest.mark.parametrize("build, error, message", [
        (lambda: Gate(GateKind.CNOT, (1, 1)), MalformedCircuit, "wires must be distinct"),
        (lambda: Gate(GateKind.CONTROLLED_U, (1, 2)), MalformedCircuit, "needs a payload"),
        (lambda: Gate(GateKind.CONTROLLED_U, (1, 2), np.eye(4)), DimensionMismatch,
         r"payload shape \(4, 4\) does not fit 1 target"),
        (lambda: Gate(GateKind.X, (1,), PAULI_X), MalformedCircuit,
         "only controlled-U gates carry a payload"),
        (lambda: QuantumCircuit(0, ()), MalformedCircuit, "width must be >= 1"),
        (lambda: validate_circuit(QuantumCircuit(1, ("x",))), MalformedCircuit,
         "unknown circuit element 'x'"),
        (lambda: without_terminal_measurements(
            QuantumCircuit(1, (Measurement(1), Gate(GateKind.X, (1,))))),
         MalformedCircuit, "non-terminal measurements"),
        (lambda: apply_unitary(np.ones((2, 4)), np.ones(4)), DimensionMismatch,
         "expected a square matrix"),
        (lambda: teleportation_unitary("other"), ValueError, "got 'other'"),
        (lambda: teleport_input(np.ones(4)), DimensionMismatch, "single-qubit state"),
        (lambda: measurement_distribution(QuantumCircuit(2, (Measurement(1),)), np.ones(2)),
         DimensionMismatch, "does not match width 2"),
    ])
    def test_raises_its_error(self, build, error, message):
        with pytest.raises(error, match=message):
            build()

    @pytest.mark.parametrize("gate, message", [
        ({"kind": "gate", "name": "cnot", "wires": [1, 1]}, "wires must be distinct"),
        ({"kind": "gate", "name": "cu", "wires": [1, 2]}, "needs a payload"),
    ])
    def test_compile_circuit_exits_2(self, tmp_path, capsys, gate, message):
        circuit, geometry, plan = (tmp_path / name for name in ("c.json", "g.json", "plan.json"))
        circuit.write_text(json.dumps({"width": 2, "elements": [gate]}))
        dump_json(geometry_to_dict(sample_geometry(4)), geometry)
        assert main(["compile", "--circuit", str(circuit), "--geometry", str(geometry),
                     "--out", str(plan)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: MalformedCircuit: ") and message in captured.err
        assert not plan.exists()
