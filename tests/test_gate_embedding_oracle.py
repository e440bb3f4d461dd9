"""The one gate embedder against the per-kind construction it replaced.

`reference_embed_gate` keeps the former `embed_gate` verbatim: a CNOT is X
with a control, a controlled-U is its payload with a control, a fixed gate
is its bare matrix, and `reference_embed_on_basis` lifts each one column
by column with bit arithmetic.  `reference_defer_measurements` keeps the
former deferral with its own block-diagonal payload, and
`reference_measurement_distribution` the former reshape-based projector.
Every result must match the current code byte for byte, -0.0 parts
included.
"""

import numpy as np
import pytest

from hologate.circuit import (
    ClassicallyControlledGate,
    Gate,
    GateKind,
    Measurement,
    PAULI_X,
    QuantumCircuit,
    circuit_unitary,
    defer_measurements,
    embed_gate,
    gate_matrix,
    measurement_distribution,
    validate_circuit,
    without_terminal_measurements,
)
from hologate.errors import MalformedCircuit

from conftest import haar_unitary, random_state

FIXED = {GateKind.X: 1, GateKind.Z: 1, GateKind.H: 1, GateKind.CNOT: 2}


def reference_embed_on_basis(payload, targets, controls, width):
    """The former `_embed_on_basis`."""
    dim = 1 << width
    out = np.zeros((dim, dim), dtype=complex)
    target_bits = [width - w for w in targets]  # first target = payload MSB
    control_bits = [width - w for w in controls]
    for col in range(dim):
        if any(not (col >> b) & 1 for b in control_bits):
            out[col, col] = 1.0
            continue
        sub_in = 0
        for b in target_bits:
            sub_in = (sub_in << 1) | ((col >> b) & 1)
        base = col
        for b in target_bits:
            base &= ~(1 << b)
        for sub_out in range(payload.shape[0]):
            amp = payload[sub_out, sub_in]
            if amp == 0:
                continue
            row, s = base, sub_out
            for b in reversed(target_bits):
                row |= (s & 1) << b
                s >>= 1
            out[row, col] += amp
    return out


def reference_embed_gate(gate, width):
    """The former `embed_gate`, one branch per gate kind."""
    if gate.kind is GateKind.CNOT:
        return reference_embed_on_basis(PAULI_X, (gate.wires[1],), (gate.wires[0],), width)
    if gate.kind is GateKind.CONTROLLED_U:
        return reference_embed_on_basis(gate.payload, gate.wires[1:], (gate.wires[0],), width)
    return reference_embed_on_basis(gate_matrix(gate.kind), gate.wires, (), width)


def reference_defer_measurements(circuit):
    """The former `defer_measurements`, with its own block-diagonal payload."""
    validate_circuit(circuit)
    gates, measurements = [], []
    for element in circuit.elements:
        if isinstance(element, Measurement):
            measurements.append(element)
        elif isinstance(element, ClassicallyControlledGate):
            inner = element.gate
            if inner.kind is GateKind.CONTROLLED_U:
                half = inner.payload.shape[0]
                payload = np.eye(2 * half, dtype=complex)
                payload[half:, half:] = inner.payload
            else:
                payload = gate_matrix(inner.kind)
            gates.append(
                Gate(GateKind.CONTROLLED_U, (element.source_wire, *inner.wires), payload)
            )
        else:
            gates.append(element)
    return QuantumCircuit(circuit.width, (*gates, *measurements))


def reference_circuit_unitary(circuit):
    unitary = np.eye(1 << circuit.width, dtype=complex)
    for gate in circuit.elements:
        unitary = reference_embed_gate(gate, circuit.width) @ unitary
    return unitary


def reference_measurement_distribution(circuit, state):
    """The former `measurement_distribution`, projecting on reshaped axes."""
    branches = [(np.asarray(state, dtype=complex).copy(), {}, ())]
    for element in circuit.elements:
        if isinstance(element, Gate):
            matrix = reference_embed_gate(element, circuit.width)
            branches = [(matrix @ s, rec, out) for s, rec, out in branches]
        elif isinstance(element, ClassicallyControlledGate):
            matrix = reference_embed_gate(element.gate, circuit.width)
            branches = [
                ((matrix @ s) if rec.get(element.source_wire) == 1 else s, rec, out)
                for s, rec, out in branches
            ]
        else:
            next_branches = []
            for s, rec, out in branches:
                shaped = s.reshape([2] * circuit.width)
                for value in (0, 1):
                    proj = np.zeros_like(shaped)
                    idx = [slice(None)] * circuit.width
                    idx[element.wire - 1] = value
                    proj[tuple(idx)] = shaped[tuple(idx)]
                    next_branches.append(
                        (proj.reshape(-1), {**rec, element.wire: value}, (*out, value))
                    )
            branches = next_branches
    return {out: float(np.vdot(s, s).real) for s, rec, out in branches}


def signed_zeros(matrix, rng):
    """`matrix` with a random half of its zero real and imaginary parts made -0.0."""
    re, im = matrix.real.copy(), matrix.imag.copy()
    re[(re == 0) & (rng.random(re.shape) < 0.5)] = -0.0
    im[(im == 0) & (rng.random(im.shape) < 0.5)] = -0.0
    out = np.empty(matrix.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def random_payload(targets, rng):
    """A unitary on `targets` wires: dense, real, phased permutation or a mix."""
    n = 1 << targets
    style = rng.integers(4)
    if style == 0:
        matrix = haar_unitary(n, rng)
    elif style == 1:
        matrix = np.linalg.qr(rng.normal(size=(n, n)))[0].astype(complex)
    else:
        m = n // 2 if style == 3 else n
        matrix = np.zeros((m, m), dtype=complex)
        phases = np.array([1, -1, 1j, -1j])[rng.integers(4, size=m)]
        matrix[rng.permutation(m), np.arange(m)] = phases
        if m < n:  # dense 2x2 blocks amid exact zeros, columns shuffled
            matrix = np.kron(matrix, haar_unitary(2, rng))[:, rng.permutation(n)]
    return signed_zeros(matrix, rng)


def random_gate(wires, rng):
    """A random gate on a random choice of `wires`, in random wire order."""
    kinds = [k for k, arity in FIXED.items() if arity <= len(wires)]
    if len(wires) >= 2:
        kinds.append(GateKind.CONTROLLED_U)
    kind = kinds[rng.integers(len(kinds))]
    if kind is GateKind.CONTROLLED_U:
        targets = int(rng.integers(1, min(len(wires) - 1, 3) + 1))
        chosen = tuple(int(w) for w in rng.permutation(wires)[: targets + 1])
        return Gate(kind, chosen, random_payload(targets, rng))
    return Gate(kind, tuple(int(w) for w in rng.permutation(wires)[: FIXED[kind]]))


def random_measured_circuit(width, rng, length):
    """Gates on unmeasured wires, measurements, and gates conditioned on outcomes."""
    measured, elements = [], []
    for _ in range(length):
        free = [w for w in range(1, width + 1) if w not in measured]
        roll = rng.random()
        if measured and free and roll < 0.35:
            elements.append(ClassicallyControlledGate(
                random_gate(free, rng), source_wire=measured[rng.integers(len(measured))]
            ))
        elif len(free) > 1 and roll < 0.55:
            measured.append(free[rng.integers(len(free))])
            elements.append(Measurement(measured[-1]))
        elif free:
            elements.append(random_gate(free, rng))
    return QuantumCircuit(width, tuple(elements))


def assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("width", range(1, 8))
def test_embed_gate_bytes(width):
    rng = np.random.default_rng(100 + width)
    wires = list(range(1, width + 1))
    seen = set()
    for _ in range(60):
        gate = random_gate(wires, rng)
        seen.add(gate.kind)
        assert_same_bytes(embed_gate(gate, width), reference_embed_gate(gate, width))
    assert seen == ({GateKind.X, GateKind.Z, GateKind.H} if width == 1 else set(GateKind))


def signed_zero_payload():
    """i·Y with -0.0 parts in both its zero entries and its nonzero ones."""
    payload = np.empty((2, 2), dtype=complex)
    payload.real = [[-0.0, 1.0], [-1.0, -0.0]]
    payload.imag = [[-0.0, -0.0], [0.0, -0.0]]
    return payload


def test_embed_gate_control_after_target_and_signed_zero_payload():
    payload = signed_zero_payload()
    for gate in (
        Gate(GateKind.CNOT, (3, 1)),
        Gate(GateKind.CONTROLLED_U, (4, 2), payload),
        Gate(GateKind.CONTROLLED_U, (3, 1, 2), np.kron(payload, PAULI_X)),
    ):
        embedded = embed_gate(gate, 4)
        assert_same_bytes(embedded, reference_embed_gate(gate, 4))
        assert not np.signbit(embedded.real[embedded.real == 0]).any()
        assert not np.signbit(embedded.imag[embedded.imag == 0]).any()


def test_deferred_payloads_bytes():
    rng = np.random.default_rng(7)
    inner_cu = Gate(GateKind.CONTROLLED_U, (3, 2, 4), random_payload(2, rng))
    circuit = QuantumCircuit(4, (
        Gate(GateKind.H, (1,)),
        Measurement(1),
        ClassicallyControlledGate(inner_cu, source_wire=1),
        ClassicallyControlledGate(
            Gate(GateKind.CONTROLLED_U, (4, 2), signed_zero_payload()), source_wire=1
        ),
        ClassicallyControlledGate(Gate(GateKind.CNOT, (4, 2)), source_wire=1),
        ClassicallyControlledGate(Gate(GateKind.X, (3,)), source_wire=1),
    ))
    deferred = defer_measurements(circuit)
    expected = reference_defer_measurements(circuit)
    for actual, reference in zip(deferred.elements, expected.elements, strict=True):
        assert type(actual) is type(reference)
        if isinstance(actual, Measurement):
            assert actual == reference
            continue
        assert (actual.kind, actual.wires) == (reference.kind, reference.wires)
        if reference.payload is None:
            assert actual.payload is None
        else:
            assert_same_bytes(actual.payload, reference.payload)
    # The payload block keeps its -0.0 parts: it is assigned, not added.
    assert np.signbit(deferred.elements[2].payload[2:, 2:].imag).tolist() == [
        [True, True], [False, True]
    ]
    # A fixed gate's deferred payload is its own copy, not the module constant.
    x_payload = deferred.elements[4].payload
    x_payload[0, 0] = 5.0
    assert np.array_equal(gate_matrix(GateKind.X), PAULI_X) and PAULI_X[0, 0] == 0


@pytest.mark.parametrize("seed", range(12))
def test_deferred_circuit_unitary_and_distribution_bytes(seed):
    rng = np.random.default_rng(seed)
    width = 2 + seed % 4
    circuit = random_measured_circuit(width, rng, length=8)
    deferred = defer_measurements(circuit)
    expected = reference_defer_measurements(circuit)
    assert_same_bytes(
        circuit_unitary(without_terminal_measurements(deferred)),
        reference_circuit_unitary(without_terminal_measurements(expected)),
    )
    state = random_state(1 << width, rng)
    for c in (circuit, deferred):
        actual = measurement_distribution(c, state)
        reference = reference_measurement_distribution(c, state)
        assert list(actual) == list(reference)
        assert [v.hex() for v in actual.values()] == [v.hex() for v in reference.values()]


def test_validation_messages_unchanged():
    cases = {
        "gate acts on wire 1 after it was measured": (Measurement(1), Gate(GateKind.X, (1,))),
        "classically controlled gate targets measured wire 2": (
            Measurement(1),
            Measurement(2),
            ClassicallyControlledGate(Gate(GateKind.CNOT, (3, 2)), source_wire=1),
        ),
    }
    for message, elements in cases.items():
        with pytest.raises(MalformedCircuit, match=f"^{message}$"):
            validate_circuit(QuantumCircuit(3, elements))
