"""Gate matrices, measured circuits, and the deferred-measurement rewrite.

Wires are numbered from 1 and wire 1 is the most significant bit, so the
basis state |q1 q2 ... qd> occupies zero-based row/column
sum(q_w * 2**(d - w)).  With this ordering a controlled-X on wires (2, 3)
of a 3-wire circuit swaps rows 3<->4 and 7<->8 (1-based), and a
controlled-Z on wires (1, 3) is diag(1,1,1,1,1,-1,1,-1).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .compiler import unitarity_defect
from .errors import DimensionMismatch, MalformedCircuit, WireOutOfRange

_SQRT1_2 = 1.0 / math.sqrt(2.0)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT1_2
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

#: Two-qubit maximally entangled pair (|00> + |11>)/sqrt(2).
BELL_STATE = np.array([1, 0, 0, 1], dtype=complex) * _SQRT1_2


class GateKind(enum.Enum):
    X = "x"
    Z = "z"
    H = "h"
    CNOT = "cnot"
    CONTROLLED_U = "cu"


_FIXED_MATRICES = {
    GateKind.X: PAULI_X,
    GateKind.Z: PAULI_Z,
    GateKind.H: HADAMARD,
    GateKind.CNOT: CNOT_MATRIX,
}

_UNITARY_TOL = 1e-12  # largest unitarity defect of a controlled-U payload


@dataclass(frozen=True, eq=False)
class Gate:
    """A gate applied to specific wires; controls come first in `wires`.

    `payload` is only meaningful for CONTROLLED_U: the unitary applied to
    wires[1:] when wires[0] is |1>.
    """

    kind: GateKind
    wires: tuple[int, ...]
    payload: np.ndarray | None = None

    def __post_init__(self):
        if len(set(self.wires)) != len(self.wires):
            raise MalformedCircuit(f"gate wires must be distinct, got {self.wires}")
        if self.kind is GateKind.CONTROLLED_U:
            if len(self.wires) < 2:
                raise MalformedCircuit("controlled gate needs a control and a target")
            if self.payload is None:
                raise MalformedCircuit("controlled-U gate needs a payload matrix")
            payload = np.asarray(self.payload, dtype=complex)
            n_targets = len(self.wires) - 1
            if payload.shape != (2**n_targets, 2**n_targets):
                raise DimensionMismatch(
                    f"payload shape {payload.shape} does not fit {n_targets} target wire(s)"
                )
            defect = unitarity_defect(payload)
            if not defect <= _UNITARY_TOL:
                raise MalformedCircuit(f"payload is not unitary (Frobenius defect {defect:.2e})")
            object.__setattr__(self, "payload", payload)
        else:
            if self.payload is not None:
                raise MalformedCircuit("only controlled-U gates carry a payload")
            expected = 2 if self.kind is GateKind.CNOT else 1
            if len(self.wires) != expected:
                raise MalformedCircuit(
                    f"{self.kind.value} gate acts on {expected} wire(s), got {self.wires}"
                )


@dataclass(frozen=True)
class Measurement:
    wire: int


@dataclass(frozen=True, eq=False)
class ClassicallyControlledGate:
    """Apply `gate` only if the recorded outcome of `source_wire` was 1."""

    gate: Gate
    source_wire: int


CircuitElement = Gate | Measurement | ClassicallyControlledGate


@dataclass(frozen=True, eq=False)
class QuantumCircuit:
    width: int
    elements: tuple[CircuitElement, ...]

    def __post_init__(self):
        if self.width < 1:
            raise MalformedCircuit("circuit width must be >= 1")
        object.__setattr__(self, "elements", tuple(self.elements))


def _check_wire(wire: int, width: int) -> None:
    if not 1 <= wire <= width:
        raise WireOutOfRange(f"wire {wire} outside circuit of width {width}")


def validate_circuit(circuit: QuantumCircuit) -> None:
    """Reject circuits that gate a wire after it has been measured."""
    measured: set[int] = set()
    for element in circuit.elements:
        if isinstance(element, Measurement):
            _check_wire(element.wire, circuit.width)
            measured.add(element.wire)
        elif isinstance(element, (Gate, ClassicallyControlledGate)):
            gate, message = element, "gate acts on wire {} after it was measured"
            if isinstance(element, ClassicallyControlledGate):
                _check_wire(element.source_wire, circuit.width)
                gate, message = element.gate, "classically controlled gate targets measured wire {}"
            for w in gate.wires:
                _check_wire(w, circuit.width)
                if w in measured:
                    raise MalformedCircuit(message.format(w))
        else:
            raise MalformedCircuit(f"unknown circuit element {element!r}")


def gate_matrix(kind: GateKind) -> np.ndarray:
    """Standard matrix of a fixed gate (2x2 for X/Z/H, 4x4 for CNOT)."""
    try:
        return _FIXED_MATRICES[kind].copy()
    except KeyError:
        raise MalformedCircuit(
            "controlled-U has no fixed matrix; use the gate payload"
        ) from None


def _wire_matrix(gate: Gate) -> np.ndarray:
    """A new array: the gate's 2**k matrix on its k wires in wire order, controls included."""
    if gate.kind is GateKind.CONTROLLED_U:
        half = gate.payload.shape[0]
        matrix = np.eye(2 * half, dtype=complex)
        matrix[half:, half:] = gate.payload
        return matrix
    return _FIXED_MATRICES[gate.kind].copy()


def embed_gate(gate: Gate, width: int) -> np.ndarray:
    """Full 2**width unitary of a gate placed on its wires."""
    for w in gate.wires:
        _check_wire(w, width)
    dim, matrix = 1 << width, _wire_matrix(gate)
    place = [0]  # the register index of each matrix index; wire w is bit width - w
    for w in gate.wires:  # the first wire is the matrix index's top bit
        place = [p | bit for p in place for bit in (0, 1 << (width - w))]
    rows, cols = np.nonzero(matrix)
    entries = [place[r] * dim + place[c] for r, c in zip(rows.tolist(), cols.tolist())]
    # Each entry recurs at offset i * dim + i for every index i with the gate's wires at 0.
    flat = np.array([[i * (dim + 1) + e for e in entries] for i in range(dim) if not i & place[-1]])
    out = np.zeros((dim, dim), dtype=complex)
    out.reshape(-1)[flat] += matrix[rows, cols]  # adding into zeros makes -0.0 parts +0.0
    return out


def defer_measurements(circuit: QuantumCircuit) -> QuantumCircuit:
    """Commute mid-circuit measurements past the gates they feed.

    Each classically controlled gate becomes a quantum controlled-U whose
    control is the former measurement wire; all measurements move to the
    end.  Gate order is otherwise preserved, so the rewritten circuit
    reproduces the original joint outcome statistics exactly.
    """
    validate_circuit(circuit)
    measured: set[int] = set()
    gates: list[Gate] = []
    measurements: list[Measurement] = []
    for element in circuit.elements:
        if isinstance(element, Measurement):
            measured.add(element.wire)
            measurements.append(element)
        elif isinstance(element, ClassicallyControlledGate):
            if element.source_wire not in measured:
                raise MalformedCircuit(
                    f"classical control reads wire {element.source_wire} "
                    "before it is measured"
                )
            # A controlled-U's own control joins its payload, so the
            # measurement wire can take over as the outer control.
            wires, payload = (element.source_wire, *element.gate.wires), _wire_matrix(element.gate)
            gates.append(Gate(GateKind.CONTROLLED_U, wires, payload))
        else:
            gates.append(element)
    return QuantumCircuit(circuit.width, (*gates, *measurements))


def without_terminal_measurements(circuit: QuantumCircuit) -> QuantumCircuit:
    """Drop trailing measurements; error if any measurement is not terminal."""
    elements = list(circuit.elements)
    while elements and isinstance(elements[-1], Measurement):
        elements.pop()
    if any(isinstance(e, Measurement) for e in elements):
        raise MalformedCircuit("circuit has non-terminal measurements; defer them first")
    return QuantumCircuit(circuit.width, tuple(elements))


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """Product of the embedded gate matrices, later gates multiplying on the left."""
    validate_circuit(circuit)
    unitary = np.eye(1 << circuit.width, dtype=complex)
    for element in circuit.elements:
        if not isinstance(element, Gate):
            raise MalformedCircuit(
                "circuit_unitary needs a measurement-free circuit; "
                "run defer_measurements and strip terminal measurements"
            )
        unitary = embed_gate(element, circuit.width) @ unitary
    return unitary


def apply_unitary(unitary: np.ndarray, state: np.ndarray) -> np.ndarray:
    unitary = np.asarray(unitary, dtype=complex)
    state = np.asarray(state, dtype=complex)
    if unitary.ndim != 2 or unitary.shape[0] != unitary.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {unitary.shape}")
    if state.shape != (unitary.shape[1],):
        raise DimensionMismatch(
            f"state of dimension {state.shape} does not match matrix {unitary.shape}"
        )
    return unitary @ state


def teleportation_circuit() -> QuantumCircuit:
    """Three-wire teleportation: Bell measurement, then conditioned corrections.

    Wire 1 carries the state to teleport; wires 2 and 3 are assumed to be
    prepared in a Bell pair.  The conditioned X/Z corrections land the
    state on wire 3.
    """
    return QuantumCircuit(
        width=3,
        elements=(
            Gate(GateKind.CNOT, (1, 2)),
            Gate(GateKind.H, (1,)),
            Measurement(1),
            Measurement(2),
            ClassicallyControlledGate(Gate(GateKind.X, (3,)), source_wire=2),
            ClassicallyControlledGate(Gate(GateKind.Z, (3,)), source_wire=1),
        ),
    )


#: 8x8 unitary of the teleportation circuit in which the final phase
#: correction is applied as an unconditional Z on wire 1 instead of a
#: controlled-Z(1->3).  Kept as an explicit literal: it is the golden
#: target for the multiplexed-recording compiler tests.
TELEPORT_UNITARY_UNCONDITIONAL_Z = (
    np.array(
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
    * _SQRT1_2
)


def teleportation_unitary(correction: str = "conditional") -> np.ndarray:
    """8x8 unitary of the measurement-free teleportation circuit.

    correction="conditional" uses the controlled-Z(1->3) obtained from the
    deferred-measurement rewrite; this is the variant that teleports every
    input state.  correction="unconditional" replaces it with a plain Z on
    wire 1, which only teleports Z eigenstates but whose rows are the
    recording superpositions used by the canonical multiplexed element.
    """
    if correction == "conditional":
        deferred = defer_measurements(teleportation_circuit())
        return circuit_unitary(without_terminal_measurements(deferred))
    if correction == "unconditional":
        return circuit_unitary(
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
    raise ValueError(f"correction must be 'conditional' or 'unconditional', got {correction!r}")


def teleport_input(psi: np.ndarray) -> np.ndarray:
    """|psi> on wire 1 tensored with a Bell pair on wires 2, 3."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,):
        raise DimensionMismatch("psi must be a single-qubit state of dimension 2")
    return np.kron(psi, BELL_STATE)


@dataclass(frozen=True)
class TeleportReport:
    wire3_fidelity: float
    wires12_product: bool


def teleport_check(psi: np.ndarray, unitary: np.ndarray) -> TeleportReport:
    """Apply `unitary` to psi (x) Bell and inspect wire 3.

    Reports the fidelity <psi| rho_3 |psi> of the reduced state on wire 3,
    and whether the full output factorizes as (wires 1,2 state) (x) psi
    within 1e-9.
    """
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (8, 8):
        raise DimensionMismatch(f"expected an 8x8 unitary, got {unitary.shape}")
    out = apply_unitary(unitary, teleport_input(psi))
    psi = np.asarray(psi, dtype=complex)
    amplitudes = out.reshape(4, 2)  # rows: wires 1,2; cols: wire 3
    rho3 = amplitudes.T @ amplitudes.conj()
    fidelity = float(np.real(psi.conj() @ rho3 @ psi))
    front = amplitudes @ psi.conj()
    residual = np.linalg.norm(amplitudes - np.outer(front, psi))
    return TeleportReport(wire3_fidelity=fidelity, wires12_product=bool(residual < 1e-9))


def measurement_distribution(
    circuit: QuantumCircuit, state: np.ndarray
) -> dict[tuple[int, ...], float]:
    """Exact joint outcome distribution of all measurements in a circuit.

    Branches on every measurement with exact probabilities (no sampling)
    while honoring classically controlled gates, so two circuits related
    by measurement deferral can be compared to numerical precision.
    Outcome tuples are ordered by measurement occurrence.
    """
    validate_circuit(circuit)
    state = np.asarray(state, dtype=complex)
    if state.shape != (1 << circuit.width,):
        raise DimensionMismatch(
            f"state dimension {state.shape} does not match width {circuit.width}"
        )
    # Branches carry subnormalized states so probabilities are their norms.
    branches: list[tuple[np.ndarray, dict[int, int], tuple[int, ...]]] = [
        (state.copy(), {}, ())
    ]
    for element in circuit.elements:
        if isinstance(element, Gate):
            matrix = embed_gate(element, circuit.width)
            branches = [(matrix @ s, rec, out) for s, rec, out in branches]
        elif isinstance(element, ClassicallyControlledGate):
            matrix = embed_gate(element.gate, circuit.width)
            branches = [
                ((matrix @ s) if rec.get(element.source_wire) == 1 else s, rec, out)
                for s, rec, out in branches
            ]
        else:
            next_branches = []
            bit = (np.arange(len(state)) >> (circuit.width - element.wire)) & 1
            for s, rec, out in branches:
                for value in (0, 1):
                    proj = np.where(bit == value, s, 0)
                    next_branches.append((proj, {**rec, element.wire: value}, (*out, value)))
            branches = next_branches
    return {out: float(np.vdot(s, s).real) for s, rec, out in branches}
