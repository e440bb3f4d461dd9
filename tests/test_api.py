"""The public API of the `hologate` package, pinned name by name.

A name added to or removed from `hologate/__init__.py` must be added to or
removed from this set too, so every change of the public surface is a
deliberate one.
"""

import types

import hologate

PUBLIC_NAMES = {
    # circuit
    "BELL_STATE", "CNOT_MATRIX", "ClassicallyControlledGate", "Gate", "GateKind", "HADAMARD",
    "Measurement", "PAULI_X", "PAULI_Z", "QuantumCircuit", "TELEPORT_UNITARY_UNCONDITIONAL_Z",
    "apply_unitary", "circuit_unitary", "defer_measurements", "embed_gate", "gate_matrix",
    "measurement_distribution", "teleport_check", "teleport_input", "teleportation_circuit",
    "teleportation_unitary", "without_terminal_measurements",
    # cmt
    "CouplingSystem", "TransferResult", "build_coupling", "detuned_transfer",
    "optimal_thickness", "selectivity_sweep", "simulate_stack", "tune_stack",
    # compiler
    "DEFAULT_INDEX_MODULATION", "Exposure", "FeasibilityReport", "GratingStack", "Hologram",
    "MaterialSpec", "compile_multiplex", "compile_redirection",
    "compile_signed_permutation_stack", "feasibility_report",
    # errors
    "DimensionMismatch", "HologateError", "InvalidGeometry", "MalformedCircuit",
    "NonuniformCoupling", "NotSignedPermutation", "NotUnitary", "StepUnderflow", "UnknownMode",
    "WireOutOfRange",
    # metrics
    "DEFAULT_FIDELITY_THRESHOLD", "FidelityReport", "diffraction_efficiency",
    "process_fidelity", "realized_unitary",
    # modes
    "ConeGeometry", "ModeSet", "PlaneWaveMode", "Role", "make_cone_basis", "wave_vector",
}


def test_public_names_are_pinned():
    public = {
        name for name, value in vars(hologate).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 61
