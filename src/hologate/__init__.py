"""Compile small quantum circuits into volume-hologram recording plans
and verify the compiled grating stacks with coupled-mode simulation."""

from .circuit import (
    BELL_STATE,
    CNOT_MATRIX,
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
    without_terminal_measurements,
)
from .cmt import (
    CouplingSystem,
    TransferResult,
    build_coupling,
    detuned_transfer,
    ideal_transfer,
    optimal_thickness,
    selectivity_sweep,
    simulate_stack,
    tune_stack,
)
from .compiler import (
    DEFAULT_INDEX_MODULATION,
    Exposure,
    FeasibilityReport,
    GratingStack,
    Hologram,
    MaterialSpec,
    compile_multiplex,
    compile_redirection,
    compile_signed_permutation_stack,
    feasibility_report,
)
from .errors import (
    DimensionMismatch,
    HologateError,
    InvalidGeometry,
    MalformedCircuit,
    NonuniformCoupling,
    NotSignedPermutation,
    NotUnitary,
    StepUnderflow,
    UnknownMode,
    WireOutOfRange,
)
from .metrics import (
    DEFAULT_FIDELITY_THRESHOLD,
    FidelityReport,
    diffraction_efficiency,
    process_fidelity,
    realized_unitary,
)
from .modes import (
    ConeGeometry,
    ModeSet,
    PlaneWaveMode,
    Role,
    SelectivityReport,
    aperture_overlap,
    make_cone_basis,
    selectivity_guard,
    wave_vector,
)

__version__ = "0.1.0"
