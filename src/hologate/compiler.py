"""Translate target unitaries into hologram recording plans.

A multiplexed element realizes an N x N unitary with one exposure per
matrix row: exposure i records the superposition sum_j conj(U_ij)|S_j>
against the partner wave |R_i>, so replaying any signal state |psi>
reconstructs sum_i (U psi)_i |R_i> on the reference cone.  A redirection
element (one exposure per basis pair R_i <-> S_i) brings the result back
to the signal cone.

Signed/phased permutation matrices admit an alternative plan made purely
of single-exposure gratings: one forward grating per moved basis state,
then one return grating per reference wave used.  Basis states fixed by
the identity pass through undiffracted.  Because every 90-degree
diffraction multiplies the amplitude by i, a state that diffracts twice
picks up a factor -1 relative to the undiffracted pass-through states;
the return gratings are therefore recorded with a half-period fringe
shift (phase pi) so the assembled stack realizes the target matrix
exactly rather than up to a state-dependent sign.  The CNOT is compiled
this way, as the signed permutation CNOT_MATRIX: two forward gratings
(S3 -> R4, S4 -> R3) and two returns, while S1 and S2 pass through.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotSignedPermutation,
    NotUnitary,
    UnknownMode,
)
from .modes import ModeSet, PlaneWaveMode, TWO_PI, wave_vector

#: Index-modulation amplitude used when a plan does not specify one.
#: An illustrative value for PTR-like glass; adjust per material batch.
DEFAULT_INDEX_MODULATION = 1e-4

#: d * lambda / Lambda^2 at and above which a grating is treated as
#: firmly in the volume (Bragg) regime.
VOLUME_REGIME_Q = 10.0

_UNITARY_FROBENIUS_TOL = 1e-10
_COEFF_NORM_TOL = 1e-12
_ORTHOGONALITY_TOL = 1e-10
_NEGLIGIBLE_COEFF = 1e-14


@dataclass(frozen=True)
class Exposure:
    """One recording: a signal-side superposition interfering with a partner wave.

    `coefficients` maps each superposition component to its complex
    amplitude; the argument of a coefficient is the fringe phase recorded
    for that component, and `phase` is a common offset added to all of
    them (a rigid fringe shift).
    """

    partner: PlaneWaveMode
    coefficients: dict[PlaneWaveMode, complex]
    index_modulation: float = DEFAULT_INDEX_MODULATION
    phase: float = 0.0

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("exposure needs at least one superposition component")
        if not 0.0 < self.index_modulation < math.inf:
            raise ValueError(
                f"index modulation must be positive and finite, got {self.index_modulation}"
            )
        if not math.isfinite(self.phase):
            raise ValueError(f"exposure phase must be finite, got {self.phase}")
        if self.partner in self.coefficients:
            raise ValueError("partner wave cannot appear in its own superposition")
        total = sum(abs(c) * abs(c) for c in self.coefficients.values())
        if not abs(total - 1.0) <= _COEFF_NORM_TOL:
            raise ValueError(f"superposition norm {total} is not 1")
        object.__setattr__(self, "coefficients", dict(self.coefficients))


def _overlap(a: Exposure, b: Exposure) -> complex:
    return sum(
        a.coefficients[m].conjugate() * c for m, c in b.coefficients.items()
        if m in a.coefficients
    )


@dataclass(frozen=True)
class Hologram:
    """A multiplexed element: one or more exposures sharing a slab of material.

    `thickness` stays None until the plan is tuned (see cmt.optimal_thickness).
    """

    exposures: tuple[Exposure, ...]
    thickness: float | None = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "exposures", tuple(self.exposures))
        partners = [e.partner for e in self.exposures]
        if len(set(partners)) != len(partners):
            raise ValueError("exposures within one hologram need distinct partner waves")
        for i, a in enumerate(self.exposures):
            for b in self.exposures[i + 1 :]:
                if abs(_overlap(a, b)) > _ORTHOGONALITY_TOL:
                    raise ValueError(
                        "exposure superpositions within one hologram must be orthogonal"
                    )
        _check_thickness(self.thickness)

    def with_thickness(self, thickness: float) -> "Hologram":
        """This hologram at `thickness`; the exposures were validated already."""
        _check_thickness(thickness)
        tuned = copy.copy(self)
        object.__setattr__(tuned, "thickness", thickness)
        return tuned


def _check_thickness(thickness: float | None) -> None:
    if thickness is not None and not 0.0 < thickness < math.inf:
        raise ValueError(f"thickness must be positive and finite when set, got {thickness}")


@dataclass(frozen=True)
class GratingStack:
    """Ordered holograms; light traverses them in list order."""

    holograms: tuple[Hologram, ...]
    mode_set: ModeSet

    def __post_init__(self):
        object.__setattr__(self, "holograms", tuple(self.holograms))
        known = set(self.mode_set.universe)
        for hologram in self.holograms:
            for exposure in hologram.exposures:
                for mode in (exposure.partner, *exposure.coefficients):
                    if mode not in known:
                        raise UnknownMode(f"exposure references {mode} outside the mode set")


@dataclass(frozen=True)
class MaterialSpec:
    """Recording-medium limits used by feasibility checks."""

    max_total_thickness: float
    max_index_modulation: float
    meters_per_recording: float = 1e-3
    name: str = ""

    def __post_init__(self):
        for field_name in ("max_total_thickness", "max_index_modulation", "meters_per_recording"):
            value = getattr(self, field_name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{field_name} must be positive and finite, got {value}")


def _as_unitary(matrix: np.ndarray, dimension: int) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (dimension, dimension):
        raise DimensionMismatch(
            f"matrix shape {matrix.shape} does not match mode dimension {dimension}"
        )
    # Huge or inf entries give an inf or NaN defect, rejected below.
    with np.errstate(invalid="ignore", over="ignore"):
        defect = np.linalg.norm(matrix.conj().T @ matrix - np.eye(dimension))
    if not defect <= _UNITARY_FROBENIUS_TOL:
        raise NotUnitary(f"matrix is not unitary (Frobenius defect {defect:.2e})")
    return matrix


def compile_multiplex(
    unitary: np.ndarray,
    modes: ModeSet,
    *,
    index_modulation: float = DEFAULT_INDEX_MODULATION,
    label: str = "multiplex",
) -> Hologram:
    """One multiplexed hologram realizing `unitary` from signal to reference cone.

    Exposure i pairs partner R_i with sum_j conj(U_ij)|S_j>.  Entries of
    negligible magnitude produce no fringe.
    """
    n = modes.dimension
    unitary = _as_unitary(unitary, n)
    exposures = []
    for i in range(n):
        coefficients = {
            modes.signals[j]: np.conj(unitary[i, j])
            for j in range(n)
            if abs(unitary[i, j]) > _NEGLIGIBLE_COEFF
        }
        exposures.append(
            Exposure(
                partner=modes.references[i],
                coefficients=coefficients,
                index_modulation=index_modulation,
            )
        )
    return Hologram(exposures=tuple(exposures), label=label)


def compile_redirection(
    modes: ModeSet,
    *,
    index_modulation: float = DEFAULT_INDEX_MODULATION,
    label: str = "redirection",
) -> Hologram:
    """Hologram mapping each reference wave back onto its signal partner."""
    exposures = tuple(
        Exposure(
            partner=signal,
            coefficients={reference: 1.0 + 0.0j},
            index_modulation=index_modulation,
        )
        for signal, reference in zip(modes.signals, modes.references)
    )
    return Hologram(exposures=exposures, label=label)


def _single_exposure(
    partner: PlaneWaveMode,
    component: PlaneWaveMode,
    coefficient: complex,
    index_modulation: float,
    phase: float,
    label: str,
) -> Hologram:
    return Hologram(
        exposures=(
            Exposure(
                partner=partner,
                coefficients={component: coefficient},
                index_modulation=index_modulation,
                phase=phase,
            ),
        ),
        label=label,
    )


def _signed_permutation_entries(unitary: np.ndarray, n: int) -> list[tuple[int, int, complex]]:
    """(row, col, entry) per column; rejects anything but a phased permutation."""
    entries = []
    used_rows = set()
    for col in range(n):
        column = unitary[:, col]
        nonzero = np.flatnonzero(np.abs(column) > 1e-9)
        if len(nonzero) != 1:
            raise NotSignedPermutation(
                f"column {col + 1} has {len(nonzero)} significant entries; expected exactly 1"
            )
        row = int(nonzero[0])
        entry = complex(column[row])
        if abs(abs(entry) - 1.0) > 1e-9 or row in used_rows:
            raise NotSignedPermutation("matrix is not a signed/phased permutation")
        used_rows.add(row)
        entries.append((row, col, entry))
    return entries


def compile_signed_permutation_stack(
    unitary: np.ndarray,
    modes: ModeSet,
    *,
    index_modulation: float = DEFAULT_INDEX_MODULATION,
) -> GratingStack:
    """Stack of single-exposure gratings realizing a signed/phased permutation.

    Emits one forward grating per non-identity column (S_j -> R_pi(j),
    fringe phase conj(entry)) followed by one pi-shifted return grating
    per reference wave used.  Identity columns contribute nothing.
    """
    n = modes.dimension
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (n, n):
        raise DimensionMismatch(
            f"matrix shape {unitary.shape} does not match mode dimension {n}"
        )
    entries = _signed_permutation_entries(unitary, n)
    holograms: list[Hologram] = []
    returns: list[int] = []
    for row, col, entry in entries:
        if row == col and abs(entry - 1.0) <= 1e-12:
            continue  # identity column: passes through undiffracted
        holograms.append(
            _single_exposure(
                modes.references[row],
                modes.signals[col],
                np.conj(entry),
                index_modulation,
                0.0,
                f"forward S{col + 1}->R{row + 1}",
            )
        )
        returns.append(row)
    for row in sorted(returns):
        holograms.append(
            _single_exposure(
                modes.signals[row],
                modes.references[row],
                1.0,
                index_modulation,
                math.pi,
                f"return R{row + 1}->S{row + 1}",
            )
        )
    return GratingStack(holograms=tuple(holograms), mode_set=modes)


@dataclass(frozen=True)
class FeasibilityReport:
    """Physical budget check for a recording plan.

    `required_thickness` follows the per-recording rule (one unit of
    material depth per exposure); `per_dimension_thickness` is the
    alternative one-recording-per-basis-state figure, surfaced alongside
    because the two coincide only for bare multiplexed plans.
    `max_dimension` is the largest state-space dimension whose complete
    signal-to-signal realization (transform plus redirection, two
    recordings per dimension) still fits the material ceiling.
    """

    recordings: int
    dimension: int
    required_thickness: float
    per_dimension_thickness: float
    q_ratio: float
    volume_regime: bool
    angular_selectivity: float
    selectivity_ok: bool
    dimension_ok: bool
    modulation_ok: bool
    max_dimension: int


def feasibility_report(stack: GratingStack, material: MaterialSpec) -> FeasibilityReport:
    """Thickness, Bragg-regime, and selectivity budget for a plan."""
    geometry = stack.mode_set.geometry
    recordings = sum(len(h.exposures) for h in stack.holograms)
    required = recordings * material.meters_per_recording
    per_dimension = geometry.dimension * material.meters_per_recording

    smallest_k = math.inf
    modulation_ok = True
    for hologram in stack.holograms:
        for exposure in hologram.exposures:
            if exposure.index_modulation > material.max_index_modulation:
                modulation_ok = False
            partner_k = wave_vector(exposure.partner)
            for mode in exposure.coefficients:
                smallest_k = min(smallest_k, float(np.linalg.norm(wave_vector(mode) - partner_k)))
    if math.isfinite(smallest_k) and smallest_k > 0.0 and required > 0.0:
        period = TWO_PI / smallest_k
        q_ratio = required * geometry.wavelength / period**2
    else:
        q_ratio = 0.0

    # First-null input tilt of a grating occupying the full required depth,
    # driven at half transfer (coupling angle pi/2): sqrt(3)*pi / (d k sin(theta_s)).
    if required > 0.0:
        selectivity = math.sqrt(3.0) * math.pi / (
            required * geometry.wavenumber * math.sin(geometry.signal_half_angle)
        )
    else:
        selectivity = math.inf
    selectivity_ok = selectivity < geometry.azimuthal_spacing

    return FeasibilityReport(
        recordings=recordings,
        dimension=geometry.dimension,
        required_thickness=required,
        per_dimension_thickness=per_dimension,
        q_ratio=q_ratio,
        volume_regime=q_ratio >= VOLUME_REGIME_Q,
        angular_selectivity=selectivity,
        selectivity_ok=selectivity_ok,
        dimension_ok=required <= material.max_total_thickness,
        modulation_ok=modulation_ok,
        max_dimension=int(material.max_total_thickness // (2.0 * material.meters_per_recording)),
    )
