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
import numbers
from dataclasses import dataclass, field
from itertools import accumulate
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from .errors import DimensionMismatch, NotSignedPermutation, NotUnitary
from .modes import ModeSet, PlaneWaveMode, TWO_PI, _require_real

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
    them (a rigid fringe shift).  It is kept as a read-only mapping.
    """

    partner: PlaneWaveMode
    coefficients: Mapping[PlaneWaveMode, complex]
    index_modulation: float = DEFAULT_INDEX_MODULATION
    phase: float = 0.0

    def __post_init__(self):
        c = self.coefficients
        for value in c.values():
            if isinstance(value, bool) or not isinstance(value, numbers.Complex):
                raise ValueError(f"coefficients must be complex numbers, got {value!r}")
        _check_exposure(c.values(), self.index_modulation, self.phase, self.partner, c)
        object.__setattr__(self, "coefficients", MappingProxyType(dict(c)))

    def __reduce__(self):  # a mappingproxy does not pickle; its dict does
        return Exposure, (self.partner, dict(self.coefficients), self.index_modulation, self.phase)


def _check_exposure(values, index_modulation, phase, partner, components, total=None) -> None:
    """An exposure's invariants; partner and components are modes or universe positions.

    `total` is the squared norm of `values`, if the caller has summed it.
    """
    if not values:
        raise ValueError("exposure needs at least one superposition component")
    _require_real(index_modulation, ValueError, "index modulation")
    _require_real(phase, ValueError, "exposure phase", -math.inf, rule="be finite")
    if partner in components:
        raise ValueError("partner wave cannot appear in its own superposition")
    total = _norm_squared(values) if total is None else total
    if not abs(total - 1.0) <= _COEFF_NORM_TOL:
        raise ValueError(f"superposition norm {total} is not 1")


def _norm_squared(values) -> float:
    return sum(abs(c) * abs(c) for c in values)


class _FringeTable:
    """A hologram's exposures as flat arrays, one entry per fringe or per exposure.

    Fringes run in exposure order, then in coefficient insertion order,
    which the coupling build's merges, drops and float sums follow.
    `component` and `partner` index `modes`; `row` is each fringe's
    exposure, whose fringes are bounds[e]:bounds[e + 1].  `weight` is
    Python's abs() of each coefficient (np.abs can differ in the last
    bit).  What is derived from the table is kept with it, so every copy
    of its hologram shares it.
    """

    def __init__(self, universe, rows):
        """The one filler of a table: rows of (partner, components, coefficients, delta_n, phase).

        Modes are positions in `universe`, kept in `modes` in first use (components, then
        partner); each row passes `_check_exposure` before the next row is read.
        """
        local: dict[int, int] = {}  # universe position -> entry of `modes`
        exposures, components, coefficients, weights = [], [], [], []
        for partner, positions, values, delta_n, phase in rows:
            row_weights = [abs(c) for c in values]
            _check_exposure(values, delta_n, phase, partner, positions,
                            sum(w * w for w in row_weights))
            components += [local.setdefault(m, len(local)) for m in positions]
            coefficients += values
            weights += row_weights
            exposures.append((local.setdefault(partner, len(local)), len(values), delta_n, phase))
        partners, counts, delta_n, phase = zip(*exposures) if exposures else [()] * 4
        self.modes: tuple[PlaneWaveMode, ...] = tuple(universe[p] for p in local)
        self.row = np.repeat(np.arange(len(counts)), counts)
        self.bounds = tuple(accumulate(counts, initial=0))
        self.component = np.asarray(components, dtype=np.intp)
        self.partner = np.asarray(partners, dtype=np.intp)[self.row]
        self.coefficient = np.array(coefficients, dtype=complex)
        self.weight = np.array(weights, dtype=float)
        self.delta_n, self.phase = np.array(delta_n, dtype=float), np.array(phase, dtype=float)
        self._derived: dict[str, tuple[ModeSet | None, Any]] = {}
        self._filled_from = universe, np.fromiter(local, np.intp, len(local))

    def derived(self, name: str, modes: ModeSet | None, compute: Callable[[], Any]) -> Any:
        """compute(), kept under `name` for the last mode set it was asked for."""
        held = self._derived.get(name)
        if held is None or held[0] is not modes:
            held = self._derived[name] = (modes, compute())
        return held[1]

    def positions(self, modes: ModeSet) -> np.ndarray:
        """Universe position of each of `self.modes`; UnknownMode for one outside the set.

        A table filled from `modes.universe` itself returns the positions it was given.
        """
        universe, given = self._filled_from
        if universe is modes.universe:
            return given
        return self.derived("positions", modes,
                            lambda: np.array([modes.position(m) for m in self.modes], np.intp))

    def exposures(self) -> tuple[Exposure, ...]:
        def view(a: int, b: int, delta_n: float, phase: float) -> Exposure:
            components = [self.modes[m] for m in self.component[a:b].tolist()]
            values = dict(zip(components, self.coefficient[a:b].tolist()))
            return Exposure(self.modes[self.partner[a]], values, delta_n, phase)

        rows = zip(self.bounds, self.bounds[1:], self.delta_n.tolist(), self.phase.tolist())
        return self.derived("exposures", None, lambda: tuple(view(*row) for row in rows))


def _fringe_table(exposures) -> _FringeTable:
    """The fringe table of `exposures`; equal modes share one entry of its `modes`."""
    columns: dict[PlaneWaveMode, int] = {}
    rows = [(columns.setdefault(e.partner, len(columns)),
             [columns.setdefault(m, len(columns)) for m in e.coefficients],
             list(e.coefficients.values()), e.index_modulation, e.phase) for e in exposures]
    return _FringeTable(list(columns), rows)


def _gram(table: _FringeTable) -> np.ndarray:
    """|<a|b>| for every pair of the table's exposures, as one Gram matrix over its modes."""
    matrix = np.zeros((len(table.delta_n), len(table.modes)), dtype=complex)
    matrix[table.row, table.component] = table.coefficient
    return np.abs(matrix.conj() @ matrix.T)


@dataclass(frozen=True, init=False, eq=False)
class Hologram:
    """A multiplexed element: one or more exposures sharing a slab of material.

    The exposures need distinct partner waves and mutually orthogonal
    superpositions.  Orthogonality is checked as one Gram matrix: every
    off-diagonal magnitude must stay within 1e-10.  `thickness` stays None
    until the plan is tuned (see cmt.optimal_thickness).  The exposures
    are held once, as a fringe table, which the compilers and the plan
    reader pass in their place; `exposures` is a view of it.
    """

    thickness: float | None
    label: str
    _fringes: _FringeTable = field(repr=False)

    def __init__(self, exposures, thickness: float | None = None, label: str = ""):
        table = exposures if isinstance(exposures, _FringeTable) else _fringe_table(exposures)
        if not isinstance(label, str):
            raise ValueError(f"label must be a string, got {label!r}")
        object.__setattr__(self, "_fringes", table)
        object.__setattr__(self, "label", label)
        if not len(table.delta_n):
            raise ValueError(f"hologram {label!r} has an empty exposure list")
        partners = table.partner[list(table.bounds[:-1])].tolist()
        if len(set(partners)) != len(partners):
            raise ValueError("exposures within one hologram need distinct partner waves")
        if len(partners) > 1:
            gram = _gram(table)
            np.fill_diagonal(gram, 0.0)
            if (gram > _ORTHOGONALITY_TOL).any():
                raise ValueError("exposure superpositions within one hologram must be orthogonal")
        object.__setattr__(self, "thickness", _thickness(thickness))

    @property
    def exposures(self) -> tuple[Exposure, ...]:
        return self._fringes.exposures()

    def __eq__(self, other):
        if not isinstance(other, Hologram):
            return NotImplemented
        return (self.exposures, self.thickness, self.label) == (
            other.exposures, other.thickness, other.label
        )

    def with_thickness(self, thickness: float) -> "Hologram":
        """This hologram at `thickness`; the exposures were validated already."""
        tuned = copy.copy(self)
        object.__setattr__(tuned, "thickness", _thickness(thickness))
        return tuned


def _thickness(thickness: float | None) -> float | None:
    """A set thickness as a float, checked; None leaves it unset."""
    return None if thickness is None else _require_real(
        thickness, ValueError, "thickness", rule="be positive and finite when set")


@dataclass(frozen=True)
class GratingStack:
    """Ordered holograms; light traverses them in list order."""

    holograms: tuple[Hologram, ...]
    mode_set: ModeSet

    def __post_init__(self):
        if not isinstance(self.mode_set, ModeSet):
            raise ValueError(f"mode_set must be a ModeSet, got {self.mode_set!r}")
        holograms = tuple(self.holograms) if isinstance(self.holograms, Iterable) else None
        if holograms is None or not all(isinstance(h, Hologram) for h in holograms):
            raise ValueError(f"holograms must be a sequence of Holograms, got {self.holograms!r}")
        object.__setattr__(self, "holograms", holograms)
        for hologram in self.holograms:
            hologram._fringes.positions(self.mode_set)  # raises UnknownMode outside the set


@dataclass(frozen=True)
class MaterialSpec:
    """Recording-medium limits used by feasibility checks, each stored as a Python float."""

    max_total_thickness: float
    max_index_modulation: float
    meters_per_recording: float = 1e-3
    name: str = ""

    def __post_init__(self):
        for name in ("max_total_thickness", "max_index_modulation", "meters_per_recording"):
            object.__setattr__(self, name, _require_real(getattr(self, name), ValueError, name))
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")


def unitarity_defect(matrix: np.ndarray) -> float:
    """||M^H M - I||_F of a square M; inf or NaN for huge or non-finite entries."""
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.linalg.norm(matrix.conj().T @ matrix - np.eye(len(matrix))))


def as_unitary(matrix: np.ndarray, dimension: int) -> np.ndarray:
    """`matrix` as a complex array, checked to be a dimension x dimension unitary."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (dimension, dimension):
        raise DimensionMismatch(
            f"matrix shape {matrix.shape} does not match mode dimension {dimension}"
        )
    defect = unitarity_defect(matrix)
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
    negligible magnitude produce no fringe.  A row whose squared norm is
    not within _COEFF_NORM_TOL of 1 raises NotUnitary naming the row.
    """
    unitary = as_unitary(unitary, modes.dimension)
    signal_positions = [modes.position(mode) for mode in modes.signals]
    rows = []
    for i, partner in enumerate(modes.references):
        row = unitary[i].tolist()
        kept = [j for j, value in enumerate(row) if abs(value) > _NEGLIGIBLE_COEFF]
        values = [row[j].conjugate() for j in kept]
        total = _norm_squared(values)
        if not abs(total - 1.0) <= _COEFF_NORM_TOL:
            raise NotUnitary(
                f"row {i + 1} has squared norm {total}, which is not within "
                f"{_COEFF_NORM_TOL:g} of 1, so it cannot be recorded as one exposure"
            )
        rows.append((modes.position(partner), [signal_positions[j] for j in kept], values,
                     index_modulation, 0.0))
    return Hologram(_FringeTable(modes.universe, rows), label=label)


def compile_redirection(
    modes: ModeSet,
    *,
    index_modulation: float = DEFAULT_INDEX_MODULATION,
    label: str = "redirection",
) -> Hologram:
    """Hologram mapping each reference wave back onto its signal partner."""
    rows = [(modes.position(signal), [modes.position(reference)], [1.0 + 0.0j],
             index_modulation, 0.0) for signal, reference in zip(modes.signals, modes.references)]
    return Hologram(_FringeTable(modes.universe, rows), label=label)


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
    # Also when every column is an identity column.
    _require_real(index_modulation, ValueError, "index modulation")

    def grating(target, source, value, phase, label):  # replaying `source` gives `target`
        fringe = modes.position(target), [modes.position(source)], [value], index_modulation, phase
        return Hologram(_FringeTable(modes.universe, [fringe]), label=label)

    holograms: list[Hologram] = []
    returns: list[int] = []
    for row, col, entry in entries:
        if row == col and abs(entry - 1.0) <= 1e-12:
            continue  # identity column: passes through undiffracted
        holograms.append(grating(modes.references[row], modes.signals[col], np.conj(entry), 0.0,
                                 f"forward S{col + 1}->R{row + 1}"))
        returns.append(row)
    for row in sorted(returns):
        holograms.append(grating(modes.signals[row], modes.references[row], 1.0, math.pi,
                                 f"return R{row + 1}->S{row + 1}"))
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


def _smallest_grating_vector(modes: ModeSet, tables: list[_FringeTable]) -> float:
    """Smallest |k_component - k_partner| over every recorded fringe; inf if none.

    The row norms of one (P, 3) difference array may differ from a
    per-row `np.linalg.norm` in the last bit, so that exact norm is taken
    again on the rows within 1e-12 relative of the smallest row norm.
    """
    if not tables:
        return math.inf
    positions = [t.positions(modes) for t in tables]
    components = np.concatenate([at[t.component] for t, at in zip(tables, positions)])
    partners = np.concatenate([at[t.partner] for t, at in zip(tables, positions)])
    differences = modes.wave_vectors[components] - modes.wave_vectors[partners]
    approximate = np.sqrt(np.einsum("ij,ij->i", differences, differences))
    near = np.flatnonzero(approximate <= approximate.min() * (1.0 + 1e-12))
    return min(float(np.linalg.norm(differences[i])) for i in near)


def feasibility_report(stack: GratingStack, material: MaterialSpec) -> FeasibilityReport:
    """Thickness, Bragg-regime, and selectivity budget for a plan."""
    geometry = stack.mode_set.geometry
    tables = [h._fringes for h in stack.holograms]
    recordings = sum(len(t.delta_n) for t in tables)
    required = recordings * material.meters_per_recording
    per_dimension = geometry.dimension * material.meters_per_recording

    modulation_ok = all((t.delta_n <= material.max_index_modulation).all() for t in tables)
    smallest_k = _smallest_grating_vector(stack.mode_set, tables)
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
