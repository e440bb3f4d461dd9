"""Coupled-mode diffraction engine for multiplexed volume gratings.

Model: lossless transmission geometry with slowly varying amplitudes
a_n(z) evolving through the slab as

    da_n/dz = i * sum_m kappa_nm * exp(i xi_nm z) * a_m,

where kappa is Hermitian and xi (the per-pair z phase-mismatch rate) is
antisymmetric.  A fringe recorded between a superposition component m
(complex coefficient c, exposure fringe shift phi) and a partner wave p
contributes

    kappa[m, p] = kappa0 * |c| * exp(i (arg c + phi)),
    kappa0      = pi * delta_n / (lambda * sqrt(cos(theta_p) cos(theta_m))),

with the conjugate entry filling kappa[p, m].  On a phase-matched pair
(xi = 0) the transfer is exp(i d K): diagonal cos(kappa0 d) and
off-diagonal i sin(kappa0 d), so a slab of thickness pi/(2 kappa0) moves
all power across with a phase factor i.  For a multiplexed hologram
whose exposures encode the orthonormal rows of a unitary U with uniform
strength, the same algebra gives the block form cos(kappa0 d) * I on
each cone and i sin(kappa0 d) * U from signal to reference.

A coupling is held once, as the dense kappa, xi and recorded-mask
arrays.  An input tilt changes only the tilted modes' k_z, and every
detuning is the z component of k_a - k_b - grating, so a tilt is an
exact per-mode potential: it adds shift_a - shift_b to xi_ab, with
shift_n the tilted mode's change in k_z.

Every slab goes through one propagator, `_slab_transfers`, by one of
two routes chosen from the couplings alone.  When the detunings of every
coupled pair come from a per-mode potential, xi_nm = d_n - d_m (so on
recorded fringes, tilted or not, up to rounding, since a recorded grating
is k_m - k_p), the substitution a = exp(i D z) b makes the equations
constant-coefficient and the slab transfer is exactly
exp(i D d) expm(i d (K - D)), or exp(i d K) on a phase-matched slab:
Kogelnik's closed form taken to N waves, one `eigh` per slab (one stacked
`eigh` for all of a sweep batch's tilts on that slab).  Otherwise
(parasitic fringes whose mismatches no potential explains) a fixed-step
RK4 integrates the equations.

Free propagation between stacked slabs multiplies each cone by a common
phase exp(i k_z dz); that per-cone constant is normalized to zero here
(physically: absorbed into the recording alignment of the next element),
so stack transfers compose as plain matrix products, in one loop for
every stack and sweep.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .compiler import GratingStack, Hologram, MaterialSpec, unitarity_defect
from .errors import NonuniformCoupling, StepUnderflow, UnknownMode
from .modes import ModeSet, PlaneWaveMode, TWO_PI, _require_real, wave_vector

#: Minimum RK4 step count per slab.
_MIN_STEPS = 1000
#: Steps per full cycle of the fastest phase rotation in the system.
_STEPS_PER_CYCLE = 80.0
_MAX_STEPS = 20_000_000
#: Largest potential residual max|xi_nm - (d_n - d_m)| times thickness, in
#: radians, for which a slab takes the exact rotating-frame route; RK4 is
#: only accurate to about this much anyway.
_POTENTIAL_TOL = 1e-9
#: Largest ||T^H T - I||_F of an exact-route transfer (about 1e-14 seen) and
#: per RK4 step: RK4's power error x^6/72 at x = 2 pi / `_STEPS_PER_CYCLE`,
#: the step bound's fastest rotation per step (crosstalk slabs: <= 1.6e-12).
_UNITARITY_TOL = 1e-9
_UNITARITY_TOL_PER_STEP = (TWO_PI / _STEPS_PER_CYCLE) ** 6 / 72.0
#: Bytes of phase values `_integrate` holds at once: 16 per complex value,
#: three per step and coupled entry, in one array formed in place.  The
#: broadcasts that form it take numpy buffers of up to that size for the
#: length of one call.
_PHASE_BUDGET_BYTES = 128 * 1024
#: Bytes of the n x n complex transfers of a batch of tilts `selectivity_sweep` runs at once.
#: A slab's stacked exact route holds about eight arrays of that size while it runs.
_BATCH_BYTES = 4 * 1024 * 1024
#: Most tilt samples `selectivity_sweep` takes.  Each one propagates the
#: whole stack, so far larger counts would run for hours or fail to allocate.
MAX_SAMPLES = 100_000


@dataclass(frozen=True)
class CouplingSystem:
    """All couplings one hologram induces on the 2N-mode universe.

    `merged_replays` counts parasitic replays added to a recorded pair's
    coupling: gratings within 2*pi/D that the aperture cannot resolve.
    """

    modes: tuple[PlaneWaveMode, ...]
    kappa: np.ndarray
    xi: np.ndarray
    recorded_mask: np.ndarray
    exposure_strengths: tuple[float, ...]
    merged_replays: int = 0

    def __post_init__(self):
        kappa = np.asarray(self.kappa, dtype=complex)
        xi = np.asarray(self.xi, dtype=float)
        n = len(self.modes)
        if kappa.shape != (n, n) or xi.shape != (n, n):
            raise ValueError("kappa and xi must be square over the mode universe")
        if not (np.isfinite(kappa).all() and np.isfinite(xi).all()):
            raise ValueError("kappa and xi must be finite")
        if np.abs(kappa - kappa.conj().T).max(initial=0.0) > 1e-12:
            raise ValueError("kappa must be Hermitian")
        if np.abs(xi + xi.T).max(initial=0.0) > 1e-9:
            raise ValueError("xi must be antisymmetric")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "recorded_mask", np.asarray(self.recorded_mask, dtype=bool))


@dataclass(frozen=True)
class TransferResult:
    """Realized transfer matrix over a mode universe.

    `per_mode_efficiency[j]` is the largest single-output-mode power
    fraction for unit input in universe mode j.  `merged_replays` sums the
    slabs' `CouplingSystem.merged_replays`.
    """

    transfer: np.ndarray
    thickness_used: float
    modes: tuple[PlaneWaveMode, ...]
    merged_replays: int = 0

    @property
    def per_mode_efficiency(self) -> tuple[float, ...]:
        power = np.abs(self.transfer) ** 2
        return tuple(float(p) for p in power.max(axis=0))

    def position(self, mode: PlaneWaveMode) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise UnknownMode(f"mode {mode} is not in this result's universe") from None


def _pair_strength(delta_n: float, wavelength: float, a: PlaneWaveMode, b: PlaneWaveMode) -> float:
    obliquity = math.sqrt(math.cos(a.cone_half_angle) * math.cos(b.cone_half_angle))
    return math.pi * delta_n / (wavelength * obliquity)


def _exposure_strengths(table, wavelength: float) -> tuple[np.ndarray, tuple[float, ...]]:
    """kappa0 of every fringe, taken once per exposure and cone pair, and the
    strength sqrt(sum (kappa0 |c|)^2) of every exposure, which
    `optimal_thickness` tunes against."""
    modes, delta_n = table.modes, table.delta_n.tolist()
    per_cone: dict[tuple[int, float], float] = {}
    kappa0, strength_sq = [], [0.0] * len(delta_n)
    for e, p, m, weight in zip(table.row.tolist(), table.partner.tolist(),
                               table.component.tolist(), table.weight.tolist()):
        key = (e, modes[m].cone_half_angle)
        if key not in per_cone:
            per_cone[key] = k0 = _pair_strength(delta_n[e], wavelength, modes[p], modes[m])
            # Squared below, where an overflow would raise OverflowError.
            if not math.isfinite(k0 * k0):
                raise ValueError(f"exposure modulation delta_n {delta_n[e]} gives coupling "
                                 f"strength {k0:.3g} per metre, beyond float range")
        kappa0.append(per_cone[key])
        strength_sq[e] += (kappa0[-1] * weight) ** 2
    return np.array(kappa0), tuple(math.sqrt(total) for total in strength_sq)


def _strengths(hologram: Hologram, modes: ModeSet, material: MaterialSpec | None):
    """`_exposure_strengths`, computed once per hologram and mode set.

    Raises ValueError for an exposure above the material's modulation
    ceiling or whose coupling strength squared overflows, and UnknownMode
    for a mode outside the set.
    """
    table = hologram._fringes
    ceiling = math.inf if material is None else material.max_index_modulation
    for delta_n in table.delta_n.tolist():
        if delta_n > ceiling:
            raise ValueError(f"exposure modulation {delta_n} exceeds material ceiling {ceiling}")
    table.positions(modes)  # raises UnknownMode outside the set
    wavelength = modes.geometry.wavelength
    return table.derived("strengths", modes, lambda: _exposure_strengths(table, wavelength))


def _near_pairs(transverse: np.ndarray, gratings: np.ndarray, bound: float, budget: int,
                order: np.ndarray | None = None):
    """Yield (grating, pair) index arrays of every offset shorter than bound.

    An offset is transverse[pair] - gratings[grating], and the test is
    ~(hypot >= bound), negated like the scalar confirm.  Only pairs whose x
    lies in [gx - bound, gx + bound] can pass, so the pairs are sorted by x
    and each grating's window is found by `searchsorted`.  Given `order`,
    `transverse` is already sorted and row i is pair order[i]'s offset, as
    in `ModeSet.pair_table`.  Hits come in (grating, pair) order, in blocks
    of gratings whose windows hold at most `budget` pairs together (or one
    grating's window if larger).
    """
    if order is None:
        order = transverse[:, 0].argsort()
        transverse = transverse[order]
    sorted_x, gx = transverse[:, 0], gratings[:, 0]
    starts = sorted_x.searchsorted(gx - bound, side="left")
    counts = sorted_x.searchsorted(gx + bound, side="right") - starts
    ends = counts.cumsum()
    # Window entry k of grating g sits at sorted position k + shift[g].
    shift = starts - ends + counts
    first = 0
    while first < len(gratings):
        filled = ends[first] - counts[first]
        last = max(first + 1, int(ends.searchsorted(filled + budget, side="right")))
        grating = np.arange(first, last).repeat(counts[first:last])
        index = np.arange(filled, ends[last - 1]) + shift[grating]
        offsets = transverse[index] - gratings[grating]
        near = ~(np.hypot(offsets[:, 0], offsets[:, 1]) >= bound)
        grating, pair = grating[near], order[index[near]]
        keep = np.lexsort((pair, grating))
        yield grating[keep], pair[keep]
        first = last


def _confirmed(modes: ModeSet, own: np.ndarray, gratings: np.ndarray, budget: int):
    """Yield (fringe, pair, detuning) array blocks: each fringe's replays by other pairs.

    Fringe i records pair own[i] = m * 2N + p, whose grating k_m - k_p is
    gratings[i].  Candidates come from `_near_pairs` on the pair table, with a
    1e-9 relative slack on the tolerance so that no pair the scalar test
    accepts is missed; one mask per block drops each fringe's own pair and the
    a == b pairs.  A candidate replays the fringe unless math.hypot of the
    transverse part of k_a - k_b - grating is >= 2*pi/D; the z part is the
    replay's detuning.  Entries come in (fringe, pair) order.
    """
    tol = TWO_PI / modes.geometry.aperture_breadth
    vectors = modes.wave_vectors
    n = len(vectors)
    table, order = modes.pair_table
    for fringe, pair in _near_pairs(table, gratings[:, :2], tol * (1.0 + 1e-9), budget, order):
        other = (pair != own[fringe]) & (pair % (n + 1) != 0)  # a == b: ab = a * (n + 1)
        fringe, pair = fringe[other], pair[other]
        a, b = np.divmod(pair, n)
        offset = vectors[a] - vectors[b] - gratings[fringe]
        near = ~(np.fromiter(map(math.hypot, offset[:, 0].tolist(), offset[:, 1].tolist()),
                             float, len(pair)) >= tol)
        yield fringe[near], pair[near], offset[near, 2]


def _replays(modes: ModeSet, m: np.ndarray, p: np.ndarray, budget: int):
    """`_confirmed`'s blocks for the fringes on pairs (m, p), read from the mode
    set's replay table; pairs it lacks are searched and kept first.  A search
    that would take the table past its limit keeps nothing, and the build
    reads a search of all its pairs instead."""
    kept, own = modes._replays, m * len(modes.universe) + p
    fresh = kept.start[own] < 0
    if fresh.any():
        gratings = modes.wave_vectors[m] - modes.wave_vectors[p]
        new, found, room = own[fresh], [], kept.limit - len(kept.pair)
        for block in _confirmed(modes, new, gratings[fresh], budget):
            room -= len(block[0])
            if room < 0:
                return _confirmed(modes, own, gratings, budget)
            found.append(block)
        kept.add(new, found)
        if fresh.all():
            return found
    return (kept.take(own),)


def build_coupling(
    hologram: Hologram,
    modes: ModeSet,
    material: MaterialSpec | None = None,
) -> CouplingSystem:
    """Coupling and detuning matrices induced by one hologram.

    Every exposure fringe couples its recorded pair with zero detuning.
    The same fringe also couples any other universe pair whose transverse
    wave-vector difference matches the grating vector to within one
    aperture resolution element (2*pi/D); those parasitic couplings carry
    the z mismatch as a detuning rate and act only when crosstalk is
    requested.

    A fringe's replays depend only on the pair it records, so the mode set
    keeps them, up to (2N)**2 per set: the window search and scalar confirm
    (`_confirmed`) run only for pairs no earlier build on the set asked for,
    and a build whose pairs are all kept searches nothing.  The replays are
    added in exposure, component, row-major (a, b) order, the order of an
    exhaustive scan over all pairs, so every merge, dropped degenerate
    fringe and float sum, and so the result, is bit-for-bit that scan's,
    whichever builds ran on the set before.  The triage reads plain Python
    values; only kept replays write arrays.

    The system is computed once per hologram and mode set and kept, read-only,
    with the fringe table; the `_strengths` checks run on every call.
    """
    kappa0, strengths = _strengths(hologram, modes, material)
    table = hologram._fringes
    return table.derived("coupling", modes, lambda: _coupling(table, modes, kappa0, strengths))


def _coupling(table, modes: ModeSet, kappa0: np.ndarray, strengths) -> CouplingSystem:
    wavelength = modes.geometry.wavelength
    universe = modes.universe
    n = len(universe)

    positions = table.positions(modes)
    m, p = positions[table.component], positions[table.partner]
    # The fringe phase factor exp(i (arg c + phi)), which every replay shares.
    phasor = np.exp(1j * (np.angle(table.coefficient) + table.phase[table.row]))

    # Pass 1: the recorded pairs, phase matched by construction, one fringe
    # per orientation of a pair at most.  Adding into zeros, never assigning,
    # turns a -0.0 part (the conjugate of a real coupling has one) into +0.0.
    kappa = np.zeros((n, n), dtype=complex)
    value = kappa0 * table.weight * phasor
    kappa[m, p] += value
    kappa[p, m] += value.conj()
    recorded = np.zeros((n, n), dtype=bool)
    recorded[m, p] = recorded[p, m] = True
    # The first fringe on a pair sets xi[m, p] = 0.0 and xi[p, m] = -0.0; a
    # later one on it, in the reverse orientation, sets nothing.
    fringe = np.arange(len(m))
    owner = np.full((n, n), len(m))
    owner[m, p] = fringe
    first = owner[p, m] > fringe
    xi = np.zeros((n, n))
    xi[p[first], m[first]] = -0.0

    # Pass 2: parasitic replays of each fringe by other, nearly matched pairs,
    # from the mode set's replay table.
    # A tiny aperture widens every window to all n**2 pairs; blocks of half
    # of one exposure's C * n**2 offsets then keep the search's memory small.
    budget = n * n // 2 * max(b - a for a, b in zip(table.bounds, table.bounds[1:]))
    rows, weight, delta_n = table.row.tolist(), table.weight.tolist(), table.delta_n.tolist()
    # At most one detuning per unordered pair: later replays merge into the
    # first.  The triage reads plain Python values and writes numpy only for
    # kept replays.  Recorded pairs are marked in `recorded` (detuning +-0.0);
    # a parasitic pair's pairedness and detuning live only in `detunings`.
    is_recorded, detunings, merged = recorded.tolist(), {}, 0
    for fringes, pairs, mismatches in _replays(modes, m, p, budget):
        for g, ab, detuning in zip(fringes.tolist(), pairs.tolist(), mismatches.tolist()):
            a, b = divmod(ab, n)
            recorded_pair = is_recorded[a][b]
            known = 0.0 if recorded_pair else detunings.get(ab)
            if known is None:  # a new parasitic pair
                detunings[ab], detunings[b * n + a] = detuning, -detuning
                xi[a, b], xi[b, a] = detuning, -detuning
            elif abs(known - detuning) > 1e-6:
                # Two fringes drive this pair at different mismatch rates (a
                # degeneracy of symmetric cone layouts: a grating can weakly
                # address the antipodal recorded pair).  The better-matched
                # fringe dominates the exchange by a factor kappa/xi, so this
                # replay is dropped, before its strength is taken; per-pair
                # multi-fringe phases are outside this matrix-form model.
                continue
            merged += recorded_pair
            strength = _pair_strength(delta_n[rows[g]], wavelength, universe[a], universe[b])
            value = strength * weight[g] * phasor[g]
            kappa[a, b] += value
            kappa[b, a] += np.conj(value)

    for array in (kappa, xi, recorded):
        array.flags.writeable = False
    return CouplingSystem(
        modes=universe,
        kappa=kappa,
        xi=xi,
        recorded_mask=recorded,
        exposure_strengths=strengths,
        merged_replays=merged,
    )


def _tuned_thickness(strengths: tuple[float, ...]) -> float:
    if not strengths:
        raise NonuniformCoupling("system has no exposures to tune")
    top = max(strengths)
    if top <= 0.0:
        raise NonuniformCoupling("exposure strengths are all zero")
    if (top - min(strengths)) / top > 1e-9:
        raise NonuniformCoupling(
            f"exposure strengths vary from {min(strengths)} to {top}; "
            "tune only uniformly coupled holograms"
        )
    return math.pi / (2.0 * top)


def optimal_thickness(system: CouplingSystem) -> float:
    """Slab depth pi/(2 kappa0) at which every exposure transfers fully."""
    return _tuned_thickness(system.exposure_strengths)


def _hermitian_exp(matrix: np.ndarray, thickness: float) -> np.ndarray:
    """expm(i thickness matrix) of a Hermitian matrix, or of each slice of a
    (B, n, n) stack, by one eigh.  eigh and matmul run LAPACK and BLAS on each
    slice as on a 2-D call, so a slice holds that call's bytes."""
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    phases = np.exp(1j * thickness * eigenvalues)[..., None, :]
    return (eigenvectors * phases) @ eigenvectors.conj().swapaxes(-1, -2)


def _tilt_shift(modes: tuple, tilt: float, tilt_mode: PlaneWaveMode | None) -> np.ndarray | None:
    """k_z(tilted) - k_z(untilted) of each mode, or None when `tilt` is 0; every
    mode tilts when `tilt_mode` is None.  Only a mode of `tilt_mode`'s index
    is compared with it in full."""
    if tilt == 0.0:
        return None
    shift = np.zeros(len(modes))
    index = getattr(tilt_mode, "index", None)
    for n, mode in enumerate(modes):
        if tilt_mode is None or mode.index == index and mode == tilt_mode:
            tilted = replace(mode, cone_half_angle=mode.cone_half_angle + tilt)
            shift[n] = wave_vector(tilted)[2] - wave_vector(mode)[2]
    return shift


def _select_system(
    system: CouplingSystem, include_crosstalk: bool, shift: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """kappa and xi restricted to the requested couplings, a tilt applied.

    A tilt is its `_tilt_shift`, which adds shift_a - shift_b to xi_ab.  A
    (B, n) stack of shifts gives a (B, n, n) stack of detunings, in one
    broadcast; kappa, which no tilt changes, stays (n, n).
    """
    xi = system.xi if shift is None else (
        system.xi + (shift[..., :, None] - shift[..., None, :]))
    mask = system.recorded_mask if not include_crosstalk else (
        system.recorded_mask | (system.kappa != 0.0)
    )
    return np.where(mask, system.kappa, 0.0), np.where(mask, xi, 0.0)


def _potential(kappa: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, float | list]:
    """Per-mode potential d fitting xi_nm = d_n - d_m, and its worst residual.

    d is fixed by a spanning-tree walk over the coupled pairs (kappa != 0),
    with d = 0 at the first mode of each connected component; the residual
    is max |xi_nm - (d_n - d_m)| over every coupled pair, so it is zero
    exactly when a potential explains all the detunings that act.  When no
    selected detuning is nonzero (every untilted slab without crosstalk) the
    walk would give +0.0 everywhere, so zeros are returned without it.  A
    (B, n, n) stack of detunings gives (B, n) potentials and a list of B
    residuals from one walk, since the tree depends on kappa alone.
    """
    if not xi.any():
        return np.zeros(xi.shape[:-1]), np.zeros(xi.shape[:-2]).tolist()
    rows, cols = np.nonzero(kappa)
    potential = _walk(kappa.shape[0], rows.tolist(), cols.tolist(), xi[..., cols, rows])
    misfit = np.abs(xi[..., rows, cols] - (potential[..., rows] - potential[..., cols]))
    return potential, misfit.max(axis=-1, initial=0.0).tolist()


def _walk(n: int, rows: list, cols: list, rates) -> np.ndarray:
    """`_potential`'s walk over the coupled pairs (rows[i], cols[i]), row-major,
    rates[..., i] being xi[..., cols[i], rows[i]] of one slab or of each slice
    of a stack.  Last in, first out, and unreached neighbours in ascending
    order: the tree of a per-mode `np.flatnonzero` walk.  The tree is walked
    once; each edge adds every slice's rate to its potentials.
    """
    rates = np.asarray(rates)
    slices = rates.reshape(math.prod(rates.shape[:-1]), -1).tolist()
    potentials = [[0.0] * n for _ in slices]
    neighbours = [[] for _ in range(n)]
    for pair, (m, k) in enumerate(zip(rows, cols)):
        neighbours[m].append((k, pair))
    reached = [False] * n
    for root in range(n):
        if reached[root]:
            continue
        reached[root] = True
        frontier = [root]
        while frontier:
            m = frontier.pop()
            for k, pair in neighbours[m]:
                if not reached[k]:
                    for potential, slice_rates in zip(potentials, slices):
                        potential[k] = potential[m] + slice_rates[pair]
                    reached[k] = True
                    frontier.append(k)
    return np.array(potentials).reshape(*rates.shape[:-1], n)


def _step_count(kappa: np.ndarray, xi: np.ndarray, thickness: float):
    """RK4 steps resolving the coupling beat and the fastest detuning phase.

    At least `_MIN_STEPS`, and `_STEPS_PER_CYCLE` per radian-cycle of
    max|xi| + 2 max|kappa|.  Raises StepUnderflow above `_MAX_STEPS`, or
    when thickness times that rate is not finite.  A (B, n, n) stack of
    detunings takes one max per slice and gives an iterator over the
    slices' counts, which raises at the first slice that fails.
    """
    rates = np.abs(xi).max(axis=(-2, -1), initial=0.0) + 2.0 * np.abs(kappa).max(initial=0.0)
    counts = _counts(rates.tolist() if xi.ndim == 3 else [float(rates)], thickness)
    return counts if xi.ndim == 3 else next(counts)


def _counts(rates: list, thickness: float):
    """`_step_count`'s count for each rate, raising at the first that fails."""
    for rate in rates:
        if not math.isfinite(thickness * rate):
            raise StepUnderflow(f"step bound overflows at thickness {thickness}")
        steps = max(_MIN_STEPS, math.ceil(thickness * rate * _STEPS_PER_CYCLE / TWO_PI))
        if steps > _MAX_STEPS:
            raise StepUnderflow(
                f"step bound needs {steps} integrator steps; system is too stiff"
            )
        yield steps


def _integrate(kappa: np.ndarray, xi: np.ndarray, thickness: float, steps: int) -> np.ndarray:
    """Classical fixed-step RK4 on the full propagator across the slab.

    One (n, n) slab, or a (B, n, n) stack of slabs with the same coupled
    entries (kappa != 0).  kappa * exp(i xi z) is formed only on those, at
    the start, midpoint and end of each step, by one exp per chunk of
    steps whose phase values fit `_PHASE_BUDGET_BYTES`; the midpoint
    matrix serves both k2 and k3.  Each coupled entry gets the same
    floating-point operations as in a dense RK4 loop that evaluates the
    coupling matrix at every stage, and an uncoupled entry there adds
    only a signed zero to a propagator whose zeros stay +0, so each slice
    of the result is bit-identical to that loop run on it alone.

    Built couplings come in conjugate pairs, so most phases need no exp of
    their own.  Entry (b, a) of a coupled (a, b), a < b, is a mirror when
    kappa_ba == conj(kappa_ab) and xi_ba == -xi_ab hold by value in every
    slice.  Its argument i xi_ba z is then -(i xi_ab z) but for the signs of
    zeros, the exp of which is the conjugate bit for bit (sin is odd, and a
    zero real part exponentiates to exactly 1), and conj(kappa) * conj(p)
    rounds to conj(kappa * p), so a mirror's value is one conjugate of its
    partner's.  A partner whose detuning is 0 in every slice takes no exp
    either: exp(+-0 +- 0j) is exactly 1 +- 0j, and its argument already
    holds that imaginary zero, so only the real part is set.  Every other
    coupled entry, a pair conjugate only to within `CouplingSystem`'s
    tolerances included, takes its own exp.  Where a mirror's value differs
    from the dense loop's, it differs in the sign of a zero (a real kappa
    stored as x - 0j, or a zero argument), and such a sign reaches only
    zeros, which adding to the propagator erases.

    A step is 17 numpy calls: a scatter, 4 products and 12 elementwise
    calls, written with out= into buffers made once per call.  The stage
    i (M @ Y) is kept as M @ Y and i joins the real step, as (i half) * x
    and (i sixth) * (x1 + 2 x2 + 2 x3 + x4): times i only swaps and
    negates parts, and rounding is symmetric in sign.  2 x is x + x, as
    exact as 2.0 * x, and three in-place adds sum ((x1 + 2 x2) + 2 x3) + x4
    as the loop does.  np.dot (a slab) and matmul (a stack) call the same
    zgemm, and the 0-d complex128 factors hold the Python scalars' values.
    Folding i and x + x change at most the sign of a zero, which adding
    to the propagator erases.
    """
    h = thickness / steps
    n = kappa.shape[-1]
    kappas, xis = np.reshape(kappa, (-1, n * n)), np.reshape(xi, (-1, n * n))
    # Coupled entries in three runs: those that take an exp, partners whose
    # detuning is 0 in every slice, then the mirrors of the partners in order.
    coupled = kappas[0] != 0.0
    transposed = np.arange(n * n).reshape(n, n).T.ravel()
    mirror = (np.tri(n, k=-1, dtype=bool).ravel() & coupled
              & (kappas == kappas[:, transposed].conj()).all(axis=0)
              & (xis == -xis[:, transposed]).all(axis=0))
    mirrors = np.flatnonzero(mirror)
    still = (xis[:, mirrors] == 0.0).all(axis=0)
    mirrors = np.concatenate([mirrors[~still], mirrors[still]])
    alone = np.flatnonzero(coupled & ~mirror & ~mirror[transposed])
    order = np.concatenate([alone, transposed[mirrors], mirrors])
    own = order.size - mirrors.size
    exps = own - np.count_nonzero(still)
    coupling, rate = kappas[:, order[:own]], 1j * xis[:, order[:own]]
    chunk = max(1, _PHASE_BUDGET_BYTES // (3 * 16 * max(len(kappas) * order.size, 1)))
    # The coupling matrices at a step's start, midpoint and end.
    matrices = np.zeros((3, *kappa.shape), dtype=complex)
    start, middle, end = matrices
    entries = matrices.reshape(-1)
    targets = (np.arange(3 * len(kappas))[:, None] * (n * n) + order).ravel()
    half = 0.5 * h
    ihalf, ih, isixth = (np.array(1j * factor) for factor in (half, h, h / 6.0))
    propagator = np.broadcast_to(np.eye(n, dtype=complex), kappa.shape).copy()
    # The products M @ Y of stages 1-4, and the input Y + c x of stages 2-4.
    stages = np.empty((4, *kappa.shape), dtype=complex)
    x1, x2, x3, x4 = stages
    doubled, buffer = stages[1:3], np.empty_like(propagator)
    product = np.dot if kappa.ndim == 2 else np.matmul
    multiply, add = np.multiply, np.add
    # One chunk's phase values, formed in place chunk after chunk.
    phases = np.empty((min(chunk, steps), 3, len(kappas), order.size), dtype=complex)
    for first in range(0, steps, chunk):
        z = np.arange(first, min(first + chunk, steps)) * h
        nodes = np.stack([z, z + half, z + h], axis=1)
        values = phases[:z.size]
        direct = values[..., :own]
        multiply(rate, nodes[..., None, None], direct)
        np.exp(values[..., :exps], out=values[..., :exps])
        values[..., exps:own].real = 1.0
        # kappa stays the left operand: numpy's complex multiply may fuse a
        # multiply-add, so phase * kappa can differ from it in the last bit.
        multiply(coupling, direct, direct)
        np.conjugate(values[..., alone.size:own], out=values[..., own:])
        for step_values in values.reshape(z.size, -1):
            entries[targets] = step_values
            product(start, propagator, x1)
            multiply(ihalf, x1, buffer)
            add(propagator, buffer, buffer)
            product(middle, buffer, x2)
            multiply(ihalf, x2, buffer)
            add(propagator, buffer, buffer)
            product(middle, buffer, x3)
            multiply(ih, x3, buffer)
            add(propagator, buffer, buffer)
            product(end, buffer, x4)
            add(doubled, doubled, doubled)
            add(x1, x2, x1)
            add(x1, x3, x1)
            add(x1, x4, x1)
            multiply(isixth, x1, x1)
            add(propagator, x1, propagator)
    return propagator


def _slab_transfers(
    system: CouplingSystem, thickness: float, include_crosstalk: bool,
    shifts: list[np.ndarray | None],
) -> tuple[list[np.ndarray], Exception | None]:
    """`detuned_transfer`'s transfers at each tilt's `_tilt_shift` before the
    first that fails, and that failure (or None).

    Every shift is routed first, then each route runs once: the exact-route
    shifts as one stacked `_hermitian_exp`, the RK4-route shifts of one step
    count as one stacked `_integrate`.  An untilted shift among tilted ones
    is a zero shift, which can turn a -0.0 detuning into +0.0; neither route
    reads the sign of a zero detuning.
    """
    n = len(system.modes)
    untilted = all(shift is None for shift in shifts)
    kappa, xi = _select_system(system, include_crosstalk, None if untilted else np.array(
        [np.zeros(n) if shift is None else shift for shift in shifts]))
    if untilted:
        xi = xi[None].repeat(len(shifts), axis=0)
    counts, error = [], None
    try:
        for steps in _step_count(kappa, xi, thickness):
            counts.append(steps)
    except (ArithmeticError, RuntimeError, ValueError) as failure:
        error = failure  # kept for the caller to raise in its own order
    xi = xi[:len(counts)]
    potential, residuals = _potential(kappa, xi)
    exact = [index for index, residual in enumerate(residuals)
             if residual * thickness <= _POTENTIAL_TOL]
    routed = [None] * len(counts)
    if exact:
        phases = potential[exact]
        diagonal = np.zeros((len(exact), n, n))
        diagonal.reshape(len(exact), n * n)[:, ::n + 1] = phases
        try:
            stack = np.exp(1j * thickness * phases)[..., None] * _hermitian_exp(
                kappa - diagonal, thickness)
        except (ArithmeticError, RuntimeError, ValueError) as failure:
            # eigh fails only on input that is not finite, which an exact
            # residual rules out; a failure is taken to be the first shift's.
            error, routed, exact, stack = failure, routed[:exact[0]], [], []
        for index, transfer in zip(exact, stack):
            routed[index] = transfer, _UNITARITY_TOL
    stacks = {}
    for index, route in enumerate(routed):
        if route is None:
            stacks.setdefault(counts[index], []).append(index)
    for steps, at in stacks.items():
        # A lone slab stays 2-D, where np.dot costs less per call.
        stack = [_integrate(kappa, xi[at[0]], thickness, steps)] if len(at) == 1 else (
            _integrate(kappa[None].repeat(len(at), axis=0), xi[at], thickness, steps))
        for index, transfer in zip(at, stack):
            routed[index] = transfer, _UNITARITY_TOL_PER_STEP * steps
    transfers = [transfer for transfer, _ in routed]
    for index, (transfer, tolerance) in enumerate(routed):
        defect = unitarity_defect(transfer)
        if not defect <= tolerance:
            message = f"slab transfer is not unitary (Frobenius defect {defect:.2e})"
            return transfers[:index], FloatingPointError(message)
    return transfers, error


def detuned_transfer(
    system: CouplingSystem,
    thickness: float,
    *,
    include_crosstalk: bool = False,
    tilt: float = 0.0,
    tilt_mode: PlaneWaveMode | None = None,
) -> TransferResult:
    """Transfer of the z-dependent coupled equations across the slab.

    The one slab propagator.  Only the recorded, phase-matched couplings
    act unless `include_crosstalk` adds the parasitic ones.  `tilt` shifts
    the polar angle of `tilt_mode` (or of every mode when None); its change
    in each tilted mode's k_z is added to the detunings as an exact
    per-mode potential.
    When a per-mode potential d explains the detunings of every coupled
    pair to within `_POTENTIAL_TOL` radians over the slab (recorded
    fringes always fit one, up to rounding), the transfer is the exact
    rotating-frame form diag(exp(i d_n thickness)) expm(i thickness
    (kappa - diag(d))) from one eigh.  Otherwise fixed-step RK4 integrates
    the equations.  Either way the RK4 step bound is checked first, so a
    system too stiff to integrate (or whose phases exp(i d_n thickness)
    would carry no accurate digits) raises StepUnderflow, and a transfer
    whose ||T^H T - I||_F exceeds its route's bound raises FloatingPointError.
    """
    _require_real(thickness, ValueError, "thickness")
    _require_real(tilt, ValueError, "tilt", -math.inf, rule="be finite")
    shift = _tilt_shift(system.modes, tilt, tilt_mode)
    slabs, error = _slab_transfers(system, thickness, include_crosstalk, [shift])
    if error is not None:
        raise error
    return TransferResult(transfer=slabs[0], thickness_used=thickness, modes=system.modes,
                          merged_replays=system.merged_replays)


def tune_stack(stack: GratingStack, material: MaterialSpec | None = None) -> GratingStack:
    """Assign each hologram its optimal thickness (existing values kept).

    Only the exposure strengths are needed, so no coupling is built here.
    """
    tuned = []
    for hologram in stack.holograms:
        if hologram.thickness is None:
            _, strengths = _strengths(hologram, stack.mode_set, material)
            hologram = hologram.with_thickness(_tuned_thickness(strengths))
        tuned.append(hologram)
    return GratingStack(holograms=tuple(tuned), mode_set=stack.mode_set)


def _stack_transfers(slabs, size: int, include_crosstalk: bool, shifts: list) -> list[np.ndarray]:
    """Ordered product of the (system, thickness) slabs' transfers at each shift.
    Later slabs run only the shifts before a failure, and none is read once no
    shift is left, so the failure raised is the first a shift-major loop meets."""
    transfers, failure = [np.eye(size, dtype=complex)] * len(shifts), None
    for system, thickness in slabs:
        layer, error = _slab_transfers(system, thickness, include_crosstalk, shifts)
        transfers = [step @ transfer for step, transfer in zip(layer, transfers)]
        if error is not None:
            failure, shifts = error, shifts[:len(layer)]
            if not shifts:
                break
    if failure is not None:
        raise failure
    return transfers


def simulate_stack(
    stack: GratingStack,
    material: MaterialSpec | None = None,
    *,
    include_crosstalk: bool = False,
) -> TransferResult:
    """Transfer of the stack, its slabs built and run in light order.

    `_stack_transfers` propagates each slab by `_slab_transfers`, the route
    `detuned_transfer` takes, and multiplies the transfers in that order.
    Every hologram must carry a thickness (see `tune_stack`).  Inter-slab
    propagation phases are normalized away as described in the module
    docstring.  `include_crosstalk` is passed to every slab, each built and
    run before the next hologram is checked.
    """
    systems = []

    def slabs():
        for hologram in stack.holograms:
            if hologram.thickness is None:
                raise ValueError(
                    f"hologram {hologram.label!r} has no thickness; tune the stack first"
                )
            systems.append(build_coupling(hologram, stack.mode_set, material))
            yield systems[-1], hologram.thickness

    universe = stack.mode_set.universe
    [transfer] = _stack_transfers(slabs(), len(universe), include_crosstalk, [None])
    total = sum((h.thickness for h in stack.holograms), 0.0)
    merged = sum(system.merged_replays for system in systems)
    return TransferResult(transfer=transfer, thickness_used=total, modes=universe,
                          merged_replays=merged)


def _dominant_input(hologram: Hologram, modes: ModeSet) -> PlaneWaveMode:
    """The first exposure's largest component, the first in universe order on a tie."""
    table = hologram._fringes
    stop = table.bounds[1]
    ranked = table.positions(modes)[table.component[:stop]].argsort()
    best = ranked[table.weight[:stop][ranked].argmax()]
    return table.modes[table.component[best]]


def selectivity_sweep(
    stack: GratingStack,
    material: MaterialSpec | None,
    tilt_range: float,
    samples: int,
    *,
    include_crosstalk: bool = False,
) -> list[tuple[float, float]]:
    """Efficiency into the designed output mode across input tilts.

    The input is the dominant component of the first exposure; the
    designed output mode is wherever the untilted, tuned stack sends the
    most power from it.  Rows are (tilt, efficiency), tilt ascending and
    equally spaced over [0, tilt_range].  Each slab runs a batch of tilts
    at once on both routes (see `_slab_transfers`); every row has the bits
    of a sweep that propagates one tilt at a time.
    """
    if not isinstance(samples, numbers.Integral):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 2:
        raise ValueError("a sweep needs at least 2 samples")
    if samples > MAX_SAMPLES:
        raise ValueError(f"a sweep takes at most {MAX_SAMPLES} samples, got {samples}")
    _require_real(tilt_range, ValueError, "tilt range", -math.inf, rule="be finite")
    if tilt_range <= 0.0:
        raise ValueError("tilt range must be positive")

    modes = stack.mode_set
    holograms = tune_stack(stack, material).holograms
    if not holograms:
        raise ValueError("cannot sweep an empty plan")
    source_mode = _dominant_input(holograms[0], modes)
    in_pos = modes.position(source_mode)
    if not source_mode.cone_half_angle + tilt_range < math.pi / 2:
        raise ValueError(
            f"tilt range {tilt_range} rad tilts the input mode to or past pi/2 "
            f"(its cone half angle is {source_mode.cone_half_angle} rad)"
        )

    slabs = [(build_coupling(h, modes, material), h.thickness) for h in holograms]
    size = len(modes.universe)
    tilts = np.linspace(0.0, tilt_range, samples).tolist()
    rows, batch = [], max(1, _BATCH_BYTES // (16 * size * size))
    for first in range(0, samples, batch):
        todo = tilts[first:first + batch]
        shifts = [_tilt_shift(modes.universe, t, source_mode) for t in todo]
        transfers = _stack_transfers(slabs, size, include_crosstalk, shifts)
        if first == 0:
            out_pos = int(np.argmax(np.abs(transfers[0][:, in_pos])))
        rows += [(t, float(abs(T[out_pos, in_pos]) ** 2)) for t, T in zip(todo, transfers)]
    return rows
