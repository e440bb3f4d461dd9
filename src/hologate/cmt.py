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
Kogelnik's closed form taken to N waves, one `eigh` per slab.  Otherwise
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
from dataclasses import dataclass, replace

import numpy as np

from .compiler import GratingStack, Hologram, MaterialSpec, unitarity_defect
from .errors import NonuniformCoupling, StepUnderflow, UnknownMode
from .modes import ModeSet, PlaneWaveMode, TWO_PI, wave_vector

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
#: three per step and coupled entry.
_PHASE_BUDGET_BYTES = 128 * 1024
#: Bytes of the n x n complex transfers of a batch of tilts `selectivity_sweep` runs at once.
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


def _near_pairs(transverse: np.ndarray, gratings: np.ndarray, bound: float, budget: int):
    """Yield (grating, pair) index arrays of every offset shorter than bound.

    An offset is transverse[pair] - gratings[grating], and the test is
    ~(hypot >= bound), negated like the scalar confirm.  Only pairs whose x
    lies in [gx - bound, gx + bound] can pass, so the pairs are sorted by x
    once and each grating's window is found by `searchsorted`.  Hits come
    in (grating, pair) order, in blocks of gratings whose windows hold at
    most `budget` pairs together (or one grating's window if larger).
    """
    order = transverse[:, 0].argsort()
    sorted_t = transverse[order]
    sorted_x, gx = sorted_t[:, 0], gratings[:, 0]
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
        offsets = sorted_t[index] - gratings[grating]
        near = ~(np.hypot(offsets[:, 0], offsets[:, 1]) >= bound)
        grating, pair = grating[near], order[index[near]]
        keep = np.lexsort((pair, grating))
        yield grating[keep], pair[keep]
        first = last


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

    Parasitic candidates come from one window search over the whole
    hologram (`_near_pairs`), with a 1e-9 relative slack on the tolerance
    so that no pair the scalar test accepts is missed.  Each is confirmed
    by the scalar test and added in exposure, component, row-major (a, b)
    order, the order of an exhaustive scan over all pairs, so every merge,
    dropped degenerate fringe and float sum, and so the result, is
    bit-for-bit that scan's.  The triage skips a fringe's own pair by its
    flat index and reads plain Python values; only kept replays write arrays.

    The system is computed once per hologram and mode set and kept, read-only,
    with the fringe table; the `_strengths` checks run on every call.
    """
    kappa0, strengths = _strengths(hologram, modes, material)
    table = hologram._fringes
    return table.derived("coupling", modes, lambda: _coupling(table, modes, kappa0, strengths))


def _coupling(table, modes: ModeSet, kappa0: np.ndarray, strengths) -> CouplingSystem:
    wavelength = modes.geometry.wavelength
    transverse_tol = TWO_PI / modes.geometry.aperture_breadth
    universe = modes.universe
    vectors = modes.wave_vectors
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

    # Pass 2: parasitic replays of each fringe by other, nearly matched pairs.
    gratings = vectors[m] - vectors[p]
    transverse = (vectors[:, None, :2] - vectors[None, :, :2]).reshape(n * n, 2)
    # A tiny aperture widens every window to all n**2 pairs; blocks of half
    # of one exposure's C * n**2 offsets then keep the search's memory small.
    budget = n * n // 2 * max(b - a for a, b in zip(table.bounds, table.bounds[1:]))
    candidate_bound = transverse_tol * (1.0 + 1e-9)
    search = _near_pairs(transverse, gratings[:, :2], candidate_bound, budget)
    vecs, grats, own = vectors.tolist(), gratings.tolist(), (m * n + p).tolist()
    rows, weight, delta_n = table.row.tolist(), table.weight.tolist(), table.delta_n.tolist()
    # At most one detuning per unordered pair: later replays merge into the
    # first.  The triage reads plain Python values and writes numpy only for
    # kept replays.  Recorded pairs are marked in `recorded` (detuning +-0.0);
    # a parasitic pair's pairedness and detuning live only in `detunings`.
    is_recorded, detunings, merged = recorded.tolist(), {}, 0
    for near_grating, near_pair in search:
        for g, ab in zip(near_grating.tolist(), near_pair.tolist()):
            if ab == own[g]:
                continue
            a, b = divmod(ab, n)
            if a == b:
                continue
            (ax, ay, az), (bx, by, bz), (gx, gy, gz) = vecs[a], vecs[b], grats[g]
            if math.hypot(ax - bx - gx, ay - by - gy) >= transverse_tol:
                continue
            detuning = az - bz - gz
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
    """expm(i thickness matrix) of a Hermitian matrix, by one eigh."""
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    return (eigenvectors * np.exp(1j * thickness * eigenvalues)) @ eigenvectors.conj().T


def _tilt_shift(modes: tuple, tilt: float, tilt_mode: PlaneWaveMode | None) -> np.ndarray | None:
    """k_z(tilted) - k_z(untilted) of each mode, or None when `tilt` is 0; every
    mode tilts when `tilt_mode` is None."""
    if tilt == 0.0:
        return None
    shift = np.zeros(len(modes))
    for n, mode in enumerate(modes):
        if tilt_mode is None or mode == tilt_mode:
            tilted = replace(mode, cone_half_angle=mode.cone_half_angle + tilt)
            shift[n] = wave_vector(tilted)[2] - wave_vector(mode)[2]
    return shift


def _select_system(
    system: CouplingSystem, include_crosstalk: bool, shift: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """kappa and xi restricted to the requested couplings, a tilt applied.

    A tilt is its `_tilt_shift`, which adds shift_a - shift_b to xi_ab.
    """
    xi = system.xi if shift is None else system.xi + (shift[:, None] - shift[None, :])
    mask = system.recorded_mask if not include_crosstalk else (
        system.recorded_mask | (system.kappa != 0.0)
    )
    return np.where(mask, system.kappa, 0.0), np.where(mask, xi, 0.0)


def _potential(kappa: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-mode potential d fitting xi_nm = d_n - d_m, and its worst residual.

    d is fixed by a spanning-tree walk over the coupled pairs (kappa != 0),
    with d = 0 at the first mode of each connected component; the residual
    is max |xi_nm - (d_n - d_m)| over every coupled pair, so it is zero
    exactly when a potential explains all the detunings that act.  When no
    coupled detuning is nonzero (every untilted slab without crosstalk) the
    walk would give +0.0 everywhere, so zeros are returned without it.
    """
    rows, cols = np.nonzero(kappa)
    if not xi[rows, cols].any():
        return np.zeros(kappa.shape[0]), 0.0
    potential = _walk(kappa.shape[0], rows.tolist(), cols.tolist(), xi[cols, rows].tolist())
    misfit = np.abs(xi - (potential[:, None] - potential[None, :]))[rows, cols]
    return potential, float(misfit.max(initial=0.0))


def _walk(n: int, rows: list, cols: list, rates: list) -> np.ndarray:
    """`_potential`'s walk over the coupled pairs (rows[i], cols[i]), row-major,
    rates[i] being xi[cols[i], rows[i]].  Last in, first out, and unreached
    neighbours in ascending order: the tree of a per-mode `np.flatnonzero` walk.
    """
    neighbours = [[] for _ in range(n)]
    for m, k, rate in zip(rows, cols, rates):
        neighbours[m].append((k, rate))
    potential, reached = [0.0] * n, [False] * n
    for root in range(n):
        if reached[root]:
            continue
        reached[root] = True
        frontier = [root]
        while frontier:
            m = frontier.pop()
            for k, rate in neighbours[m]:
                if not reached[k]:
                    potential[k] = potential[m] + rate
                    reached[k] = True
                    frontier.append(k)
    return np.array(potential)


def _step_count(kappa: np.ndarray, xi: np.ndarray, thickness: float) -> int:
    """RK4 steps resolving the coupling beat and the fastest detuning phase.

    At least `_MIN_STEPS`, and `_STEPS_PER_CYCLE` per radian-cycle of
    max|xi| + 2 max|kappa|.  Raises StepUnderflow above `_MAX_STEPS`, or
    when thickness times that rate is not finite.
    """
    rate = float(np.abs(xi).max(initial=0.0) + 2.0 * np.abs(kappa).max(initial=0.0))
    if not math.isfinite(thickness * rate):
        raise StepUnderflow(f"step bound overflows at thickness {thickness}")
    steps = max(_MIN_STEPS, math.ceil(thickness * rate * _STEPS_PER_CYCLE / TWO_PI))
    if steps > _MAX_STEPS:
        raise StepUnderflow(
            f"step bound needs {steps} integrator steps; system is too stiff"
        )
    return steps


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

    The loop's stage k_j = i (M @ Y) is kept as the bare product M @ Y, and
    i joins the real step instead: (i half) * x for half * (i x), and
    (i sixth) * (x1 + 2 x2 + 2 x3 + x4) for sixth * (i x1 + 2 i x2 + ...).
    Multiplying by i only swaps and negates the parts of x, and
    round-to-nearest is symmetric in sign, so both sides round the same
    real products and sums, fused multiply-add or not; they can differ
    only in the sign of a zero, which adding to the propagator erases.
    The products, the stage input and the running sum are written with
    out= into buffers made once per call, which changes no bits either.
    """
    h = thickness / steps
    n = kappa.shape[-1]
    kappas, xis = np.reshape(kappa, (-1, n * n)), np.reshape(xi, (-1, n * n))
    coupled = np.flatnonzero(kappas[0])
    coupling, rate = kappas[:, coupled], 1j * xis[:, coupled]
    chunk = max(1, _PHASE_BUDGET_BYTES // (3 * 16 * max(coupling.size, 1)))
    # The coupling matrices at a step's start, midpoint and end.
    matrices = np.zeros((3, *kappa.shape), dtype=complex)
    start, middle, end = matrices
    entries = matrices.reshape(-1)
    targets = (np.arange(3 * len(coupling))[:, None] * (n * n) + coupled).ravel()
    half, sixth = 0.5 * h, h / 6.0
    ihalf, ih, isixth = 1j * half, 1j * h, 1j * sixth
    propagator = np.broadcast_to(np.eye(n, dtype=complex), kappa.shape).copy()
    # The products M @ Y of stages 1-4 (the fourth reuses x2's buffer once
    # it is summed), and the input Y + c x of stages 2-4.
    x1, x2, x3, buffer = (np.empty_like(propagator) for _ in range(4))

    def stage(factor, product):
        np.multiply(factor, product, out=buffer)
        return np.add(propagator, buffer, out=buffer)

    for first in range(0, steps, chunk):
        z = np.arange(first, min(first + chunk, steps)) * h
        nodes = np.stack([z, z + half, z + h], axis=1)
        # kappa stays the left operand: numpy's complex multiply may fuse a
        # multiply-add, so phase * kappa can differ from it in the last bit.
        values = coupling * np.exp(rate * nodes[..., None, None])
        for step_values in values.reshape(z.size, -1):
            entries[targets] = step_values
            np.matmul(start, propagator, out=x1)
            np.matmul(middle, stage(ihalf, x1), out=x2)
            np.matmul(middle, stage(ihalf, x2), out=x3)
            np.multiply(2.0, x2, out=x2)
            np.add(x1, x2, out=x1)
            np.matmul(end, stage(ih, x3), out=x2)
            np.multiply(2.0, x3, out=x3)
            np.add(x1, x3, out=x1)
            np.add(x1, x2, out=x1)
            np.multiply(isixth, x1, out=x1)
            np.add(propagator, x1, out=propagator)
    return propagator


def _slab_transfers(
    system: CouplingSystem, thickness: float, include_crosstalk: bool,
    shifts: list[np.ndarray | None],
) -> tuple[list[np.ndarray], Exception | None]:
    """`detuned_transfer`'s transfers at each tilt's `_tilt_shift` before the
    first that fails, and that failure (or None).  The RK4-route tilts of one
    step count run as one stack."""
    routed, error, stacks = [], None, {}
    for shift in shifts:
        try:
            kappa, xi = _select_system(system, include_crosstalk, shift)
            steps = _step_count(kappa, xi, thickness)
            potential, residual = _potential(kappa, xi)
            if residual * thickness <= _POTENTIAL_TOL:
                exact = _hermitian_exp(kappa - np.diag(potential), thickness)
                routed.append((np.exp(1j * thickness * potential)[:, None] * exact, _UNITARITY_TOL))
            else:
                stacks.setdefault(steps, []).append((len(routed), kappa, xi))
                routed.append(None)
        except (ArithmeticError, RuntimeError, ValueError) as failure:
            error = failure  # kept for the caller to raise in its own order
            break
    for steps, group in stacks.items():
        at, kappas, xis = zip(*group)
        # A lone slab stays 2-D, where matmul costs less per call.
        stack = [_integrate(kappas[0], xis[0], thickness, steps)] if len(at) == 1 else (
            _integrate(np.stack(kappas), np.stack(xis), thickness, steps))
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
    if not 0.0 < thickness < math.inf:
        raise ValueError(f"thickness must be positive and finite, got {thickness}")
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
    """Ordered product of per-hologram `detuned_transfer`s.

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
    equally spaced over [0, tilt_range].
    """
    if samples < 2:
        raise ValueError("a sweep needs at least 2 samples")
    if samples > MAX_SAMPLES:
        raise ValueError(f"a sweep takes at most {MAX_SAMPLES} samples, got {samples}")
    if not math.isfinite(tilt_range):
        raise ValueError(f"tilt range must be finite, got {tilt_range}")
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
