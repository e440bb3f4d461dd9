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

Detuned slabs take one of two routes, chosen from the couplings alone.
When the detunings of every coupled pair come from a per-mode potential,
xi_nm = d_n - d_m (so on recorded fringes, tilted or not, up to
rounding, since a recorded grating is k_m - k_p), the substitution
a = exp(i D z) b makes the equations constant-coefficient and the slab
transfer is exactly
exp(i D d) expm(i d (K - D)): Kogelnik's closed form taken to N waves,
one `eigh` per slab.  Otherwise (parasitic fringes whose mismatches no
potential explains) a fixed-step RK4 integrates the equations.

Free propagation between stacked slabs multiplies each cone by a common
phase exp(i k_z dz); that per-cone constant is normalized to zero here
(physically: absorbed into the recording alignment of the next element),
so stack transfers compose as plain matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .compiler import GratingStack, Hologram, MaterialSpec
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


@dataclass(frozen=True)
class CouplingSystem:
    """All couplings one hologram induces on the 2N-mode universe."""

    modes: tuple[PlaneWaveMode, ...]
    kappa: np.ndarray
    xi: np.ndarray
    recorded_mask: np.ndarray
    exposure_strengths: tuple[float, ...]

    def __post_init__(self):
        kappa = np.asarray(self.kappa, dtype=complex)
        xi = np.asarray(self.xi, dtype=float)
        n = len(self.modes)
        if kappa.shape != (n, n) or xi.shape != (n, n):
            raise ValueError("kappa and xi must be square over the mode universe")
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
    fraction for unit input in universe mode j.
    """

    transfer: np.ndarray
    thickness_used: float
    modes: tuple[PlaneWaveMode, ...]

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


def _recorded_pairs(
    hologram: Hologram,
    modes: ModeSet,
    material: MaterialSpec | None,
) -> tuple[list[tuple[int, list[tuple[int, complex, float]]]], tuple[float, ...]]:
    """Validated recorded pairs of each exposure, and the exposure strengths.

    Per exposure: the partner's universe position and one (position,
    coefficient, kappa0) entry per superposition component.  The strength
    of an exposure is sqrt(sum (kappa0 |c|)^2), which `optimal_thickness`
    tunes against.  Raises ValueError for an exposure above the material's
    modulation ceiling and UnknownMode for a mode outside the set.
    """
    wavelength = modes.geometry.wavelength
    positions = {mode: i for i, mode in enumerate(modes.universe)}
    pairs = []
    strengths = []
    for exposure in hologram.exposures:
        if material is not None and exposure.index_modulation > material.max_index_modulation:
            raise ValueError(
                f"exposure modulation {exposure.index_modulation} exceeds material "
                f"ceiling {material.max_index_modulation}"
            )
        if exposure.partner not in positions:
            raise UnknownMode(f"partner {exposure.partner} is not in the mode set")
        components = []
        strength_sq = 0.0
        for mode, coeff in exposure.coefficients.items():
            if mode not in positions:
                raise UnknownMode(f"mode {mode} is not in the mode set")
            kappa0 = _pair_strength(exposure.index_modulation, wavelength, exposure.partner, mode)
            components.append((positions[mode], coeff, kappa0))
            strength_sq += (kappa0 * abs(coeff)) ** 2
        pairs.append((positions[exposure.partner], components))
        strengths.append(math.sqrt(strength_sq))
    return pairs, tuple(strengths)


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
    the z mismatch as a detuning rate and are only used by the detuned
    integrator when crosstalk is requested.

    Parasitic candidates are found per exposure by one numpy broadcast of
    all pairwise transverse differences k_a - k_b against the exposure's
    gratings, with a 1e-9 relative slack on the tolerance so that no pair
    the scalar test accepts is missed (np.hypot and math.hypot may differ
    in the last bit).  Each candidate is then confirmed by the scalar test
    and added in exposure, component, row-major (a, b) order.  That is the
    order of an exhaustive scan over all pairs, so every merge, every
    dropped degenerate fringe and every floating-point sum is the same as
    in that scan, and the result is bit-for-bit identical to it.
    """
    wavelength = modes.geometry.wavelength
    transverse_tol = TWO_PI / modes.geometry.aperture_breadth
    universe = modes.universe
    vectors = np.array([wave_vector(m) for m in universe])
    n = len(universe)

    kappa = np.zeros((n, n), dtype=complex)
    xi = np.zeros((n, n))
    recorded = np.zeros((n, n), dtype=bool)
    # At most one detuning per unordered pair: later contributions merge
    # into the first, so per-pair detunings stay single-valued.
    paired = np.zeros((n, n), dtype=bool)

    def add(a: int, b: int, value: complex, is_recorded: bool, detuning: float) -> None:
        if paired[a, b]:
            if abs(xi[a, b] - detuning) > 1e-6:
                # Two fringes drive this pair at different mismatch rates (a
                # degeneracy of symmetric cone layouts: a grating can weakly
                # address the antipodal recorded pair).  The better-matched
                # fringe dominates the exchange by a factor kappa/xi, so the
                # other is dropped; per-pair multi-fringe phases are outside
                # this matrix-form model.
                if not is_recorded:
                    return
                raise ValueError("conflicting detunings on one mode pair")
        else:
            paired[a, b] = paired[b, a] = True
            xi[a, b] = detuning
            xi[b, a] = -detuning
        kappa[a, b] += value
        kappa[b, a] += np.conj(value)
        recorded[a, b] = recorded[b, a] = recorded[a, b] or is_recorded

    exposures = hologram.exposures
    pairs, strengths = _recorded_pairs(hologram, modes, material)

    # Pass 1: the recorded pairs, phase matched by construction.
    for exposure, (p, components) in zip(exposures, pairs):
        for m, coeff, kappa0 in components:
            value = kappa0 * abs(coeff) * np.exp(1j * (np.angle(coeff) + exposure.phase))
            add(m, p, value, True, 0.0)

    # Pass 2: parasitic replays of each fringe by other, nearly matched pairs.
    transverse = vectors[:, None, :2] - vectors[None, :, :2]
    candidate_bound = transverse_tol * (1.0 + 1e-9)
    for exposure, (p, components) in zip(exposures, pairs):
        gratings = [vectors[m] - vectors[p] for m, _, _ in components]
        offsets = transverse - np.array(gratings)[:, None, None, :2]
        # Negated >= so that NaN offsets stay candidates, as in the scalar test.
        near = ~(np.hypot(offsets[..., 0], offsets[..., 1]) >= candidate_bound)
        for c, a, b in np.argwhere(near).tolist():
            m, coeff, _ = components[c]
            if a == b or (a == m and b == p):
                continue
            mismatch = vectors[a] - vectors[b] - gratings[c]
            if math.hypot(mismatch[0], mismatch[1]) >= transverse_tol:
                continue
            cross_mag = _pair_strength(
                exposure.index_modulation, wavelength, universe[a], universe[b]
            ) * abs(coeff)
            cross = cross_mag * np.exp(1j * (np.angle(coeff) + exposure.phase))
            add(a, b, cross, False, float(mismatch[2]))

    return CouplingSystem(
        modes=universe,
        kappa=kappa,
        xi=xi,
        recorded_mask=recorded,
        exposure_strengths=strengths,
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
    if not math.isfinite(thickness * float(np.abs(eigenvalues).max(initial=0.0))):
        raise FloatingPointError(f"slab phase overflows at thickness {thickness}")
    return (eigenvectors * np.exp(1j * thickness * eigenvalues)) @ eigenvectors.conj().T


def ideal_transfer(system: CouplingSystem, thickness: float) -> TransferResult:
    """Transfer exp(i d K) of the phase-matched couplings (crosstalk dropped)."""
    if not 0.0 < thickness < math.inf:
        raise ValueError(f"thickness must be positive and finite, got {thickness}")
    if np.abs(system.xi[system.recorded_mask]).max(initial=0.0) > 0.0:
        raise ValueError("ideal transfer requires zero detuning on retained couplings")
    coupling = np.where(system.recorded_mask, system.kappa, 0.0)
    transfer = _hermitian_exp(coupling, thickness)
    return TransferResult(
        transfer=transfer,
        thickness_used=thickness,
        modes=system.modes,
    )


def _select_system(
    system: CouplingSystem,
    include_crosstalk: bool,
    tilt: float,
    tilt_mode: PlaneWaveMode | None,
) -> tuple[np.ndarray, np.ndarray]:
    """kappa and xi restricted to the requested couplings, tilt applied.

    A tilt adds shift_a - shift_b to xi_ab, where shift_n is k_z(tilted)
    - k_z(untilted) for a tilted mode and zero otherwise.
    """
    xi = system.xi
    if tilt != 0.0:
        shift = np.zeros(len(system.modes))
        for n, mode in enumerate(system.modes):
            if tilt_mode is None or mode == tilt_mode:
                tilted = replace(mode, cone_half_angle=mode.cone_half_angle + tilt)
                shift[n] = wave_vector(tilted)[2] - wave_vector(mode)[2]
        xi = xi + (shift[:, None] - shift[None, :])
    mask = system.recorded_mask if not include_crosstalk else (
        system.recorded_mask | (system.kappa != 0.0)
    )
    return np.where(mask, system.kappa, 0.0), np.where(mask, xi, 0.0)


def _potential(kappa: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-mode potential d fitting xi_nm = d_n - d_m, and its worst residual.

    d is fixed by a spanning-tree walk over the coupled pairs (kappa != 0),
    with d = 0 at the first mode of each connected component; the residual
    is max |xi_nm - (d_n - d_m)| over every coupled pair, so it is zero
    exactly when a potential explains all the detunings that act.
    """
    coupled = kappa != 0.0
    n = kappa.shape[0]
    potential = np.zeros(n)
    reached = np.zeros(n, dtype=bool)
    for root in range(n):
        if reached[root]:
            continue
        reached[root] = True
        frontier = [root]
        while frontier:
            m = frontier.pop()
            for k in np.flatnonzero(coupled[m] & ~reached).tolist():
                potential[k] = potential[m] + xi[k, m]
                reached[k] = True
                frontier.append(k)
    misfit = np.abs(xi - (potential[:, None] - potential[None, :]))[coupled]
    return potential, float(misfit.max(initial=0.0))


def _step_count(kappa: np.ndarray, xi: np.ndarray, thickness: float) -> int:
    """RK4 steps resolving the coupling beat and the fastest detuning phase.

    At least `_MIN_STEPS`, and `_STEPS_PER_CYCLE` per radian-cycle of
    max|xi| + 2 max|kappa|.  Raises StepUnderflow above `_MAX_STEPS`.
    """
    rate = float(np.abs(xi).max(initial=0.0) + 2.0 * np.abs(kappa).max(initial=0.0))
    steps = max(_MIN_STEPS, math.ceil(thickness * rate * _STEPS_PER_CYCLE / TWO_PI))
    if steps > _MAX_STEPS:
        raise StepUnderflow(
            f"step bound needs {steps} integrator steps; system is too stiff"
        )
    return steps


def _integrate(kappa: np.ndarray, xi: np.ndarray, thickness: float, steps: int) -> np.ndarray:
    """Classical fixed-step RK4 on the full propagator across the slab."""
    h = thickness / steps
    n = kappa.shape[0]
    propagator = np.eye(n, dtype=complex)

    def rhs(z: float, y: np.ndarray) -> np.ndarray:
        return 1j * ((kappa * np.exp(1j * xi * z)) @ y)

    for step in range(steps):
        z = step * h
        k1 = rhs(z, propagator)
        k2 = rhs(z + 0.5 * h, propagator + 0.5 * h * k1)
        k3 = rhs(z + 0.5 * h, propagator + 0.5 * h * k2)
        k4 = rhs(z + h, propagator + h * k3)
        propagator = propagator + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return propagator


def detuned_transfer(
    system: CouplingSystem,
    thickness: float,
    *,
    include_crosstalk: bool = False,
    tilt: float = 0.0,
    tilt_mode: PlaneWaveMode | None = None,
) -> TransferResult:
    """Transfer of the z-dependent coupled equations across the slab.

    `tilt` shifts the polar angle of `tilt_mode` (or of every mode when
    None); its change in each tilted mode's k_z is added to the detunings
    as an exact per-mode potential.
    When a per-mode potential d explains the detunings of every coupled
    pair to within `_POTENTIAL_TOL` radians over the slab (recorded
    fringes always fit one, up to rounding), the transfer is the exact
    rotating-frame form diag(exp(i d_n thickness)) expm(i thickness
    (kappa - diag(d))) from one eigh.  Otherwise fixed-step RK4 integrates
    the equations.  Either way the RK4 step bound is checked first, so a
    system too stiff to integrate (or whose phases exp(i d_n thickness)
    would carry no accurate digits) raises StepUnderflow.
    """
    if not 0.0 < thickness < math.inf:
        raise ValueError(f"thickness must be positive and finite, got {thickness}")
    kappa, xi = _select_system(system, include_crosstalk, tilt, tilt_mode)
    steps = _step_count(kappa, xi, thickness)
    potential, residual = _potential(kappa, xi)
    if residual * thickness <= _POTENTIAL_TOL:
        transfer = np.exp(1j * thickness * potential)[:, None] * _hermitian_exp(
            kappa - np.diag(potential), thickness
        )
    else:
        transfer = _integrate(kappa, xi, thickness, steps)
    return TransferResult(
        transfer=transfer,
        thickness_used=thickness,
        modes=system.modes,
    )


def tune_stack(stack: GratingStack, material: MaterialSpec | None = None) -> GratingStack:
    """Assign each hologram its optimal thickness (existing values kept).

    Only the exposure strengths are needed, so no coupling is built here.
    """
    tuned = []
    for hologram in stack.holograms:
        if hologram.thickness is None:
            _, strengths = _recorded_pairs(hologram, stack.mode_set, material)
            hologram = hologram.with_thickness(_tuned_thickness(strengths))
        tuned.append(hologram)
    return GratingStack(holograms=tuple(tuned), mode_set=stack.mode_set)


def simulate_stack(
    stack: GratingStack,
    material: MaterialSpec | None = None,
    mode: str = "ideal",
    *,
    include_crosstalk: bool = False,
) -> TransferResult:
    """Ordered product of per-hologram transfers.

    Every hologram must carry a thickness (see `tune_stack`).  Inter-slab
    propagation phases are normalized away as described in the module
    docstring.  `mode` is "ideal" (matrix exponential of the phase-matched
    couplings) or "detuned" (`detuned_transfer`, optionally with crosstalk:
    the exact rotating-frame route where a per-mode potential explains the
    detunings, RK4 integration otherwise).
    """
    if mode not in ("ideal", "detuned"):
        raise ValueError(f"mode must be 'ideal' or 'detuned', got {mode!r}")
    universe = stack.mode_set.universe
    transfer = np.eye(len(universe), dtype=complex)
    total = 0.0
    for hologram in stack.holograms:
        if hologram.thickness is None:
            raise ValueError(
                f"hologram {hologram.label!r} has no thickness; tune the stack first"
            )
        system = build_coupling(hologram, stack.mode_set, material)
        if mode == "ideal":
            step = ideal_transfer(system, hologram.thickness)
        else:
            step = detuned_transfer(
                system, hologram.thickness, include_crosstalk=include_crosstalk
            )
        transfer = step.transfer @ transfer
        total += hologram.thickness
    return TransferResult(
        transfer=transfer,
        thickness_used=total,
        modes=universe,
    )


def _dominant_input(hologram: Hologram, modes: ModeSet) -> PlaneWaveMode:
    exposure = hologram.exposures[0]
    return max(
        sorted(exposure.coefficients, key=modes.position),
        key=lambda m: abs(exposure.coefficients[m]),
    )


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
    if not math.isfinite(tilt_range):
        raise ValueError(f"tilt range must be finite, got {tilt_range}")
    if tilt_range <= 0.0:
        raise ValueError("tilt range must be positive")

    modes = stack.mode_set
    holograms = tune_stack(stack, material).holograms
    if not holograms or not holograms[0].exposures:
        raise ValueError("cannot sweep an empty plan")
    source_mode = _dominant_input(holograms[0], modes)
    in_pos = modes.position(source_mode)
    if not source_mode.cone_half_angle + tilt_range < math.pi / 2:
        raise ValueError(
            f"tilt range {tilt_range} rad tilts the input mode to or past pi/2 "
            f"(its cone half angle is {source_mode.cone_half_angle} rad)"
        )

    systems = [build_coupling(h, modes, material) for h in holograms]

    def stack_transfer(tilt: float) -> np.ndarray:
        transfer = np.eye(len(modes.universe), dtype=complex)
        for system, hologram in zip(systems, holograms):
            step = detuned_transfer(
                system,
                hologram.thickness,
                include_crosstalk=include_crosstalk,
                tilt=tilt,
                tilt_mode=source_mode,
            )
            transfer = step.transfer @ transfer
        return transfer

    baseline = stack_transfer(0.0)
    out_pos = int(np.argmax(np.abs(baseline[:, in_pos])))

    rows = []
    for tilt in np.linspace(0.0, tilt_range, samples):
        transfer = baseline if tilt == 0.0 else stack_transfer(float(tilt))
        rows.append((float(tilt), float(abs(transfer[out_pos, in_pos]) ** 2)))
    return rows
