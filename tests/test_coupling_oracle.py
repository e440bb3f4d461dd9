"""build_coupling against a brute-force reference of its parasitic search.

`reference_build` keeps the original O(N^4) pass 2: every recorded fringe
is tried against every ordered universe pair.  The engine finds the same
candidates with a numpy broadcast and must reproduce the reference byte
for byte, including every merge and every degenerate drop.

The reference also keeps each fringe's grating vector, so `reference_select`
can recompute tilted detunings fringe by fringe, as z components of
k_a - k_b - grating.  The engine instead adds a per-mode tilt potential to
the stored detunings, and must agree with it.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

import hologate.cmt as cmt
from hologate.circuit import CNOT_MATRIX, TELEPORT_UNITARY_UNCONDITIONAL_Z
from hologate.cmt import (
    CouplingSystem,
    _pair_strength,
    build_coupling,
    detuned_transfer,
    optimal_thickness,
)
from hologate.compiler import (
    compile_multiplex,
    compile_redirection,
    compile_signed_permutation_stack,
)
from hologate.errors import UnknownMode
from hologate.modes import TWO_PI, make_cone_basis, wave_vector

from conftest import geometry, haar_unitary


@dataclass(frozen=True)
class Fringe:
    """One coupling of the reference build.

    `coupling` is kappa[a, b] for the orientation in which mode a absorbs
    the grating vector; `detuning` is the z component of
    k_a - k_b - grating (zero on recorded pairs).
    """

    a: int
    b: int
    coupling: complex
    grating: tuple[float, float, float]
    exposure: int
    recorded: bool
    detuning: float


def reference_build(hologram, modes, material=None):
    """The brute-force coupling build; returns (system, fringes, degenerate drops)."""
    wavelength = modes.geometry.wavelength
    transverse_tol = TWO_PI / modes.geometry.aperture_breadth
    universe = modes.universe
    positions = {mode: i for i, mode in enumerate(universe)}
    vectors = np.array([wave_vector(m) for m in universe])
    n = len(universe)

    kappa = np.zeros((n, n), dtype=complex)
    xi = np.zeros((n, n))
    recorded = np.zeros((n, n), dtype=bool)
    fringes = []
    pair_index = {}
    drops = 0

    def add(a, b, value, grating, exposure, is_recorded, detuning):
        nonlocal drops
        pair = frozenset((a, b))
        existing = pair_index.get(pair)
        if existing is not None:
            prior = fringes[existing]
            oriented = detuning if (a, b) == (prior.a, prior.b) else -detuning
            if abs(prior.detuning - oriented) > 1e-6:
                if not is_recorded:
                    drops += 1
                    return
                raise ValueError("conflicting detunings on one mode pair")
            merged_value = value if (a, b) == (prior.a, prior.b) else np.conj(value)
            fringes[existing] = replace(
                prior,
                coupling=prior.coupling + merged_value,
                recorded=prior.recorded or is_recorded,
            )
            kappa[prior.a, prior.b] += merged_value
            kappa[prior.b, prior.a] += np.conj(merged_value)
            recorded[a, b] = recorded[a, b] or is_recorded
            recorded[b, a] = recorded[b, a] or is_recorded
            return
        pair_index[pair] = len(fringes)
        fringes.append(Fringe(a, b, value, tuple(grating), exposure, is_recorded, detuning))
        kappa[a, b] += value
        kappa[b, a] += np.conj(value)
        xi[a, b] = detuning
        xi[b, a] = -detuning
        recorded[a, b] = is_recorded
        recorded[b, a] = is_recorded

    strengths = []
    for e_index, exposure in enumerate(hologram.exposures):
        if material is not None and exposure.index_modulation > material.max_index_modulation:
            raise ValueError(
                f"exposure modulation {exposure.index_modulation} exceeds material "
                f"ceiling {material.max_index_modulation}"
            )
        if exposure.partner not in positions:
            raise UnknownMode(f"partner {exposure.partner} is not in the mode set")
        p = positions[exposure.partner]
        strength_sq = 0.0
        for mode, coeff in exposure.coefficients.items():
            if mode not in positions:
                raise UnknownMode(f"mode {mode} is not in the mode set")
            m = positions[mode]
            kappa0 = _pair_strength(exposure.index_modulation, wavelength, exposure.partner, mode)
            value = kappa0 * abs(coeff) * np.exp(1j * (np.angle(coeff) + exposure.phase))
            add(m, p, value, vectors[m] - vectors[p], e_index, True, 0.0)
            strength_sq += (kappa0 * abs(coeff)) ** 2
        strengths.append(math.sqrt(strength_sq))

    for e_index, exposure in enumerate(hologram.exposures):
        p = positions[exposure.partner]
        for mode, coeff in exposure.coefficients.items():
            m = positions[mode]
            grating = vectors[m] - vectors[p]
            for a in range(n):
                for b in range(n):
                    if a == b or (a == m and b == p):
                        continue
                    mismatch = vectors[a] - vectors[b] - grating
                    if math.hypot(mismatch[0], mismatch[1]) >= transverse_tol:
                        continue
                    cross_mag = _pair_strength(
                        exposure.index_modulation, wavelength, universe[a], universe[b]
                    ) * abs(coeff)
                    cross = cross_mag * np.exp(1j * (np.angle(coeff) + exposure.phase))
                    add(a, b, cross, grating, e_index, False, float(mismatch[2]))

    system = CouplingSystem(
        modes=universe,
        kappa=kappa,
        xi=xi,
        recorded_mask=recorded,
        exposure_strengths=tuple(strengths),
    )
    return system, tuple(fringes), drops


def reference_select(fringes, universe, include_crosstalk, tilt, tilt_mode):
    """kappa and xi of the selected fringes, detunings recomputed under tilt."""
    n = len(universe)
    vectors = np.empty((n, 3))
    for i, mode in enumerate(universe):
        shift = tilt if (tilt_mode is None or mode == tilt_mode) else 0.0
        tilted = replace(mode, cone_half_angle=mode.cone_half_angle + shift)
        vectors[i] = wave_vector(tilted) if shift else wave_vector(mode)
    kappa = np.zeros((n, n), dtype=complex)
    xi = np.zeros((n, n))
    for fringe in fringes:
        if not (fringe.recorded or include_crosstalk):
            continue
        a, b = fringe.a, fringe.b
        kappa[a, b] += fringe.coupling
        kappa[b, a] += np.conj(fringe.coupling)
        detuning = float((vectors[a] - vectors[b] - np.asarray(fringe.grating))[2])
        xi[a, b] = detuning
        xi[b, a] = -detuning
    return kappa, xi


def phased_permutation(perm, seed):
    rng = np.random.default_rng(seed)
    matrix = np.zeros((len(perm), len(perm)), dtype=complex)
    for col, row in enumerate(perm):
        matrix[row, col] = np.exp(1j * rng.uniform(0.0, TWO_PI))
    return matrix


def _plans():
    modes4 = make_cone_basis(geometry(4))
    modes8 = make_cone_basis(geometry(8))
    rng = np.random.default_rng(20111215)
    plans = [
        ("teleport-multiplex", compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8),
         modes8, {"parasitic": 16}),
        ("redirection-4", compile_redirection(modes4), modes4, {"drops": 4}),
        ("redirection-8", compile_redirection(modes8), modes8, {"drops": 8}),
        # A 3-cycle is no symmetry of the cone: it keeps 6 parasitic
        # fringes and drops 2 replays that collide with recorded pairs.
        ("phased-permutation-8",
         compile_multiplex(phased_permutation([1, 2, 0, 3, 4, 5, 6, 7], 3), modes8),
         modes8, {"parasitic": 6, "drops": 2}),
        ("haar-4", compile_multiplex(haar_unitary(4, rng), modes4), modes4, {"drops": 16}),
        ("haar-8", compile_multiplex(haar_unitary(8, rng), modes8), modes8, {"drops": 64}),
    ]
    for k, grating in enumerate(compile_signed_permutation_stack(CNOT_MATRIX, modes4).holograms):
        plans.append((f"cnot-grating-{k}", grating, modes4, {}))
    return plans


PLANS = _plans()


@pytest.mark.parametrize("name,hologram,modes,expect", PLANS, ids=[p[0] for p in PLANS])
def test_build_matches_reference_bytes(name, hologram, modes, expect, material):
    reference, fringes, drops = reference_build(hologram, modes, material)
    system = build_coupling(hologram, modes, material)
    assert system.kappa.tobytes() == reference.kappa.tobytes()
    assert system.xi.tobytes() == reference.xi.tobytes()
    assert system.recorded_mask.tobytes() == reference.recorded_mask.tobytes()
    assert system.exposure_strengths == reference.exposure_strengths

    parasitic = sum(not f.recorded for f in fringes)
    if "parasitic" in expect:
        assert parasitic == expect["parasitic"]
    if "drops" in expect:
        assert drops == expect["drops"]


@functools.cache
def _reference_fringes(plan_index, material):
    _, hologram, modes, _ = PLANS[plan_index]
    return reference_build(hologram, modes, material)[1]


@pytest.mark.parametrize("crosstalk", [False, True], ids=["recorded", "crosstalk"])
@pytest.mark.parametrize("tilt_first_signal", [False, True], ids=["all-tilted", "signal-1"])
@pytest.mark.parametrize("tilt", [1e-4, 1e-3, 3e-3])
@pytest.mark.parametrize("plan_index", range(len(PLANS)), ids=[p[0] for p in PLANS])
def test_tilt_matches_per_fringe_reference(
    plan_index, tilt, tilt_first_signal, crosstalk, material, monkeypatch
):
    _, hologram, modes, _ = PLANS[plan_index]
    fringes = _reference_fringes(plan_index, material)
    system = build_coupling(hologram, modes, material)
    mode = modes.signals[0] if tilt_first_signal else None
    ref_kappa, ref_xi = reference_select(fringes, modes.universe, crosstalk, tilt, mode)

    kappa, xi = cmt._select_system(system, crosstalk, cmt._tilt_shift(system.modes, tilt, mode))
    assert kappa.tobytes() == ref_kappa.tobytes()
    assert np.abs(xi - ref_xi).max() <= 1e-6

    d = optimal_thickness(system)
    ours = detuned_transfer(
        system, d, include_crosstalk=crosstalk, tilt=tilt, tilt_mode=mode
    ).transfer
    monkeypatch.setattr(cmt, "_select_system", lambda *args: (ref_kappa, ref_xi))
    reference = detuned_transfer(system, d).transfer
    assert np.abs(ours - reference).max() <= 1e-12
