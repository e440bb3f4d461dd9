"""build_coupling's window search against the per-exposure broadcast it replaced.

`broadcast_build` keeps the former build verbatim: pass 2 broadcasts each
exposure's gratings against all (2N)**2 pairwise transverse differences.
`cmt.build_coupling` finds the same candidates with one sorted-x window
search over the whole hologram (`cmt._near_pairs`) and must return the
same bytes.  `broadcast_near` is the broadcast's candidate test on its
own, against which `_near_pairs` must yield the same hits in the same
(grating, pair) order, block boundaries and window edges included.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from hologate.circuit import CNOT_MATRIX
from hologate.cmt import (
    CouplingSystem,
    _near_pairs,
    _pair_strength,
    _recorded_pairs,
    build_coupling,
)
from hologate.compiler import (
    compile_multiplex,
    compile_redirection,
    compile_signed_permutation_stack,
)
from hologate.modes import TWO_PI, ConeGeometry, ModeSet, wave_vector

from conftest import geometry, haar_unitary


def broadcast_build(hologram, modes, material=None):
    """The former build_coupling, whose pass 2 broadcasts per exposure."""
    wavelength = modes.geometry.wavelength
    transverse_tol = TWO_PI / modes.geometry.aperture_breadth
    universe = modes.universe
    vectors = np.array([wave_vector(m) for m in universe])
    n = len(universe)

    kappa = np.zeros((n, n), dtype=complex)
    xi = np.zeros((n, n))
    recorded = np.zeros((n, n), dtype=bool)
    paired = np.zeros((n, n), dtype=bool)

    def add(a, b, value, is_recorded, detuning):
        if paired[a, b]:
            if abs(xi[a, b] - detuning) > 1e-6:
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

    for exposure, (p, components) in zip(exposures, pairs):
        for m, coeff, kappa0 in components:
            value = kappa0 * abs(coeff) * np.exp(1j * (np.angle(coeff) + exposure.phase))
            add(m, p, value, True, 0.0)

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


def broadcast_near(transverse, gratings, bound):
    """(grating, pair) hits of the broadcast's candidate test, in row-major order."""
    offsets = transverse[None, :, :] - gratings[:, None, :]
    near = ~(np.hypot(offsets[..., 0], offsets[..., 1]) >= bound)
    grating, pair = np.nonzero(near)
    return grating, pair


def search(transverse, gratings, bound, budget):
    blocks = list(_near_pairs(transverse, gratings, bound, budget))
    grating = np.concatenate([g for g, _ in blocks]) if blocks else np.zeros(0, dtype=np.intp)
    pair = np.concatenate([p for _, p in blocks]) if blocks else np.zeros(0, dtype=np.intp)
    return grating, pair, blocks


def modes_of(n, **overrides):
    return ModeSet(ConeGeometry(**{**vars(geometry(n)), **overrides}))


def phased_permutation(n, seed):
    rng = np.random.default_rng(seed)
    matrix = np.zeros((n, n), dtype=complex)
    matrix[rng.permutation(n), np.arange(n)] = np.exp(1j * rng.uniform(0.0, TWO_PI, n))
    return matrix


#: Tolerance 2*pi/D of about 6e7 per metre, beyond every transverse offset
#: (at most about 6e6 per metre here), so every pair is a candidate.
TINY_APERTURE = 1e-7


def _case(name):
    if name.startswith("haar-"):
        n = int(name.split("-")[1])
        modes = modes_of(n)
        return compile_multiplex(haar_unitary(n, np.random.default_rng(n)), modes), modes
    if name.startswith("phased-permutation-"):
        n = int(name.split("-")[2])
        modes = modes_of(n)
        return compile_multiplex(phased_permutation(n, n + 1), modes), modes
    if name == "redirection-64":
        modes = modes_of(64)
        return compile_redirection(modes), modes
    if name.startswith("cnot-grating-"):
        modes = modes_of(4)
        stack = compile_signed_permutation_stack(CNOT_MATRIX, modes)
        return stack.holograms[int(name.rsplit("-", 1)[1])], modes
    if name == "azimuth-offsets-8":
        modes = modes_of(8, signal_azimuth_offset=0.3, reference_azimuth_offset=2.0)
        return compile_multiplex(haar_unitary(8, np.random.default_rng(80)), modes), modes
    if name == "tiny-aperture-4":
        modes = modes_of(4, aperture_breadth=TINY_APERTURE)
        return compile_multiplex(haar_unitary(4, np.random.default_rng(40)), modes), modes
    raise KeyError(name)


CASES = (
    ["haar-2", "haar-16", "haar-32", "haar-64"]
    + ["phased-permutation-16", "phased-permutation-32", "redirection-64"]
    + [f"cnot-grating-{k}" for k in range(4)]
    + ["azimuth-offsets-8", "tiny-aperture-4"]
)


@functools.cache
def case(name):
    return _case(name)


@pytest.mark.parametrize("name", CASES)
def test_build_matches_broadcast_bytes(name, material):
    hologram, modes = case(name)
    reference = broadcast_build(hologram, modes, material)
    system = build_coupling(hologram, modes, material)
    assert system.kappa.tobytes() == reference.kappa.tobytes()
    assert system.xi.tobytes() == reference.xi.tobytes()
    assert system.recorded_mask.tobytes() == reference.recorded_mask.tobytes()
    assert system.exposure_strengths == reference.exposure_strengths


def hologram_search_inputs(name):
    """The transverse differences, gratings and bound build_coupling searches."""
    hologram, modes = case(name)
    vectors = np.array([wave_vector(m) for m in modes.universe])
    n = len(vectors)
    pairs, _ = _recorded_pairs(hologram, modes, None)
    gratings = np.array([vectors[m] - vectors[p] for p, cs in pairs for m, _, _ in cs])
    transverse = (vectors[:, None, :2] - vectors[None, :, :2]).reshape(n * n, 2)
    bound = TWO_PI / modes.geometry.aperture_breadth * (1.0 + 1e-9)
    return transverse, gratings[:, :2], bound


@pytest.mark.parametrize("budget", [1, 100, 10**9])
@pytest.mark.parametrize("name", ["haar-16", "phased-permutation-16", "azimuth-offsets-8",
                                  "tiny-aperture-4"])
def test_candidates_match_broadcast_in_order(name, budget):
    transverse, gratings, bound = hologram_search_inputs(name)
    grating, pair, _ = search(transverse, gratings, bound, budget)
    ref_grating, ref_pair = broadcast_near(transverse, gratings, bound)
    assert len(ref_grating) > len(gratings)
    assert np.array_equal(grating, ref_grating)
    assert np.array_equal(pair, ref_pair)


def test_tiny_aperture_makes_every_pair_a_candidate_in_bounded_blocks():
    transverse, gratings, bound = hologram_search_inputs("tiny-aperture-4")
    pairs = len(transverse)
    budget = 4 * pairs
    grating, pair, blocks = search(transverse, gratings, bound, budget)
    assert len(grating) == len(gratings) * pairs
    assert np.array_equal(pair, np.tile(np.arange(pairs), len(gratings)))
    assert len(blocks) == len(gratings) // 4
    assert all(len(g) <= budget for g, _ in blocks)


def test_window_edges_match_broadcast():
    # For a grating at x = 3 and bound 0.3, fl(3 + 0.3) and fl(3 - 0.3) = 2.7
    # are the window's edges, and both lie just inside the bound: candidates.
    # An offset of exactly the bound (0.3 or -0.3 from a grating at 0) is not.
    transverse = np.array([[3.0 + 0.3, 0.0], [0.3, 0.0], [-0.3, 0.0], [3.0 - 0.3, 0.0],
                           [0.1, 0.2]])
    assert transverse[0, 0] - 3.0 < 0.3 and transverse[3, 0] - 3.0 > -0.3
    gratings = np.array([[3.0, 0.0], [0.0, 0.0], [0.1, 0.0]])
    grating, pair, _ = search(transverse, gratings, 0.3, 10**9)
    ref_grating, ref_pair = broadcast_near(transverse, gratings, 0.3)
    assert list(zip(ref_grating.tolist(), ref_pair.tolist())) == [
        (0, 0), (0, 3), (1, 4), (2, 1), (2, 4)
    ]
    assert np.array_equal(grating, ref_grating)
    assert np.array_equal(pair, ref_pair)


def test_empty_hologram_search_yields_nothing():
    transverse, _, bound = hologram_search_inputs("haar-2")
    grating, pair, blocks = search(transverse, np.zeros((0, 2)), bound, 10)
    assert blocks == [] and len(grating) == 0 and len(pair) == 0


def test_tiny_aperture_build_peaks_below_the_broadcast():
    # Every pair is a candidate for every grating, so the search works in
    # blocks; its peak allocation stays below the per-exposure broadcast's.
    modes = modes_of(6, aperture_breadth=TINY_APERTURE)
    hologram = compile_multiplex(haar_unitary(6, np.random.default_rng(6)), modes)
    peaks = []
    for build in (broadcast_build, build_coupling):
        tracemalloc.start()
        try:
            build(hologram, modes)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0]
