"""cmt._potential against the per-mode `np.flatnonzero` walk it replaced.

`reference_potential` keeps that walk verbatim.  `_potential` now builds
its neighbour lists from one `np.nonzero` and skips the walk when no
coupled detuning is nonzero; the potential and the residual must still
hold the reference's bytes on every slab the CLI propagates, tilted or
not, with and without crosstalk, and on random sparse graphs.
"""

import numpy as np
import pytest

import hologate.cmt as cmt
from hologate.circuit import CNOT_MATRIX, TELEPORT_UNITARY_UNCONDITIONAL_Z
from hologate.compiler import (
    GratingStack,
    compile_multiplex,
    compile_redirection,
    compile_signed_permutation_stack,
)
from hologate.modes import TWO_PI, make_cone_basis

from conftest import geometry, haar_unitary


def reference_potential(kappa, xi):
    """The spanning-tree walk that asked `np.flatnonzero` for each popped mode."""
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


def assert_same_bytes(kappa, xi):
    potential, residual = cmt._potential(kappa, xi)
    expected, expected_residual = reference_potential(kappa, xi)
    assert potential.dtype == expected.dtype and potential.shape == expected.shape
    assert potential.tobytes() == expected.tobytes()
    assert type(residual) is float
    assert np.float64(residual).tobytes() == np.float64(expected_residual).tobytes()


def phased_permutation(n, seed):
    rng = np.random.default_rng(seed)
    matrix = np.zeros((n, n), dtype=complex)
    matrix[rng.permutation(n), np.arange(n)] = np.exp(1j * rng.uniform(0.0, TWO_PI, n))
    return matrix


def multiplex_stack(unitary, modes):
    return GratingStack(holograms=(compile_multiplex(unitary, modes),
                                   compile_redirection(modes)), mode_set=modes)


def plan(name):
    kind, n = name.rsplit("-", 1)
    modes = make_cone_basis(geometry(int(n)))
    if kind == "haar":
        return multiplex_stack(haar_unitary(int(n), np.random.default_rng(int(n))), modes)
    if kind == "phased-permutation":
        return multiplex_stack(phased_permutation(int(n), int(n) + 1), modes)
    if kind == "teleport":
        return multiplex_stack(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes)
    return compile_signed_permutation_stack(CNOT_MATRIX, modes)


PLANS = ["haar-4", "haar-8", "haar-16", "haar-32", "teleport-8",
         "phased-permutation-4", "phased-permutation-8", "phased-permutation-16", "cnot-4"]


def sweep_shifts(stack, samples, tilt_range=2e-3):
    """The `_tilt_shift`s a `selectivity_sweep` of the stack propagates."""
    source = cmt._dominant_input(stack.holograms[0], stack.mode_set)
    return [cmt._tilt_shift(stack.mode_set.universe, tilt, source)
            for tilt in np.linspace(0.0, tilt_range, samples).tolist()]


@pytest.mark.parametrize("name", PLANS)
@pytest.mark.parametrize("crosstalk", [False, True])
def test_every_slab_matches_the_walk(name, crosstalk, material):
    stack = plan(name)
    shifts = [None, *sweep_shifts(stack, 3), *sweep_shifts(stack, 9)]
    for hologram in stack.holograms:
        system = cmt.build_coupling(hologram, stack.mode_set, material)
        for shift in shifts:
            assert_same_bytes(*cmt._select_system(system, crosstalk, shift))


def test_only_slabs_with_a_coupled_detuning_walk(material, monkeypatch):
    # Every untilted slab without crosstalk takes the shortcut.  A tilt, or a
    # parasitic fringe, puts a detuning on a coupled pair and so walks; the
    # teleport element's parasitic detunings fit no potential (RK4 route).
    walks = []
    walk = cmt._walk
    monkeypatch.setattr(cmt, "_walk", lambda *args: walks.append(args) or walk(*args))
    for name in PLANS:
        stack = plan(name)
        for hologram in stack.holograms:
            system = cmt.build_coupling(hologram, stack.mode_set, material)
            assert cmt._potential(*cmt._select_system(system, False, None))[1] == 0.0
    assert walks == []

    teleport = plan("teleport-8")
    system = cmt.build_coupling(teleport.holograms[0], teleport.mode_set, material)
    potential, residual = cmt._potential(
        *cmt._select_system(system, False, sweep_shifts(teleport, 3)[1]))
    assert len(walks) == 1 and potential.any() and residual < 1e-6
    assert cmt._potential(*cmt._select_system(system, True, None))[1] > 1.0
    assert len(walks) == 2


def random_graph(rng, n, components, density):
    """A Hermitian coupling on `components` disjoint mode blocks, its detunings
    a mix of potential differences, noise, and -0.0 on some pairs."""
    kappa = np.zeros((n, n), dtype=complex)
    xi = np.zeros((n, n))
    labels = rng.integers(0, components, size=n)
    d = rng.normal(size=n) * 1e3
    for a in range(n):
        for b in range(a + 1, n):
            if labels[a] != labels[b] or rng.random() > density:
                continue
            kappa[a, b] = complex(*rng.normal(size=2))
            kappa[b, a] = kappa[a, b].conjugate()
            kind = rng.integers(0, 4)
            rate = (d[a] - d[b] if kind == 0 else rng.normal() * 1e3 if kind == 1
                    else 0.0 if kind == 2 else -0.0)
            xi[a, b], xi[b, a] = rate, -rate
    return kappa, xi


@pytest.mark.parametrize("seed", range(40))
def test_random_sparse_graphs_match_the_walk(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 24))
    kappa, xi = random_graph(rng, n, int(rng.integers(1, 5)), float(rng.uniform(0.05, 0.6)))
    assert_same_bytes(kappa, xi)


@pytest.mark.parametrize("seed", range(10))
def test_signed_zero_detunings_give_positive_zeros(seed):
    rng = np.random.default_rng(100 + seed)
    kappa, _ = random_graph(rng, 12, 3, 0.5)
    xi = np.where(rng.random((12, 12)) < 0.5, -0.0, 0.0)
    assert_same_bytes(kappa, xi)
    potential, residual = cmt._potential(kappa, xi)
    assert not np.signbit(potential).any() and residual == 0.0


def test_potential_differences_fit_exactly_per_component():
    rng = np.random.default_rng(7)
    kappa, _ = random_graph(rng, 16, 3, 0.9)
    d = rng.normal(size=16) * 1e3
    xi = np.where(kappa != 0.0, d[:, None] - d[None, :], 0.0)
    assert_same_bytes(kappa, xi)
    assert cmt._potential(kappa, xi)[1] < 1e-9
