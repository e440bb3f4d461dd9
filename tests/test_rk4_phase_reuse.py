"""The RK4 kernel's phase reuse against the dense RK4 loop, bit for bit.

`cmt._integrate` takes one `np.exp` per conjugate pair of coupled
entries: entry (b, a) of a coupled (a, b), a < b, is the conjugate of its
partner's value when kappa_ba == conj(kappa_ab) and xi_ba == -xi_ab by
value in every slice, and a partner whose detuning is 0 in every slice
takes no exp at all.  Every other entry is evaluated directly.  These
cases sit at the edges of that rule: pairs that are conjugate only to
within the tolerances `CouplingSystem` accepts, a detuning that is zero
in one slice of a stack and not in another, stored couplings whose
conjugates differ from them in the sign of a zero, and slabs with no
coupling or no detuning.  Each must give the dense loop's bytes, and the
exps per node count how many entries were evaluated directly.
"""

import numpy as np
import pytest

import hologate.cmt as cmt
from hologate.circuit import TELEPORT_UNITARY_UNCONDITIONAL_Z
from hologate.cmt import CouplingSystem, build_coupling
from hologate.compiler import compile_multiplex
from hologate.modes import make_cone_basis

from conftest import geometry
from test_rk4_oracle import crosstalk_slab, dense_integrate

STEPS = 300


def integrate_counting_exps(monkeypatch, kappa, xi, thickness, steps=STEPS):
    """`_integrate`'s result, and the values it passed to np.exp per node and slice."""
    sizes, exp = [], np.exp

    def counting(values, *args, **kwargs):
        sizes.append(values.size)
        return exp(values, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "exp", counting)
        result = cmt._integrate(kappa, xi, thickness, steps)
    slices = 1 if kappa.ndim == 2 else len(kappa)
    return result, sum(sizes) / (3 * steps * slices)


def assert_dense_bytes(result, kappa, xi, thickness, steps=STEPS):
    for ours, k, x in zip(result.reshape(-1, *kappa.shape[-2:]),
                          kappa.reshape(-1, *kappa.shape[-2:]), xi.reshape(-1, *xi.shape[-2:])):
        assert ours.tobytes() == dense_integrate(k, x, thickness, steps).tobytes()


def conjugate_pairs(kappa, xi):
    """Coupled pairs a < b that are conjugates by value, and those that are bitwise."""
    rows, cols = np.nonzero(np.triu(kappa != 0.0, 1))
    lower, upper = kappa[cols, rows], np.conj(kappa[rows, cols])
    by_value = (lower == upper) & (xi[cols, rows] == -xi[rows, cols])
    bitwise = [a.tobytes() == b.tobytes() for a, b in zip(lower, upper)]
    return int(by_value.sum()), int(np.sum(by_value & bitwise))


@pytest.fixture(scope="module")
def teleport(material):
    modes = make_cone_basis(geometry(8))
    hologram = compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes)
    return crosstalk_slab(build_coupling(hologram, modes, material))


@pytest.fixture(scope="module")
def phased(material):
    """A phased permutation with parasitic fringes, n = 8, at three tilts of signal 1."""
    modes = make_cone_basis(geometry(4))
    rng = np.random.default_rng(5)
    target = np.eye(4)[rng.permutation(4)] * np.exp(1j * rng.uniform(0, 6.28, 4))
    system = build_coupling(compile_multiplex(target, modes), modes, material)
    return [crosstalk_slab(system, tilt, modes.signals[0]) for tilt in (0.0, 1e-3, 2.5e-3)]


def test_near_conjugate_pairs_are_evaluated_directly(monkeypatch):
    """Hermitian only to 1e-13 and antisymmetric only to 1e-10: no mirrors."""
    modes = make_cone_basis(geometry(3)).universe
    n = len(modes)
    rng = np.random.default_rng(13)
    upper = np.triu(rng.uniform(size=(n, n)) < 0.6, 1)
    kappa = np.where(upper, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 0.0)
    kappa[0, 1] = 0.75  # a real coupling, as in a CNOT
    xi = np.where(upper, rng.uniform(-20.0, 20.0, (n, n)), 0.0)
    xi[0, 1] = 0.0
    upper[0, 1] = True
    rows, cols = np.nonzero(upper)
    # Every pair misses by one of the two: alternately kappa and xi, sometimes both.
    kappa_miss = np.arange(len(rows)) % 3 != 1
    xi_miss = np.arange(len(rows)) % 3 != 0
    kappa[cols, rows] = np.conj(kappa[rows, cols]) + np.where(kappa_miss, 1e-13 - 1e-13j, 0.0)
    xi[cols, rows] = -xi[rows, cols] + np.where(xi_miss, 1e-10, 0.0)
    system = CouplingSystem(modes=modes, kappa=kappa, xi=xi,
                            recorded_mask=np.zeros((n, n), dtype=bool), exposure_strengths=())
    kappa, xi = cmt._select_system(system, True, None)
    assert conjugate_pairs(kappa, xi) == (0, 0)
    result, exps = integrate_counting_exps(monkeypatch, kappa, xi, 1.0)
    assert exps == np.count_nonzero(kappa)
    assert_dense_bytes(result, kappa, xi, 1.0)


def test_detuning_zero_in_one_slice_only(monkeypatch, phased):
    kappa = np.stack([k for k, _, _ in phased])
    xi = np.stack([x for _, x, _ in phased])
    thickness = phased[0][2]
    coupled = kappa[0] != 0.0
    zero = (xi == 0.0) & coupled
    assert (zero[0] & ~zero[1]).any()  # a recorded pair, detuned by the tilt
    result, exps = integrate_counting_exps(monkeypatch, kappa, xi, thickness)
    still = np.triu(zero.all(axis=0), 1)
    assert exps == np.count_nonzero(coupled) // 2 - np.count_nonzero(still)
    assert_dense_bytes(result, kappa, xi, thickness)


def test_teleport_crosstalk_slab(monkeypatch, teleport):
    kappa, xi, thickness = teleport
    # Real couplings' conjugates differ from the stored entries in the sign of zero.
    assert np.count_nonzero(kappa) == 64
    assert conjugate_pairs(kappa, xi) == (32, 8)
    result, exps = integrate_counting_exps(monkeypatch, kappa, xi, thickness)
    assert exps == 16
    assert_dense_bytes(result, kappa, xi, thickness)


def test_uncoupled_slab(monkeypatch, phased):
    _, xi, thickness = phased[1]
    kappa = np.zeros_like(phased[1][0])
    result, exps = integrate_counting_exps(monkeypatch, kappa, xi, thickness)
    assert exps == 0
    assert result.tobytes() == np.eye(len(kappa), dtype=complex).tobytes()
    assert_dense_bytes(result, kappa, xi, thickness)


@pytest.mark.parametrize("stacked", [False, True])
def test_slab_without_detuning(monkeypatch, phased, stacked):
    kappa, _, thickness = phased[0]
    xi = np.zeros(kappa.shape)
    if stacked:
        kappa, xi = np.stack([kappa, 2.0 * kappa]), np.stack([xi, -xi])
    result, exps = integrate_counting_exps(monkeypatch, kappa, xi, thickness)
    assert exps == 0
    assert_dense_bytes(result, kappa, xi, thickness)
