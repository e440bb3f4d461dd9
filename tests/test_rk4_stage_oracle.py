"""The RK4 kernel's folded step factors against the textbook loop, bit for bit.

`cmt._integrate` keeps each stage as the bare product M @ Y and multiplies
it by i times the real step (i h/2, i h, i h/6) into buffers it reuses,
where the dense loop of `test_rk4_oracle.py` multiplies each product by i
and then by the real step.  These cases are ones that oracle does not
hold: a 32-mode crosstalk slab, a stacked batch of tilts compared slice by
slice, and couplings whose entries are purely real or purely imaginary,
where the two forms differ in the sign of zero parts.  The kernel must
also leave its inputs alone and return a fresh array each call.
"""

import numpy as np
import pytest

import hologate.cmt as cmt
from hologate.cmt import build_coupling
from hologate.compiler import compile_multiplex
from hologate.modes import make_cone_basis

from conftest import geometry
from test_rk4_oracle import crosstalk_slab, dense_integrate

STEPS = 400


def assert_matches_dense(kappa, xi, thickness, steps=STEPS):
    ours = cmt._integrate(kappa, xi, thickness, steps)
    assert ours.dtype == np.complex128 and ours.shape == kappa.shape
    for got, k, x in zip(ours.reshape(-1, *kappa.shape[-2:]),
                         kappa.reshape(-1, *kappa.shape[-2:]), xi.reshape(-1, *xi.shape[-2:])):
        assert got.tobytes() == dense_integrate(k, x, thickness, steps).tobytes()


@pytest.fixture(scope="module")
def phased16(material):
    modes = make_cone_basis(geometry(16))
    rng = np.random.default_rng(16)
    target = np.eye(16)[rng.permutation(16)] * np.exp(1j * rng.uniform(0, 6.28, 16))
    return build_coupling(compile_multiplex(target, modes), modes, material)


@pytest.fixture(scope="module")
def real_and_imaginary():
    """Hermitian couplings, each either purely real or purely imaginary, on a
    cycle whose detunings no potential explains; one pair is phase-matched,
    so its coupling stays purely real or imaginary at every stage."""
    kappa = np.zeros((5, 5), dtype=complex)
    for (a, b), value in {(0, 1): 0.9, (1, 2): 0.6j, (2, 0): -0.4,
                          (2, 3): -0.8j, (3, 4): 0.7}.items():
        kappa[a, b], kappa[b, a] = value, np.conj(value)
    xi = np.zeros((5, 5))
    for (a, b), value in {(0, 1): 0.5, (1, 2): -0.3, (2, 0): 0.1, (3, 4): 1.3}.items():
        xi[a, b], xi[b, a] = value, -value
    return kappa, xi, 1.5


def test_phased_permutation_n16_crosstalk_slab(phased16):
    kappa, xi, thickness = crosstalk_slab(phased16)
    assert kappa.shape == (32, 32)
    assert cmt._potential(kappa, xi)[1] * thickness > 1.0
    assert_matches_dense(kappa, xi, thickness)


def test_stacked_batch_of_tilts(phased16):
    source = phased16.modes[0]
    slabs = [crosstalk_slab(phased16, tilt, source) for tilt in (0.0, 1e-3, 2.5e-3)]
    kappa = np.stack([k for k, _, _ in slabs])
    xi = np.stack([x for _, x, _ in slabs])
    thickness = slabs[0][2]
    assert_matches_dense(kappa, xi, thickness)
    stacked = cmt._integrate(kappa, xi, thickness, STEPS)
    for k, x, got in zip(kappa, xi, stacked):
        assert got.tobytes() == cmt._integrate(k, x, thickness, STEPS).tobytes()


def test_purely_real_and_imaginary_couplings(real_and_imaginary):
    kappa, xi, _ = real_and_imaginary
    coupled = kappa[kappa != 0]
    assert (coupled.real == 0).any() and (coupled.imag == 0).any()
    assert_matches_dense(*real_and_imaginary)


def test_purely_real_and_imaginary_couplings_stacked(real_and_imaginary):
    kappa, xi, thickness = real_and_imaginary
    assert_matches_dense(np.stack([kappa, 1j * kappa, -kappa]), np.stack([xi, xi, 0.5 * xi]),
                         thickness)


def test_inputs_unchanged_and_results_fresh(real_and_imaginary, phased16):
    kappa, xi, thickness = real_and_imaginary
    before = kappa.tobytes(), xi.tobytes()
    first = cmt._integrate(kappa, xi, thickness, STEPS)
    kept = first.tobytes()
    assert (kappa.tobytes(), xi.tobytes()) == before
    big_kappa, big_xi, big_thickness = crosstalk_slab(phased16)
    second = cmt._integrate(big_kappa, big_xi, big_thickness, 50)
    again = cmt._integrate(kappa, xi, thickness, STEPS)
    assert first.tobytes() == kept == again.tobytes()
    assert not np.shares_memory(first, again) and not np.shares_memory(first, second)
