"""The numpy behaviour the RK4 step relies on, byte for byte.

`cmt._integrate` sums its four stage products with three in-place adds,
multiplies by 0-d complex128 step factors, and takes a lone slab's
products through `np.dot` where a stack goes through `np.matmul`.  It
takes one `np.exp` per conjugate pair of coupled entries: the mirror of a
pair is the conjugate of its partner's value, and a partner whose
detuning is zero takes 1.0 as its real part with no exp at all.  Each is
bit-identical to the dense RK4 loop only while in-place adds round like
the left-to-right sum, `np.exp` of a negated imaginary argument is the
conjugate, `np.exp` of a signed zero is exactly 1 with that zero's sign,
a product of conjugates is the conjugate of the product, `np.dot` and
`np.matmul` call the same zgemm, and a 0-d factor multiplies like the
Python scalar it holds; these tests pin that, then the two product routes
through `_integrate` itself, against each other and against the dense
RK4 loop.
"""

import numpy as np
import pytest

import hologate.cmt as cmt
from hologate.cmt import build_coupling
from hologate.compiler import compile_multiplex
from hologate.modes import make_cone_basis

from conftest import geometry
from test_rk4_oracle import crosstalk_slab, dense_integrate

STEPS = 300


def complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("shape", [(4, 8, 8), (4, 3, 8, 8), (4, 32, 32)])
def test_in_place_adds_sum_left_to_right(shape):
    stages = complex_normal(np.random.default_rng(sum(shape)), shape)
    # Wide exponents, so a different association rounds differently.
    stages *= np.logspace(-8, 8, shape[-1])
    a0, a1, a2, a3 = stages
    total = a0.copy()
    for term in (a1, a2, a3):
        np.add(total, term, total)
    assert total.tobytes() == (((a0 + a1) + a2) + a3).tobytes()
    assert total.tobytes() != (a0 + ((a1 + a2) + a3)).tobytes()


def detunings(rng, size, reach):
    """Detunings xi and nodes z >= 0 with |xi z| up to `reach` radians,
    tiny and zero detunings and zero nodes included."""
    xi = rng.uniform(-reach, reach, size)
    xi[:8] = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.0 ** -1022, -(2.0 ** -1022)]
    z = rng.uniform(0.0, 1.0, size)
    z[8:16] = 0.0
    return xi, z


@pytest.mark.parametrize("reach", [1e-6, 1.0, 600.0, 2000.0])
def test_exp_of_negated_imaginary_argument_is_conjugate(reach):
    xi, z = detunings(np.random.default_rng(int(reach * 7)), 20_000, reach)
    # i xi z as `_integrate` and the dense loop form it.
    w, mirror = (1j * xi) * z, (1j * -xi) * z
    assert not w.real.any() and not mirror.real.any()
    assert np.exp(-w).tobytes() == np.conj(np.exp(w)).tobytes()
    # The mirror's own argument is -w but for the signs of its zeros, so its
    # exp is the conjugate bit for bit wherever the phase is not exactly 1.
    turned = w.imag != 0.0
    assert np.exp(mirror)[turned].tobytes() == np.conj(np.exp(w))[turned].tobytes()
    assert (np.exp(mirror)[~turned] == 1.0).all()


def test_exp_of_signed_zero_is_one_keeping_the_sign():
    zeros = np.array([complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)])
    values = np.exp(zeros)
    assert (values.real == 1.0).all()
    assert np.signbit(values.imag).tolist() == np.signbit(zeros.imag).tolist()
    assert not values.imag.any()


@pytest.mark.parametrize("size", [1, 3, 8, 17, 64, 1000])
def test_product_of_conjugates_is_conjugate_of_product(size):
    rng = np.random.default_rng(size)
    kappa = complex_normal(rng, size) * np.logspace(-8, 8, size)
    phase = np.exp(1j * rng.uniform(-600.0, 600.0, size))
    kappa[:size // 3] = kappa[:size // 3].real  # real couplings, as in a CNOT
    phase[size // 2:] = np.exp(0j * phase[size // 2:])  # zero detuning
    out = np.empty(size, dtype=complex)
    np.multiply(np.conj(kappa), np.conj(phase), out=out)
    assert out.tobytes() == np.conj(np.multiply(kappa, phase)).tobytes()


@pytest.mark.parametrize("n", [5, 8, 16, 32])
def test_dot_matches_matmul_on_2d(n):
    rng = np.random.default_rng(n)
    a, b = complex_normal(rng, (n, n)), complex_normal(rng, (n, n))
    out = np.empty((n, n), dtype=complex)
    np.dot(a, b, out=out)
    assert out.tobytes() == np.matmul(a, b).tobytes()


@pytest.mark.parametrize("factor", [0.5e-5j, 1e-5j, 1e-5j / 6.0, -3.25 + 0.125j])
def test_zero_d_factor_matches_python_scalar(factor):
    x = complex_normal(np.random.default_rng(6), (8, 8))
    x[0, :3] = [0.0, 1j, 1.0]
    zero_d = np.array(factor)
    assert zero_d.shape == () and zero_d.dtype == np.complex128
    out = np.empty_like(x)
    np.multiply(zero_d, x, out=out)
    assert out.tobytes() == np.multiply(factor, x).tobytes()


@pytest.fixture(scope="module", params=[4, 8, 16])
def tilted_slabs(request, material):
    """Phased permutations with parasitic fringes: slabs of n = 8, 16 and 32."""
    modes = make_cone_basis(geometry(request.param))
    rng = np.random.default_rng(2)
    phases = np.exp(1j * rng.uniform(0, 6.28, request.param))
    target = np.eye(request.param)[rng.permutation(request.param)] * phases
    system = build_coupling(compile_multiplex(target, modes), modes, material)
    return [crosstalk_slab(system, tilt, modes.signals[0]) for tilt in (0.0, 1e-3, 2.5e-3)]


def test_slab_route_matches_stack_route(tilted_slabs):
    kappa, xi, thickness = tilted_slabs[0]
    assert cmt._potential(kappa, xi)[1] * thickness > 1.0
    slab = cmt._integrate(kappa, xi, thickness, STEPS)
    one = cmt._integrate(kappa[None], xi[None], thickness, STEPS)
    three = cmt._integrate(np.stack([k for k, _, _ in tilted_slabs]),
                           np.stack([x for _, x, _ in tilted_slabs]), thickness, STEPS)
    assert one.shape == (1, *kappa.shape) and three.shape == (3, *kappa.shape)
    assert slab.tobytes() == one[0].tobytes() == three[0].tobytes()
    assert slab.tobytes() == dense_integrate(kappa, xi, thickness, STEPS).tobytes()
