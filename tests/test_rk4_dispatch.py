"""The numpy behaviour the RK4 step relies on, byte for byte.

`cmt._integrate` keeps its four stage products in one (4, ...) array and
sums x1 + 2 x2 + 2 x3 + x4 with one `np.add.reduce` over the stage axis,
multiplies by 0-d complex128 step factors, and takes a lone slab's
products through `np.dot` where a stack goes through `np.matmul`.  Each is
bit-identical to the form it replaced only while numpy reduces an outer
axis slice by slice, `np.dot` and `np.matmul` call the same zgemm, and a
0-d factor multiplies like the Python scalar it holds; these tests pin
that, then the two product routes through `_integrate` itself, against
each other and against the dense RK4 loop.
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
def test_reduce_over_stage_axis_adds_in_order(shape):
    stages = complex_normal(np.random.default_rng(sum(shape)), shape)
    # Wide exponents, so a different association rounds differently.
    stages *= np.logspace(-8, 8, shape[-1])
    a0, a1, a2, a3 = stages
    out = np.empty(shape[1:], dtype=complex)
    np.add.reduce(stages, axis=0, out=out)
    assert out.tobytes() == (((a0 + a1) + a2) + a3).tobytes()
    assert out.tobytes() != (a0 + ((a1 + a2) + a3)).tobytes()


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
