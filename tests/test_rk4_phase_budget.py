"""What one `cmt._integrate` call holds: its buffers and one phase array.

The propagator buffers are nine arrays the size of `kappa` (three coupling
matrices, four stage products, the propagator and one buffer).  The phase
values are one array of at most `_PHASE_BUDGET_BYTES`, formed in place
chunk after chunk, so the peak does not grow with the step count.  numpy
may add a buffer of up to `np.getbufsize()` elements for each of the two
broadcast operands that form it, for the length of one call.
"""

import tracemalloc

import numpy as np
import pytest

import hologate.cmt as cmt
from hologate.cmt import build_coupling
from hologate.compiler import compile_multiplex
from hologate.modes import make_cone_basis

from conftest import geometry
from test_rk4_oracle import crosstalk_slab

SLACK = 64 * 1024


def phased_slabs(n, material):
    modes = make_cone_basis(geometry(n))
    rng = np.random.default_rng(2)
    target = np.eye(n)[rng.permutation(n)] * np.exp(1j * rng.uniform(0, 6.28, n))
    system = build_coupling(compile_multiplex(target, modes), modes, material)
    return [crosstalk_slab(system, tilt, modes.signals[0]) for tilt in (0.0, 1e-3, 2.5e-3)]


def peak_bytes(kappa, xi, thickness, steps):
    cmt._integrate(kappa, xi, thickness, steps)
    tracemalloc.start()
    try:
        cmt._integrate(kappa, xi, thickness, steps)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, stacked, steps", [(4, False, 1000), (16, True, 300)])
def test_one_call_holds_its_buffers_and_one_phase_array(material, n, stacked, steps):
    slabs = phased_slabs(n, material)
    if stacked:
        kappa, xi = np.stack([k for k, _, _ in slabs]), np.stack([x for _, x, _ in slabs])
    else:
        kappa, xi, _ = slabs[0]
    thickness = slabs[0][2]
    coupled = np.count_nonzero(kappa.reshape(-1, kappa.shape[-1] ** 2)[0])
    chunk = cmt._PHASE_BUDGET_BYTES // (48 * coupled * (3 if stacked else 1))
    assert 1 < chunk < steps  # several chunks, each a full budget
    ufunc_buffers = 2 * np.getbufsize() * 16
    bound = 9 * kappa.nbytes + cmt._PHASE_BUDGET_BYTES + ufunc_buffers + SLACK
    assert peak_bytes(kappa, xi, thickness, steps) <= bound
