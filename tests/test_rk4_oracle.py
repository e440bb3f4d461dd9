"""The RK4 kernel against the dense RK4 loop it replaced, bit for bit.

`dense_integrate` keeps the original loop: it evaluates the full n x n
coupling matrix kappa * exp(i xi z) at all four stages of every step.
`cmt._integrate` forms it only on the coupled entries, in chunks of steps,
and must return the same bytes.
"""

import numpy as np
import pytest

import hologate.cmt as cmt
from hologate.circuit import TELEPORT_UNITARY_UNCONDITIONAL_Z
from hologate.cmt import build_coupling, optimal_thickness
from hologate.compiler import compile_multiplex
from hologate.modes import make_cone_basis

from conftest import geometry

STEPS = 1200


def dense_integrate(kappa: np.ndarray, xi: np.ndarray, thickness: float, steps: int) -> np.ndarray:
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


def assert_identical(kappa, xi, thickness, steps=STEPS):
    ours = cmt._integrate(kappa, xi, thickness, steps)
    reference = dense_integrate(kappa, xi, thickness, steps)
    assert ours.dtype == reference.dtype and ours.shape == reference.shape
    assert ours.tobytes() == reference.tobytes()


def crosstalk_slab(system, tilt=0.0, tilt_mode=None):
    kappa, xi = cmt._select_system(system, True, cmt._tilt_shift(system.modes, tilt, tilt_mode))
    return kappa, xi, optimal_thickness(system)


@pytest.fixture(scope="module")
def teleport(modes8, material):
    hologram = compile_multiplex(TELEPORT_UNITARY_UNCONDITIONAL_Z, modes8)
    return build_coupling(hologram, modes8, material)


@pytest.fixture(scope="module")
def inconsistent_cycle():
    """Three modes coupled in a cycle whose detunings no potential explains."""
    kappa = np.array([[0.0, 1.0, 0.7j], [1.0, 0.0, 0.5], [-0.7j, 0.5, 0.0]])
    xi = np.array([[0.0, 0.4, -0.2], [-0.4, 0.0, 0.1], [0.2, -0.1, 0.0]])
    return kappa, xi, 1.0


def test_teleport_crosstalk_slab(teleport):
    kappa, xi, thickness = crosstalk_slab(teleport)
    assert cmt._potential(kappa, xi)[1] * thickness > 1.0
    assert_identical(kappa, xi, thickness)


def test_tilted_teleport_crosstalk_slab(teleport, modes8):
    kappa, xi, thickness = crosstalk_slab(teleport, 1e-3, modes8.signals[0])
    assert_identical(kappa, xi, thickness)


def test_phased_permutation_crosstalk_slab(material):
    modes = make_cone_basis(geometry(8))
    rng = np.random.default_rng(3)
    target = np.eye(8)[rng.permutation(8)] * np.exp(1j * rng.uniform(0, 6.28, 8))
    system = build_coupling(compile_multiplex(target, modes), modes, material)
    kappa, xi, thickness = crosstalk_slab(system)
    assert cmt._potential(kappa, xi)[1] * thickness > 1.0
    assert_identical(kappa, xi, thickness)


def test_inconsistent_cycle(inconsistent_cycle):
    assert_identical(*inconsistent_cycle)


@pytest.mark.parametrize(
    "budget, chunk",
    [
        (1, 1),                  # one step per chunk
        (48 * 6 * 1500, 1500),   # one chunk longer than the slab
        (48 * 6 * 7, 7),         # 1,000 steps: a last chunk of 6
    ],
)
def test_chunk_edges(inconsistent_cycle, monkeypatch, budget, chunk):
    kappa, xi, thickness = inconsistent_cycle
    # 16 bytes per value, three values per step and coupled entry.
    assert max(1, budget // (48 * np.count_nonzero(kappa))) == chunk
    monkeypatch.setattr(cmt, "_PHASE_BUDGET_BYTES", budget)
    assert_identical(kappa, xi, thickness, steps=1000)


def test_uncoupled_system_is_identity():
    kappa = np.zeros((4, 4), dtype=complex)
    xi = np.triu(np.ones((4, 4)), 1) - np.tril(np.ones((4, 4)), -1)
    ours = cmt._integrate(kappa, xi, 1.0, STEPS)
    assert ours.tobytes() == np.eye(4, dtype=complex).tobytes()
    assert ours.tobytes() == dense_integrate(kappa, xi, 1.0, STEPS).tobytes()
