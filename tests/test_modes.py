import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hologate.errors import InvalidGeometry
from hologate.modes import (
    ConeGeometry,
    PlaneWaveMode,
    Role,
    aperture_overlap,
    make_cone_basis,
    selectivity_guard,
    wave_vector,
)

from conftest import geometry


def overlap_quadrature(a, b, breadth, nodes=160):
    """Independent oracle: 2D Gauss-Legendre quadrature of the aperture integral."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x = x * breadth / 2.0
    w = w * breadth / 2.0
    dk = wave_vector(b) - wave_vector(a)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    ww = np.outer(w, w)
    integrand = np.exp(1j * (dk[0] * xx + dk[1] * yy))
    return complex((integrand * ww).sum() / breadth**2)


class TestConeBasis:
    def test_four_state_azimuths(self):
        modes = make_cone_basis(geometry(4))
        azimuths = [m.azimuth for m in modes.signals]
        assert np.allclose(azimuths, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_eight_reference_ring_offset(self):
        modes = make_cone_basis(geometry(8))
        expected = [(math.pi + i * math.pi / 4) % (2 * math.pi) for i in range(8)]
        assert np.allclose([m.azimuth for m in modes.references], expected)

    def test_two_point_symmetry(self):
        modes = make_cone_basis(geometry(2))
        assert np.allclose([m.azimuth for m in modes.signals], [0.0, math.pi])

    def test_indices_and_roles(self):
        modes = make_cone_basis(geometry(5))
        assert [m.index for m in modes.signals] == [1, 2, 3, 4, 5]
        assert all(m.role is Role.SIGNAL for m in modes.signals)
        assert all(m.role is Role.REFERENCE for m in modes.references)

    def test_shared_z_component_per_cone(self):
        modes = make_cone_basis(geometry(8))
        for ring, angle in ((modes.signals, 0.08), (modes.references, 0.16)):
            z = [wave_vector(m)[2] for m in ring]
            expected = modes.geometry.wavenumber * math.cos(angle)
            assert np.allclose(z, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dimension=1),  # make_cone_basis needs N >= 2
            dict(signal_half_angle=0.16),  # equal cones
            dict(signal_half_angle=0.0),
            dict(reference_half_angle=math.pi / 2),
            dict(wavelength=-1.0),
            dict(aperture_breadth=0.0),
        ],
    )
    def test_invalid_geometry(self, kwargs):
        base = dict(
            dimension=4,
            signal_half_angle=0.08,
            reference_half_angle=0.16,
            wavelength=6.33e-7,
            aperture_breadth=5e-3,
        )
        base.update(kwargs)
        with pytest.raises(InvalidGeometry):
            make_cone_basis(ConeGeometry(**base))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["signal_azimuth_offset", "reference_azimuth_offset"])
    def test_non_finite_azimuth_offset_rejected(self, field, value):
        with pytest.raises(InvalidGeometry, match=f"{field} must be finite"):
            ConeGeometry(4, 0.08, 0.16, 6.33e-7, 5e-3, **{field: value})

    def test_universe_order(self):
        modes = make_cone_basis(geometry(3))
        assert modes.universe == modes.signals + modes.references
        assert modes.position(modes.references[0]) == 3


class TestWaveVector:
    def test_thirty_degree_cone(self):
        k = 2 * math.pi / 6.33e-7
        mode = PlaneWaveMode(Role.SIGNAL, 1, 0.0, math.pi / 6, k)
        assert np.allclose(wave_vector(mode), [0.5 * k, 0.0, k * math.sqrt(3) / 2], atol=1e-6)

    def test_quarter_turn(self):
        k = 2 * math.pi / 6.33e-7
        mode = PlaneWaveMode(Role.SIGNAL, 2, math.pi / 2, math.pi / 6, k)
        assert np.allclose(wave_vector(mode), [0.0, 0.5 * k, k * math.sqrt(3) / 2], atol=1e-6)

    @pytest.mark.parametrize("wavenumber", [math.nan, math.inf, 0.0])
    def test_non_finite_wavenumber_rejected(self, wavenumber):
        with pytest.raises(InvalidGeometry, match="wavenumber"):
            PlaneWaveMode(Role.SIGNAL, 1, 0.0, math.pi / 6, wavenumber)

    @given(
        azimuth=st.floats(0.0, 2 * math.pi, exclude_max=True),
        angle=st.floats(1e-3, math.pi / 2 - 1e-3),
        wavenumber=st.floats(1e3, 1e9),
    )
    def test_magnitude_is_wavenumber(self, azimuth, angle, wavenumber):
        mode = PlaneWaveMode(Role.SIGNAL, 1, azimuth, angle, wavenumber)
        assert math.isclose(
            float(np.linalg.norm(wave_vector(mode))), wavenumber, rel_tol=1e-12
        )


class TestApertureOverlap:
    def test_identical_mode_is_exactly_one(self):
        mode = make_cone_basis(geometry(4)).signals[0]
        assert aperture_overlap(mode, mode, 5e-3) == 1.0 + 0.0j

    def test_null_at_integer_wave_offset(self):
        # Two waves at the same azimuth whose transverse-x difference puts an
        # integer number of fringe periods across the aperture.
        k = 2 * math.pi / 6.33e-7
        a = PlaneWaveMode(Role.SIGNAL, 1, 0.0, 0.08, k)
        b = PlaneWaveMode(Role.REFERENCE, 1, 0.0, 0.16, k)
        dkx = wave_vector(b)[0] - wave_vector(a)[0]
        for m in (1, 2, 5):
            breadth = 2 * math.pi * m / dkx
            value = aperture_overlap(a, b, breadth)
            assert abs(value) < 1e-12
            assert abs(overlap_quadrature(a, b, breadth) - value) < 1e-9

    def test_generic_offset_matches_quadrature(self):
        modes = make_cone_basis(geometry(4))
        a = modes.signals[0]
        for b in (modes.signals[1], modes.references[0], modes.references[2]):
            for breadth in (3.7e-6, 8.1e-6):  # few fringes across: overlap in (0, 1)
                value = aperture_overlap(a, b, breadth)
                oracle = overlap_quadrature(a, b, breadth)
                assert abs(value - oracle) < 1e-9
        small = aperture_overlap(a, modes.signals[1], 3.7e-7)
        assert 0.0 < abs(small) < 1.0

    def test_conjugate_symmetry(self):
        modes = make_cone_basis(geometry(6))
        rng = np.random.default_rng(7)
        universe = modes.universe
        for _ in range(20):
            a, b = rng.choice(len(universe), size=2, replace=False)
            forward = aperture_overlap(universe[a], universe[b], 5e-3)
            backward = aperture_overlap(universe[b], universe[a], 5e-3)
            assert abs(forward - backward.conjugate()) < 1e-12

    def test_converges_to_kronecker_with_large_aperture(self):
        modes = make_cone_basis(geometry(8))
        a, b = modes.signals[0], modes.signals[3]
        values = [abs(aperture_overlap(a, b, d)) for d in (1e-4, 1e-2, 1.0)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-5
        assert aperture_overlap(a, a, 1.0) == 1.0


class TestSelectivityGuard:
    def test_four_modes_loose_hologram(self, modes4):
        report = selectivity_guard(modes4, 0.1)
        assert report.ok
        assert math.isclose(report.margin, math.pi / 2 - 0.1, rel_tol=1e-12)

    def test_boundary_equality_fails(self, modes8):
        report = selectivity_guard(modes8, math.pi / 4)
        assert not report.ok
        assert abs(report.margin) < 1e-15

    def test_sixteen_modes(self):
        modes = make_cone_basis(geometry(16))
        report = selectivity_guard(modes, 0.3)
        assert report.ok  # 2*pi/16 = 0.3927 > 0.3

    def test_rejects_nonpositive_selectivity(self, modes4):
        with pytest.raises(ValueError):
            selectivity_guard(modes4, 0.0)
