import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hologate.errors import InvalidGeometry, UnknownMode
from hologate.modes import (
    MAX_DIMENSION,
    ConeGeometry,
    ModeSet,
    PlaneWaveMode,
    Role,
    make_cone_basis,
    wave_vector,
)

from conftest import geometry


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

    def test_mode_set_takes_only_geometry(self):
        modes = ModeSet(geometry(1))
        assert [(m.role, m.index, m.azimuth) for m in modes.universe] == [
            (Role.SIGNAL, 1, 0.0), (Role.REFERENCE, 1, math.pi)]
        assert make_cone_basis(geometry(6)) == ModeSet(geometry(6))
        with pytest.raises(TypeError):
            ModeSet(geometry(2), signals=modes.signals)

    def test_dimension_cap(self):
        assert ModeSet(geometry(MAX_DIMENSION)).dimension == MAX_DIMENSION
        for n in (MAX_DIMENSION + 1, 10**9):
            with pytest.raises(InvalidGeometry, match=r"dimension must lie in \[1, 256\]"):
                geometry(n)

    @pytest.mark.parametrize("n", [4.0, 4.5, "4", None])
    def test_dimension_must_be_an_integer(self, n):
        # A float or string once passed here and failed later in `range`.
        with pytest.raises(InvalidGeometry, match=f"dimension must be an integer, got {n!r}"):
            geometry(n)
        assert make_cone_basis(geometry(np.int64(4))).dimension == 4

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 256])
    def test_universe_order(self, n, modes2, modes4):
        modes, twin = ModeSet(geometry(n)), ModeSet(geometry(n))
        assert modes.universe == modes.signals + modes.references
        for i, (mode, equal) in enumerate(zip(modes.universe, twin.universe)):
            assert equal == mode and equal is not mode
            assert modes.position(mode) == modes.position(equal) == modes.universe.index(mode) == i
        assert modes.position(replace(modes.signals[-1], index=float(n))) == n - 1
        k = modes.geometry.wavenumber
        for foreign in (PlaneWaveMode(Role.SIGNAL, n + 1, 0.0, 0.08, k),
                        PlaneWaveMode(Role.REFERENCE, n + 1, math.pi, 0.16, k), "signal 1"):
            with pytest.raises(UnknownMode):
                modes.position(foreign)
        # Signal 2 of a 4-state basis sits at azimuth pi/2, which no n = 2 basis has.
        with pytest.raises(UnknownMode):
            modes2.position(modes4.signals[1])


class TestWaveVector:
    def test_thirty_degree_cone(self):
        k = 2 * math.pi / 6.33e-7
        mode = PlaneWaveMode(Role.SIGNAL, 1, 0.0, math.pi / 6, k)
        assert np.allclose(wave_vector(mode), [0.5 * k, 0.0, k * math.sqrt(3) / 2], atol=1e-6)

    def test_quarter_turn(self):
        k = 2 * math.pi / 6.33e-7
        mode = PlaneWaveMode(Role.SIGNAL, 2, math.pi / 2, math.pi / 6, k)
        assert np.allclose(wave_vector(mode), [0.0, 0.5 * k, k * math.sqrt(3) / 2], atol=1e-6)

    @pytest.mark.parametrize("index", [0, -1])
    def test_index_below_one_rejected(self, index):
        with pytest.raises(InvalidGeometry, match=f"mode index must be >= 1, got {index}"):
            PlaneWaveMode(Role.SIGNAL, index, 0.0, math.pi / 6, 1.0)

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
