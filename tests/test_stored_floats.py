"""One representation per stored number and per written mode.

`ConeGeometry` and `MaterialSpec` store each real field as a Python float,
whatever real number type it was given as, so a plan or material file
built through the API writes, reads back and writes the same bytes: the
bytes of the same object built from floats.  A plan names each mode by the
mode set's own mode in its slot, so exposures holding equal copies of the
set's modes, an index of True, 1.0 or np.int64(1) included, write the
set's plan.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hologate import formats
from hologate.compiler import Exposure, GratingStack, Hologram, MaterialSpec, compile_redirection
from hologate.errors import InvalidGeometry
from hologate.modes import PlaneWaveMode, make_cone_basis

from conftest import geometry

#: Each real geometry field with values of five number types; the float of each
#: is a valid value of the field.
GEOMETRY_VALUES = {
    "signal_half_angle": [1, np.float32(0.08), np.float64(0.08), np.int64(1), Fraction(2, 25)],
    "reference_half_angle": [1, np.float32(0.16), np.float64(0.16), np.int64(1), Fraction(4, 25)],
    "wavelength": [1, np.float32(6.33e-7), np.float64(6.33e-7), np.int64(1), Fraction(633, 10**9)],
    "aperture_breadth": [1, np.float32(5e-3), np.float64(5e-3), np.int64(1), Fraction(1, 200)],
    "signal_azimuth_offset": [3, np.float32(0.5), np.float64(0.5), np.int64(-2), Fraction(1, 3)],
    "reference_azimuth_offset": [3, np.float32(3.0), np.float64(3.0), np.int64(3), Fraction(7, 2)],
}
MATERIAL_VALUES = {
    name: [1, np.float32(2e-3), np.float64(2e-3), np.int64(1), Fraction(1, 500)]
    for name in ("max_total_thickness", "max_index_modulation", "meters_per_recording")
}


def written_twice(tmp_path, payload, read, write) -> tuple[bytes, bytes]:
    """The bytes of `payload`, and of what `write(read(...))` makes of its file."""
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    formats.dump_json(payload, first)
    formats.dump_json(write(read(formats.load_json(first))), second)
    return first.read_bytes(), second.read_bytes()


def plan_bytes(tmp_path, stack: GratingStack) -> bytes:
    """The plan file of `stack`, checked to read back and write the same bytes."""
    first, second = written_twice(tmp_path, formats.plan_to_dict(stack),
                                  formats.plan_from_dict, formats.plan_to_dict)
    assert first == second
    return first


def redirection_plan(tmp_path, g) -> bytes:
    modes = make_cone_basis(g)
    return plan_bytes(tmp_path, GratingStack((compile_redirection(modes),), modes))


@pytest.mark.parametrize("field, value", [
    (field, value) for field, values in GEOMETRY_VALUES.items() for value in values
], ids=lambda v: v if isinstance(v, str) else f"{type(v).__name__}({v})")
def test_geometry_field_is_stored_as_a_float_and_writes_its_plan(tmp_path, field, value):
    given = replace(geometry(2), **{field: value})
    as_float = replace(geometry(2), **{field: float(value)})
    stored = getattr(given, field)
    assert type(stored) is float and stored == float(value)
    assert given == as_float
    assert redirection_plan(tmp_path, given) == redirection_plan(tmp_path, as_float)


@pytest.mark.parametrize("field, value", [
    (field, value) for field, values in MATERIAL_VALUES.items() for value in values
], ids=lambda v: v if isinstance(v, str) else f"{type(v).__name__}({v})")
def test_material_field_is_stored_as_a_float_and_writes_its_file(tmp_path, field, value):
    base = MaterialSpec(2.5e-2, 1e-3, 1e-3, name="glass")
    given, as_float = (replace(base, **{field: v}) for v in (value, float(value)))
    stored = getattr(given, field)
    assert type(stored) is float and stored == float(value)
    first, second = written_twice(tmp_path, formats.material_to_dict(given),
                                  formats.material_from_dict, formats.material_to_dict)
    assert first == second
    formats.dump_json(formats.material_to_dict(as_float), tmp_path / "float.json")
    assert first == (tmp_path / "float.json").read_bytes()


def test_material_name_must_be_a_string():
    with pytest.raises(ValueError, match=r"^name must be a string, got 5$"):
        MaterialSpec(2.5e-2, 1e-3, 1e-3, name=5)


def test_numeric_checks_come_before_the_name_check():
    with pytest.raises(ValueError, match="max_total_thickness must be a real number"):
        MaterialSpec("1", 1e-3, 1e-3, name=5)


def test_a_fraction_that_rounds_to_zero_is_rejected():
    tiny = Fraction(1, 10**400)
    with pytest.raises(InvalidGeometry, match=r"^wavelength must be positive and finite, got 1/1"):
        replace(geometry(2), wavelength=tiny)


def copy_with_index(mode: PlaneWaveMode, index) -> PlaneWaveMode:
    return PlaneWaveMode(mode.role, index, mode.azimuth, mode.cone_half_angle, mode.wavenumber)


@pytest.mark.parametrize("index", [True, 1.0, np.int64(1)], ids=repr)
def test_exposures_on_equal_copies_write_the_sets_modes(tmp_path, index):
    modes = make_cone_basis(geometry(2))
    (s1, s2), (r1, r2) = modes.signals, modes.references

    def stack(s1, r1):  # two orthogonal superpositions of S1 and S2
        hologram = Hologram([Exposure(r1, {s2: 0.8, s1: 0.6j}), Exposure(r2, {s1: 0.8, s2: 0.6j})])
        return GratingStack((hologram,), modes)

    copies = copy_with_index(s1, index), copy_with_index(r1, index)
    assert copies == (s1, r1)
    written = plan_bytes(tmp_path, stack(*copies))
    assert written == plan_bytes(tmp_path, stack(s1, r1))
    assert b'"index": true' not in written and b'"index": 1.0' not in written
