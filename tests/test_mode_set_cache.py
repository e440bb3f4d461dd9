"""The mode sets a process keeps, one per geometry, and what they hold.

`make_cone_basis` returns one `ModeSet` per geometry for the life of the
process, from an LRU of `MODE_SETS_KEPT` sets keyed on the repr of each
stored field, a Python float for every real field.  Equal geometries that
write different bytes (0.0 and -0.0) must keep their own sets, equal ones
given as other number types must share one, every cached array must be
read-only, and the pair table must give pass 2 the hits of its own sort.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hologate import formats
from hologate.cli import main
from hologate.cmt import _near_pairs, build_coupling
from hologate.compiler import GratingStack, compile_multiplex, compile_redirection
from hologate.modes import MODE_SETS_KEPT, ModeSet, _kept_mode_set, make_cone_basis

from conftest import geometry, haar_unitary


def test_equal_geometries_share_one_mode_set():
    modes = make_cone_basis(geometry(8))
    assert make_cone_basis(geometry(8)) is modes
    assert make_cone_basis(geometry(12)) is not modes
    wider = make_cone_basis(replace(geometry(8), aperture_breadth=6e-3))
    assert wider is not modes and wider.geometry.aperture_breadth == 6e-3


@pytest.mark.parametrize("field, first, second", [
    ("signal_azimuth_offset", 0.0, -0.0),
    ("signal_azimuth_offset", -0.0, 0.0),
])
def test_equal_geometries_that_write_other_bytes_keep_their_own_set(field, first, second):
    geometries = [replace(geometry(4), **{field: value}) for value in (first, second)]
    assert geometries[0] == geometries[1]
    sets = [make_cone_basis(g) for g in geometries]
    assert sets[0] is not sets[1]
    for g, modes in zip(geometries, sets):
        value = getattr(modes.geometry, field)
        assert type(value) is type(getattr(g, field)) and repr(value) == repr(getattr(g, field))
        assert formats.geometry_to_dict(modes.geometry) == formats.geometry_to_dict(g)


def test_signed_zero_offset_plans_write_their_own_bytes(tmp_path):
    # One process compiles from a 0.0 geometry, then -0.0, then 0.0 again.
    target = tmp_path / "u.json"
    formats.dump_json(formats.matrix_to_dict(np.eye(2)), target)
    texts = []
    for k, offset in enumerate(["0.0", "-0.0", "0.0"]):
        path = tmp_path / f"geometry{k}.json"
        path.write_text(f'{{"n": 2, "theta_s_rad": 0.08, "theta_r_rad": 0.16, "lambda_m": '
                        f'6.33e-07, "aperture_m": 0.005, "signal_offset_rad": {offset}}}')
        plan = tmp_path / f"plan{k}.json"
        assert main(["compile", "--unitary", str(target), "--geometry", str(path),
                     "--out", str(plan)]) == 0
        texts.append(plan.read_text())
        assert f'"signal_offset_rad": {offset},' in texts[-1]
    assert texts[0] == texts[2] != texts[1]


@pytest.mark.parametrize("field, first, second", [
    ("reference_azimuth_offset", 3, 3.0),
    ("reference_azimuth_offset", np.int64(3), 3.0),
    ("wavelength", 6.33e-7, np.float64(6.33e-7)),
    ("signal_half_angle", np.float32(0.08), float(np.float32(0.08))),
    ("aperture_breadth", Fraction(1, 200), 5e-3),
])
def test_equal_fields_of_other_number_types_share_one_set(field, first, second):
    sets = [make_cone_basis(replace(geometry(4), **{field: value})) for value in (first, second)]
    assert sets[0] is sets[1]
    assert type(getattr(sets[0].geometry, field)) is float


def test_signed_zeros_through_the_api_keep_their_own_sets():
    sets = [make_cone_basis(replace(geometry(4), reference_azimuth_offset=value))
            for value in (0.0, -0.0, 0, np.float64(-0.0))]
    assert sets[0] is not sets[1]
    assert sets[2] is sets[0] and sets[3] is sets[1]


def test_int_field_through_the_api_writes_a_float():
    as_int = replace(geometry(2), reference_azimuth_offset=3)
    as_float = replace(geometry(2), reference_azimuth_offset=3.0)
    for g in (as_float, as_int, as_float):
        modes = make_cone_basis(g)
        stack = GratingStack((compile_redirection(modes),), modes)
        written = formats.plan_to_dict(stack)["geometry"]["reference_offset_rad"]
        assert repr(written) == "3.0"


def test_cached_arrays_are_read_only():
    modes = make_cone_basis(geometry(4))
    table, order = modes.pair_table
    for array in (modes.wave_vectors, table, order):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    assert isinstance(modes.universe, tuple)


def test_pair_table_is_the_sort_near_pairs_makes():
    modes = make_cone_basis(geometry(6))
    vectors = modes.wave_vectors
    n = len(vectors)
    transverse = (vectors[:, None, :2] - vectors[None, :, :2]).reshape(n * n, 2)
    table, order = modes.pair_table
    assert table.tobytes() == transverse[order].tobytes()
    rng = np.random.default_rng(6)
    gratings = transverse[rng.integers(0, n * n, 40)] + rng.normal(scale=30.0, size=(40, 2))
    bound = 2 * np.pi / modes.geometry.aperture_breadth * (1.0 + 1e-9)
    for budget in (1, 50, n * n):
        own = list(_near_pairs(transverse, gratings, bound, budget))
        kept = list(_near_pairs(table, gratings, bound, budget, order))
        assert len(own) == len(kept)
        for (g1, p1), (g2, p2) in zip(own, kept):
            assert g1.tobytes() == g2.tobytes() and p1.tobytes() == p2.tobytes()


def test_coupling_on_a_kept_set_is_the_coupling_on_a_fresh_one(material):
    kept = make_cone_basis(geometry(8))
    fresh = ModeSet(geometry(8))
    unitary = haar_unitary(8, np.random.default_rng(8))
    for _ in range(2):  # a second job on the kept set reads the same table
        ours = build_coupling(compile_multiplex(unitary, kept), kept, material)
        theirs = build_coupling(compile_multiplex(unitary, fresh), fresh, material)
        for name in ("kappa", "xi", "recorded_mask"):
            assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes()
        assert ours.merged_replays == theirs.merged_replays


def test_lru_bound_evicts():
    first = make_cone_basis(replace(geometry(2), wavelength=5e-7))
    for k in range(MODE_SETS_KEPT):
        make_cone_basis(replace(geometry(2), wavelength=5e-7 + (k + 1) * 1e-9))
    info = _kept_mode_set.cache_info()
    assert info.maxsize == MODE_SETS_KEPT and info.currsize == MODE_SETS_KEPT
    again = make_cone_basis(replace(geometry(2), wavelength=5e-7))
    assert again is not first and again == first
