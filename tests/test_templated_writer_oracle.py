"""The list items `formats.dump_json` writes from templates, against the stdlib.

Besides plan coefficients, `_encode` writes three list item shapes from
`%`-templates: finite [re, im] float pairs, {"index": int, "role": str}
mode keys and bare finite floats.  Every list item of one of these shapes
is written from its template, re-indented once per run of one shape, so
a list may mix shapes; any other item takes the generic path.  Each file
must still hold
``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\\n"``,
and a NaN or infinity must raise the stdlib's error and leave no file.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hologate import formats
from hologate.cli import main


def oracle(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-7, 1.7976931348623157e308, 0.1]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))
#: Values that look like a templated item's parts but are not exactly a float.
ODD_NUMBERS = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    FINITE.map(np.float64),
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")])

PAIRS = st.lists(FINITE, min_size=2, max_size=2)
ODD_PAIRS = st.one_of(
    st.lists(st.one_of(FINITE, ODD_NUMBERS), min_size=2, max_size=2),
    st.lists(FINITE, min_size=0, max_size=3),
    st.tuples(FINITE, FINITE),
)
ROLES = st.one_of(st.sampled_from(["signal", "reference"]), st.text(max_size=4))
MODE_KEYS = st.fixed_dictionaries({"index": st.integers(min_value=-5, max_value=2**64),
                                   "role": ROLES})
ODD_MODE_KEYS = st.one_of(
    st.fixed_dictionaries({"index": st.one_of(ODD_NUMBERS, st.none()), "role": ROLES}),
    st.fixed_dictionaries({"index": st.integers(), "role": st.one_of(st.none(), FINITE)}),
    st.fixed_dictionaries({"index": st.integers()}),
    st.fixed_dictionaries({"index": st.integers(), "role": ROLES, "extra": st.integers()}),
)
ITEMS = st.one_of(PAIRS, ODD_PAIRS, MODE_KEYS, ODD_MODE_KEYS, FINITE, ODD_NUMBERS,
                  st.none(), st.text(max_size=3))


def _list_of(first, items):
    """Lists that open with `first`: the item that picks the template."""
    return st.tuples(first, st.lists(items, max_size=6)).map(lambda t: [t[0], *t[1]])


LISTS = st.one_of(
    st.lists(PAIRS, max_size=6),
    st.lists(MODE_KEYS, max_size=6),
    st.lists(FINITE, max_size=6),
    _list_of(PAIRS, ITEMS),
    _list_of(MODE_KEYS, ITEMS),
    _list_of(FINITE, ITEMS),
    st.lists(ITEMS, max_size=6),
)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("templated")


@settings(max_examples=300, deadline=None)
@given(value=LISTS, nested=st.booleans())
def test_templated_lists_match_the_stdlib(out_dir, value, nested):
    payload = {"entries": {"inner": value} if nested else value, "dim": 1}
    path = out_dir / "list.json"
    formats.dump_json(payload, path)
    assert path.read_bytes() == oracle(payload)


@settings(max_examples=150, deadline=None)
@given(value=st.one_of(st.lists(PAIRS, max_size=4), st.lists(FINITE, max_size=4)),
       bad=NON_FINITE, at=st.integers(min_value=0, max_value=4),
       shape=st.sampled_from(["float", "re", "im"]))
def test_non_finite_items_raise_the_stdlib_error_and_write_nothing(out_dir, value, bad, at,
                                                                   shape):
    item = {"float": bad, "re": [bad, 0.0], "im": [1.0, bad]}[shape]
    payload = {"v": [*value[:at], item, *value[at:]]}
    path = out_dir / "non_finite.json"
    with pytest.raises(ValueError) as expected:
        oracle(payload)
    with pytest.raises(ValueError) as raised:
        formats.dump_json(payload, path)
    assert str(raised.value) == str(expected.value)
    assert not path.exists()


@pytest.mark.parametrize("value", [
    [[-0.0, 5e-324], [1e16, -1e16]],
    [{"index": 3, "role": "signal"}, {"index": True, "role": "signal"}],
    [{"role": "reference", "index": 2}, {"index": 1, "role": "signal", "x": 0}],
    [1.0, True, 2, np.float64(0.5), -0.0, None],
    [[1.0, 2.0], 1.0, {"index": 1, "role": "signal"}, [np.float64(1.0), 2.0], [1, 2.0]],
    [{"index": 1, "role": "sigénal\n"}, {"index": 2**80, "role": ""}],
    [(1.0, 2.0), [3.0, 4.0]],
])
def test_mixed_and_edge_lists_match_the_stdlib(tmp_path, value):
    payload = {"v": value}
    formats.dump_json(payload, tmp_path / "edge.json")
    assert (tmp_path / "edge.json").read_bytes() == oracle(payload)


def test_matrix_entries_keep_every_bit():
    values = np.array([[complex(-0.0, -0.0), 5e-324 + 1e16j], [complex(-0.0, 1.0), np.pi + 0j]])
    entries = formats.matrix_to_dict(values.T)["entries"]  # a non-contiguous view
    expected = [[float(v.real), float(v.imag)] for v in values.T.reshape(-1)]
    assert all(type(x) is float for pair in entries for x in pair)
    assert np.array(entries).tobytes() == np.array(expected).tobytes()
    assert formats.matrix_to_dict(values)["dim"] == 2


@pytest.mark.parametrize("demo", ["teleport-demo", "cnot-demo"])
def test_demo_files_are_the_stdlib_text(tmp_path, demo):
    assert main([demo, "--out-dir", str(tmp_path)]) == 0
    for name in ("plan.json", "result.json", "report.json"):
        text = (tmp_path / name).read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name
