"""The plan file's coefficient objects: the writer's template and the reader's late paths.

`formats._encode` writes each list item shaped like a plan coefficient,
``{"im": float, "mode": {"index": int, "role": str}, "re": float}`` with
finite floats, from one template; every other item takes the generic path.
Either way the text must be the stdlib's.  `plan_from_dict` reads each
coefficient by plain indexing and exact types, and builds its JSON path
only when a check fails; the messages below are the ones the reader gave
before it did so, and the CLI must print them unchanged.
"""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hologate import formats
from hologate.cli import main
from hologate.compiler import GratingStack, compile_multiplex, compile_redirection
from hologate.modes import make_cone_basis

from conftest import geometry


def oracle(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


# -- writer ------------------------------------------------------------------

FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
INDEXES = st.one_of(
    st.integers(min_value=-3, max_value=200),
    st.booleans(),
    st.integers(min_value=2**63, max_value=2**256),
)
ROLES = st.one_of(
    st.sampled_from(["signal", "reference", "é", '"', "%s", "%", "\\", "\n", ""]),
    st.text(max_size=4),
)
COEFFICIENTS = st.fixed_dictionaries(
    {"re": FLOATS, "im": FLOATS, "mode": st.fixed_dictionaries({"index": INDEXES, "role": ROLES})}
)


def _reshape(item: dict, change: str, key: str) -> dict:
    """`item` with `key` removed, or with an extra key beside it, at its own level."""
    holder = item if key in item else item["mode"]
    if change == "missing":
        del holder[key]
    elif change == "extra":
        holder["phase"] = 0.5
    return item


ITEMS = st.one_of(
    COEFFICIENTS,
    st.builds(_reshape, COEFFICIENTS, st.sampled_from(["missing", "extra"]),
              st.sampled_from(["re", "im", "mode", "index", "role"])),
    st.integers(),
    st.lists(FLOATS, max_size=2),
)


def _placed(items: list):
    """`items` as a list at three depths of a plan, and as a tuple."""
    return st.sampled_from([
        {"coefficients": items},
        {"holograms": [{"exposures": [{"coefficients": items, "delta_n": 1e-3}]}]},
        {"v": [[items]]},
        {"v": tuple(items)},
    ])


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("codec")


@settings(max_examples=300, deadline=None)
@given(payload=st.lists(ITEMS, max_size=5).flatmap(_placed))
def test_coefficient_lists_match_the_stdlib(out_dir, payload):
    path = out_dir / "plan.json"
    formats.dump_json(payload, path)
    assert path.read_bytes() == oracle(payload)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")])


@settings(max_examples=150, deadline=None)
@given(items=st.lists(COEFFICIENTS, max_size=3), bad=COEFFICIENTS,
       where=st.sampled_from(["re", "im", "both"]), value=NON_FINITE, other=NON_FINITE,
       after=st.lists(COEFFICIENTS, max_size=2))
def test_non_finite_coefficients_raise_the_stdlib_error(out_dir, items, bad, where, value, other,
                                                         after):
    if where in ("re", "both"):
        bad["re"] = value
    if where in ("im", "both"):
        bad["im"] = other
    payload = {"coefficients": [*items, bad, *after]}
    path = out_dir / "non_finite.json"
    with pytest.raises(ValueError) as expected:
        oracle(payload)
    with pytest.raises(ValueError) as raised:
        formats.dump_json(payload, path)
    assert str(raised.value) == str(expected.value)
    assert not path.exists()


def _coefficient(re=0.5, im=-0.25, index=3, role="signal"):
    return {"im": im, "mode": {"index": index, "role": role}, "re": re}


@pytest.mark.parametrize("item", [
    _coefficient(re=-0.0, im=5e-324),
    _coefficient(re=1e16, im=-0.0),
    _coefficient(re=5e-324, im=1e16),
    _coefficient(re=np.float64(0.1)),
    _coefficient(im=np.float64(-0.0)),
    _coefficient(index=True),
    _coefficient(index=False),
    _coefficient(index=2**200),
    _coefficient(role="é"),
    _coefficient(role='"'),
    _coefficient(role="%s"),
    _coefficient(role="%(x)s%%"),
    {**_coefficient(), "phase": 0.0},
    {"im": 0.5, "mode": {"index": 3, "role": "signal", "x": 1}, "re": 0.5},
    {"im": 0.5, "re": 0.5},
    {"im": 0.5, "mode": {"role": "signal"}, "re": 0.5},
    {"im": 0.5, "mode": {"index": 1}, "re": 0.5},
    _coefficient(role=1),
    _coefficient(index=1.0),
    _coefficient(re=1),
], ids=lambda item: repr(item)[:60])
def test_edge_items_match_the_stdlib(tmp_path, item):
    payload = {"c": [_coefficient(), item, _coefficient(re=0.125)], "d": [item]}
    formats.dump_json(payload, tmp_path / "plan.json")
    assert (tmp_path / "plan.json").read_bytes() == oracle(payload)


@pytest.mark.parametrize("re, im", [
    (math.nan, 0.5), (0.5, math.inf), (-math.inf, math.nan), (np.float64("inf"), 0.5),
])
def test_non_finite_items_raise_for_the_key_the_stdlib_meets_first(tmp_path, re, im):
    payload = {"c": [_coefficient(), _coefficient(re=re, im=im)]}
    with pytest.raises(ValueError) as expected:
        oracle(payload)
    with pytest.raises(ValueError) as raised:
        formats.dump_json(payload, tmp_path / "plan.json")
    assert str(raised.value) == str(expected.value)
    assert not (tmp_path / "plan.json").exists()


@pytest.mark.parametrize("role", [b"signal", None, ["signal"]], ids=["bytes", "none", "list"])
def test_non_string_roles_follow_the_stdlib(tmp_path, role):
    payload = {"c": [_coefficient(role=role)]}
    try:
        expected = oracle(payload)
    except TypeError as exc:
        with pytest.raises(TypeError, match=str(exc)):
            formats.dump_json(payload, tmp_path / "plan.json")
        assert not (tmp_path / "plan.json").exists()
    else:
        formats.dump_json(payload, tmp_path / "plan.json")
        assert (tmp_path / "plan.json").read_bytes() == expected


# -- reader ------------------------------------------------------------------

def _dft_plan() -> dict:
    """Two multiplex holograms at N = 4, every coefficient of magnitude 1/2."""
    modes = make_cone_basis(geometry(4))
    dft = np.exp(2j * np.pi * np.outer(range(4), range(4)) / 4) / 2
    stack = GratingStack(holograms=(compile_multiplex(dft, modes, label="dft"),
                                    compile_multiplex(dft.conj(), modes, label="dft*")),
                         mode_set=modes)
    return formats.plan_to_dict(stack)


def _holder(plan, key, h, e, k):
    """The object that holds `key` in coefficient k of exposure e of hologram h."""
    coefficient = plan["holograms"][h]["exposures"][e]["coefficients"][k]
    return coefficient if key in ("re", "im", "mode") else coefficient["mode"]


def _set(key, value):
    return lambda plan, *at: _holder(plan, key, *at).__setitem__(key, value)


def _drop(key):
    return lambda plan, *at: _holder(plan, key, *at).pop(key)


def _listed_twice(plan, h, e, k):
    coefficients = plan["holograms"][h]["exposures"][e]["coefficients"]
    coefficients[k]["mode"] = dict(coefficients[1 if k == 0 else 0]["mode"])


def _not_an_object(plan, h, e, k):
    plan["holograms"][h]["exposures"][e]["coefficients"][k] = [0.5, 0.5]


CORRUPTIONS = {
    "missing re": _drop("re"),
    "missing im": _drop("im"),
    "missing mode": _drop("mode"),
    "missing role": _drop("role"),
    "missing index": _drop("index"),
    "re list": _set("re", [0.5]),
    "re str": _set("re", "half"),
    "re bool": _set("re", True),
    "re nan str": _set("re", "nan"),
    "im list": _set("im", [0.5]),
    "im str": _set("im", "half"),
    "im bool": _set("im", False),
    "index list": _set("index", [1]),
    "index str": _set("index", "2"),
    "index bool": _set("index", True),
    "index float": _set("index", 2.0),
    "role int": _set("role", 1),
    "unknown role": _set("role", "idler"),
    "index 0": _set("index", 0),
    "index n + 1": _set("index", 5),
    "listed twice": _listed_twice,
    "mode list": _set("mode", ["signal", 1]),
    "mode str": _set("mode", "signal"),
    "coefficient list": _not_an_object,
}

# Captured from the reader that built every coefficient's JSON path up front.
FIRST = "error: FileFormatError: plan.holograms[0].exposures[0].coefficients[0]"
LATE = "error: FileFormatError: plan.holograms[1].exposures[3].coefficients[2]"
EXPECTED = {
    "missing re": ": missing required field 're'",
    "missing im": ": missing required field 'im'",
    "missing mode": ": missing required field 'mode'",
    "missing role": ".mode: missing required field 'role'",
    "missing index": ".mode: missing required field 'index'",
    "re list": ": field 're' must be a number, got [0.5]",
    "re str": ": field 're' must be a number, got 'half'",
    "re bool": ": field 're' must be a number, got True",
    "re nan str": None,
    "im list": ": field 'im' must be a number, got [0.5]",
    "im str": ": field 'im' must be a number, got 'half'",
    "im bool": ": field 'im' must be a number, got False",
    "index list": ".mode: field 'index' must be an integer, got [1]",
    "index str": ".mode: field 'index' must be an integer, got '2'",
    "index bool": ".mode: field 'index' must be an integer, got True",
    "index float": ".mode: field 'index' must be an integer, got 2.0",
    "role int": ".mode: field 'role' must be a string, got 1",
    "unknown role": ".mode: unknown role 'idler'",
    "index 0": ".mode: no signal mode with index 0 (n = 4)",
    "index n + 1": ".mode: no signal mode with index 5 (n = 4)",
    "listed twice": ".mode: listed twice in one exposure",
    "mode list": ": field 'mode' must be an object, got ['signal', 1]",
    "mode str": ": field 'mode' must be an object, got 'signal'",
    "coefficient list": " must be an object, got [0.5, 0.5]",
}
EXPECTED_OTHER = {
    ("re nan str", 0): "error: ValueError: superposition norm nan is not 1",
    ("re nan str", 1): "error: ValueError: superposition norm nan is not 1",
    ("listed twice", 0): "error: FileFormatError: plan.holograms[0].exposures[0]"
                         ".coefficients[1].mode: listed twice in one exposure",
}


@pytest.fixture(scope="module")
def dft_plan():
    return _dft_plan()


@pytest.mark.parametrize("where", [0, 1], ids=["first", "late"])
@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_corrupted_coefficient_messages(tmp_path, capsys, dft_plan, name, where):
    plan = copy.deepcopy(dft_plan)
    CORRUPTIONS[name](plan, *((0, 0, 0), (1, 3, 2))[where])
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    assert main(["simulate", "--plan", str(path), "--out", str(tmp_path / "r.json")]) == 2
    expected = EXPECTED_OTHER.get((name, where)) or (FIRST, LATE)[where] + EXPECTED[name]
    assert capsys.readouterr().err == expected + "\n"
    assert not (tmp_path / "r.json").exists()


def _numeric_forms(plan: dict) -> dict:
    """`plan` with every re/im written as an int where that is exact, else as a string."""
    plan = copy.deepcopy(plan)
    for hologram in plan["holograms"]:
        for exposure in hologram["exposures"]:
            for coefficient in exposure["coefficients"]:
                for key in ("re", "im"):
                    x = coefficient[key]
                    exact = x.is_integer() and math.copysign(1.0, x) > 0
                    coefficient[key] = int(x) if exact else repr(x)
    return plan


def test_int_and_numeric_string_coefficients_build_the_same_stack(tmp_path):
    modes = make_cone_basis(geometry(4))
    dft = np.exp(2j * np.pi * np.outer(range(4), range(4)) / 4) / 2
    stack = GratingStack(holograms=(compile_multiplex(dft, modes), compile_redirection(modes)),
                         mode_set=modes)
    plan = formats.plan_to_dict(stack)
    variant = _numeric_forms(plan)
    multiplex, redirection = (h["exposures"][0]["coefficients"] for h in variant["holograms"])
    assert any(type(c["re"]) is str for c in multiplex)
    assert any(type(c["re"]) is int for c in redirection)
    read, read_variant = formats.plan_from_dict(plan), formats.plan_from_dict(variant)
    for a, b in zip(read.holograms, read_variant.holograms, strict=True):
        for field in ("component", "partner", "coefficient", "weight", "delta_n", "phase"):
            assert getattr(a._fringes, field).tobytes() == getattr(b._fringes, field).tobytes()
        assert a._fringes.modes == b._fringes.modes
    formats.dump_json(formats.plan_to_dict(read), tmp_path / "a.json")
    formats.dump_json(formats.plan_to_dict(read_variant), tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes() == oracle(plan)


def test_plan_to_dict_gives_each_fringe_its_own_mode_object(dft_plan):
    seen = [id(c["mode"]) for h in dft_plan["holograms"] for e in h["exposures"]
            for c in e["coefficients"]]
    seen += [id(e["partner"]) for h in dft_plan["holograms"] for e in h["exposures"]]
    assert len(set(seen)) == len(seen) == 2 * (16 + 4)
