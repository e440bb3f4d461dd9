"""formats.dump_json against the stdlib's indent-2 encoder it replaced.

`dump_json` builds its text without `json.dumps`, whose `indent` path is
pure Python.  Every file must still hold, byte for byte,
``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\\n"``:
for drawn trees of every JSON type and awkward string, and for every
payload the CLI writes.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hologate import formats
from hologate.circuit import CNOT_MATRIX
from hologate.cli import main

from conftest import haar_unitary


def oracle(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80é ﻿\U0001f600'),
        st.characters(exclude_categories=()),  # surrogates included
    ),
    max_size=6,
)
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e16, 1e-7]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**256),
    st.integers(min_value=-(2**256), max_value=-(2**63)),
    FLOATS,
    TEXT,
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    )


TREES = st.recursive(SCALARS, _containers, max_leaves=40)
PAYLOADS = st.one_of(
    st.dictionaries(TEXT, TREES, max_size=5),
    TREES.map(lambda tree: {"value": tree}),
)


def _around(bad):
    """`bad` placed among finite siblings, one level deeper."""
    return st.one_of(
        st.tuples(st.lists(TREES, max_size=2), bad, st.lists(TREES, max_size=2)).map(
            lambda t: [*t[0], t[1], *t[2]]
        ),
        st.tuples(st.lists(TREES, max_size=2), bad).map(lambda t: (*t[0], t[1])),
        st.tuples(st.dictionaries(TEXT, TREES, max_size=3), TEXT, bad).map(
            lambda t: {**t[0], t[1]: t[2]}
        ),
    )


NON_FINITE = st.sampled_from(
    [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("inf"), np.float64("-inf")]
)
WITH_NON_FINITE = st.recursive(NON_FINITE, _around, max_leaves=6).map(lambda v: {"v": v})


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writer")


@settings(max_examples=200, deadline=None)
@given(payload=PAYLOADS)
def test_drawn_trees_match_the_stdlib(out_dir, payload):
    path = out_dir / "tree.json"
    formats.dump_json(payload, path)
    assert path.read_bytes() == oracle(payload)


@settings(max_examples=100, deadline=None)
@given(payload=WITH_NON_FINITE)
def test_non_finite_at_any_depth_raises_the_stdlib_error(out_dir, payload):
    path = out_dir / "non_finite.json"
    with pytest.raises(ValueError) as expected:
        oracle(payload)
    with pytest.raises(ValueError) as raised:
        formats.dump_json(payload, path)
    assert str(raised.value) == str(expected.value)
    assert not path.exists()


@pytest.mark.parametrize(
    "value", [{1, 2}, np.int64(3), np.bool_(True), 1j, b"bytes", object()],
    ids=["set", "int64", "bool_", "complex", "bytes", "object"],
)
def test_values_json_cannot_hold_raise_type_error(tmp_path, value):
    path = tmp_path / "bad.json"
    with pytest.raises(TypeError):
        oracle({"v": [value]})
    with pytest.raises(TypeError):
        formats.dump_json({"v": [value]}, path)
    assert not path.exists()


def test_non_string_key_raises_type_error(tmp_path):
    with pytest.raises(TypeError):
        formats.dump_json({"v": {1: 2}}, tmp_path / "bad.json")
    assert not (tmp_path / "bad.json").exists()


# -- every payload the CLI writes --------------------------------------------

@pytest.fixture()
def written(monkeypatch):
    """Names of the files the CLI wrote; each is checked against the oracle as written."""
    names = []
    dump = formats.dump_json

    def checked(payload, path):
        dump(payload, path)
        with open(path, "rb") as handle:
            assert handle.read() == oracle(payload), path
        names.append(str(path))

    monkeypatch.setattr(formats, "dump_json", checked)
    return names


def _write_matrix(path, matrix):
    path.write_bytes(oracle(formats.matrix_to_dict(matrix)))


def _signed_permutation(n, rng):
    matrix = np.zeros((n, n), dtype=complex)
    matrix[rng.permutation(n), np.arange(n)] = rng.choice([1, -1, 1j, -1j], size=n)
    return matrix


TELEPORT_CIRCUIT = {
    "width": 3,
    "elements": [
        {"kind": "gate", "name": "h", "wires": [2]},
        {"kind": "gate", "name": "cnot", "wires": [2, 3]},
        {"kind": "gate", "name": "cnot", "wires": [1, 2]},
        {"kind": "gate", "name": "h", "wires": [1]},
        {"kind": "measure", "wire": 1},
        {"kind": "measure", "wire": 2},
        {"kind": "cgate", "source_wire": 2, "gate": {"kind": "gate", "name": "x", "wires": [3]}},
        {"kind": "cgate", "source_wire": 1, "gate": {"kind": "gate", "name": "z", "wires": [3]}},
    ],
}


def test_multiplex_plans_and_their_reports(tmp_path, written):
    rng = np.random.default_rng(15)
    for n in (2, 3, 4, 8, 16, 32, 64):
        cfg = tmp_path / f"cfg{n}"
        assert main(["init", "--dimension", str(n), "--out-dir", str(cfg)]) == 0
        target = tmp_path / f"u{n}.json"
        _write_matrix(target, haar_unitary(n, rng))
        plan = tmp_path / f"plan{n}.json"
        assert main(["compile", "--unitary", str(target), "--geometry",
                     str(cfg / "geometry.json"), "--out", str(plan)]) == 0
        assert main(["feasibility", "--plan", str(plan), "--material",
                     str(cfg / "material.json"), "--out", str(tmp_path / f"feas{n}.json")]) == 0
        if n <= 4:
            assert main(["simulate", "--plan", str(plan), "--out",
                         str(tmp_path / f"result{n}.json")]) == 0
            assert main(["simulate", "--plan", str(plan), "--mode", "detuned", "--crosstalk",
                         "--out", str(tmp_path / f"xtalk{n}.json")]) == 0
            assert main(["verify", "--plan", str(plan), "--target", str(target),
                         "--out", str(tmp_path / f"report{n}.json")]) == 0
            # A target the plan does not realize: a failing report.
            other = tmp_path / f"other{n}.json"
            _write_matrix(other, haar_unitary(n, rng))
            assert main(["verify", "--plan", str(plan), "--target", str(other),
                         "--out", str(tmp_path / f"fail{n}.json")]) == 3
    names = {p.rsplit("/", 1)[-1] for p in written}
    assert {"geometry.json", "material.json", "plan64.json", "feas64.json",
            "result4.json", "xtalk4.json", "report4.json", "fail4.json"} <= names


def test_stacked_circuit_and_empty_plans(tmp_path, written):
    rng = np.random.default_rng(16)
    cfg = {}
    for n in (4, 8, 16):
        cfg[n] = tmp_path / f"cfg{n}"
        assert main(["init", "--dimension", str(n), "--out-dir", str(cfg[n])]) == 0
    cases = {
        "cnot": (4, CNOT_MATRIX),
        "perm8": (8, _signed_permutation(8, rng)),
        "perm16": (16, _signed_permutation(16, rng)),
        "identity": (4, np.eye(4)),
    }
    for name, (n, matrix) in cases.items():
        target = tmp_path / f"{name}_u.json"
        _write_matrix(target, matrix)
        plan = tmp_path / f"{name}.json"
        assert main(["compile", "--unitary", str(target), "--geometry",
                     str(cfg[n] / "geometry.json"), "--layout", "stacked",
                     "--out", str(plan)]) == 0
        assert main(["feasibility", "--plan", str(plan), "--material",
                     str(cfg[n] / "material.json"),
                     "--out", str(tmp_path / f"{name}_feas.json")]) == 0
        assert main(["simulate", "--plan", str(plan), "--mode", "detuned",
                     "--out", str(tmp_path / f"{name}_result.json")]) == 0
    empty = json.loads((tmp_path / "identity.json").read_text())
    assert empty["holograms"] == []
    assert json.loads((tmp_path / "identity_feas.json").read_text())[
        "angular_selectivity_rad"] is None

    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps(TELEPORT_CIRCUIT))
    cfg8 = cfg[8]
    assert main(["compile", "--circuit", str(circuit), "--geometry",
                 str(cfg8 / "geometry.json"), "--out", str(tmp_path / "circuit_plan.json")]) == 0
    assert main(["feasibility", "--plan", str(tmp_path / "circuit_plan.json"), "--material",
                 str(cfg8 / "material.json"), "--out", str(tmp_path / "circuit_feas.json")]) == 0
    assert len(written) == 3 * 2 + 4 * 3 + 2


@pytest.mark.parametrize("demo", ["teleport-demo", "cnot-demo"])
def test_demo_outputs(tmp_path, written, demo):
    assert main([demo, "--out-dir", str(tmp_path)]) == 0
    assert sorted(p.rsplit("/", 1)[-1] for p in written) == [
        "plan.json", "report.json", "result.json"
    ]
