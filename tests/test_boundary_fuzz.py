"""Fuzz the CLI's input boundary: one numeric field of one input file is
replaced by an extreme or non-finite value, and the command must either
run or fail with a clean exit code, never raise out of `main`.

Non-finite values (NaN, +-inf, and the strings "nan" and "inf", which
`float()` accepts) must exit 2 with an `error:` line.  Whatever a command
writes must be strict JSON, without the non-standard NaN/Infinity tokens,
or a CSV of finite numbers.

A structural mutation changes one node of any input file: it replaces
the node by a value of another JSON type, drops a key, or empties a list.
The command must exit 0, 2 or 3, never 1; an exit 2 prints an `error:`
line and writes nothing.  A change of type must exit 2.
"""

import contextlib
import io
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hologate import circuit as qc
from hologate import cmt, compiler, formats, samples
from hologate.cli import main
from hologate.errors import HologateError, InvalidGeometry
from hologate.modes import make_cone_basis

from conftest import strict_json

NON_FINITE = [math.nan, math.inf, -math.inf, "nan", "inf"]
#: An int that Python compares as less than math.inf, but that has no float value.
HUGE = 10**400
EXTREME = [0, -1, 1e308, 5e-324]


#: Two wires (N = 4), with a measurement, a classically controlled gate
#: and a controlled-U whose payload matrix is fuzzed too.
CIRCUIT = {
    "width": 2,
    "elements": [
        {"kind": "gate", "name": "cu", "wires": [1, 2],
         "matrix": formats.matrix_to_dict(qc.HADAMARD)},
        {"kind": "gate", "name": "cnot", "wires": [2, 1]},
        {"kind": "measure", "wire": 1},
        {"kind": "cgate", "source_wire": 1,
         "gate": {"kind": "gate", "name": "x", "wires": [2]}},
    ],
}


def _base_files() -> dict:
    geometry = samples.sample_geometry(2)
    modes = make_cone_basis(geometry)
    stack = compiler.GratingStack(
        holograms=(
            compiler.compile_multiplex(qc.HADAMARD, modes),
            compiler.compile_redirection(modes),
        ),
        mode_set=modes,
    )
    return {
        "geometry": formats.geometry_to_dict(geometry),
        "geometry4": formats.geometry_to_dict(samples.sample_geometry(4)),
        "circuit": CIRCUIT,
        "material": formats.material_to_dict(samples.sample_material()),
        "matrix": formats.matrix_to_dict(qc.HADAMARD),
        # Tuned, so that the plan's thickness fields are numbers too.
        "plan": formats.plan_to_dict(cmt.tune_stack(stack)),
    }


BASE = _base_files()

#: command name -> (argv with {file} placeholders, the input files it reads)
COMMANDS = {
    "compile": (["compile", "--unitary", "{matrix}", "--geometry", "{geometry}",
                 "--out", "{out}/plan.json"], ("matrix", "geometry")),
    "compile-circuit": (["compile", "--circuit", "{circuit}", "--geometry", "{geometry4}",
                         "--out", "{out}/plan.json"], ("circuit", "geometry4")),
    "simulate": (["simulate", "--mode", "ideal", "--plan", "{plan}", "--material",
                  "{material}", "--out", "{out}/result.json"], ("plan", "material")),
    "simulate-detuned": (["simulate", "--mode", "detuned", "--plan", "{plan}", "--material",
                          "{material}", "--out", "{out}/result.json"], ("plan", "material")),
    "simulate-crosstalk": (["simulate", "--mode", "detuned", "--crosstalk", "--plan", "{plan}",
                            "--material", "{material}", "--out", "{out}/result.json"],
                           ("plan", "material")),
    "sweep": (["sweep", "--plan", "{plan}", "--material", "{material}", "--tilt-range",
               "0.001", "--samples", "2", "--out", "{out}/sweep.csv"], ("plan", "material")),
    "verify": (["verify", "--plan", "{plan}", "--target", "{matrix}", "--material",
                "{material}", "--out", "{out}/report.json"], ("plan", "matrix", "material")),
    "feasibility": (["feasibility", "--plan", "{plan}", "--material", "{material}",
                     "--out", "{out}/feasibility.json"], ("plan", "material")),
}


def numeric_paths(node, path=()):
    """Key/index paths of every int or float leaf (bools excluded)."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield path
        return
    for key, child in items:
        yield from numeric_paths(child, path + (key,))


#: Stands for "remove this key" in `replaced`.
DROP = object()


def replaced(payload, path, value):
    """A copy of `payload` with the node at `path` set to `value`, or removed
    when `value` is `DROP`."""
    payload = json.loads(json.dumps(payload))
    node = payload
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return payload


@st.composite
def cases(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    name = draw(st.sampled_from(COMMANDS[command][1]))
    path = draw(st.sampled_from(list(numeric_paths(BASE[name]))))
    value = draw(st.sampled_from(NON_FINITE + EXTREME))
    return command, name, path, value


def test_every_numeric_field_is_reachable():
    assert len(list(numeric_paths(BASE["plan"]))) > 20
    for name in ("geometry", "geometry4", "material", "matrix", "circuit"):
        assert list(numeric_paths(BASE[name]))


def run_mutated(command, name, path, value, tmp: Path):
    """Run `command` with the node at `path` of file `name` set to `value`
    (or dropped): (exit code, stderr, out dir)."""
    out = tmp / "out"
    out.mkdir()
    files = {"out": str(out)}
    for key, payload in BASE.items():
        files[key] = str(tmp / f"{key}.json")
        # json.dumps spells float NaN/inf as the tokens the loader must reject.
        Path(files[key]).write_text(
            json.dumps(replaced(payload, path, value) if key == name else payload)
        )
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([arg.format(**files) for arg in COMMANDS[command][0]])
    return code, stderr.getvalue(), out


def check_written(out: Path, case):
    """Whatever was written is strict JSON or a CSV of finite numbers."""
    for written in out.iterdir():
        if written.suffix == ".csv":
            rows = [line.split(",") for line in written.read_text().splitlines()[1:]]
            assert all(math.isfinite(float(v)) for row in rows for v in row), case
        else:
            strict_json(written)


@settings(max_examples=600, deadline=None)
@given(cases())
def test_boundary(case):
    value = case[3]
    with tempfile.TemporaryDirectory() as tmp:
        code, err, out = run_mutated(*case, Path(tmp))
        assert code in (0, 1, 2, 3), (case, code)
        if value in NON_FINITE:  # NaN matches itself here: `in` tests identity first
            assert code == 2, (case, code, err)
            assert err.startswith("error:"), (case, err)
        if code in (1, 2):
            assert err.startswith("error:"), (case, err)
            assert not any(out.iterdir()), case
        check_written(out, case)


#: One value of each JSON type.  A type mutation replaces one node of an
#: input file by the value of a type other than its own.
JSON_VALUES = {"null": None, "bool": True, "number": 7, "string": "x", "list": [7],
               "object": {"x": 7}}
def json_type(node) -> str:
    if isinstance(node, bool):
        return "bool"
    if isinstance(node, (int, float)):
        return "number"
    return {type(None): "null", str: "string", list: "list", dict: "object"}[type(node)]


def node_paths(node, path=()):
    """Key/index paths of every node below the root, with the node itself."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,), child
        yield from node_paths(child, path + (key,))


def mutations(path, node):
    """(name, value) of every mutation of the node at `path`."""
    for kind in sorted(set(JSON_VALUES) - {json_type(node)}):
        if not (kind == "null" and path[-1] == "thickness_m"):  # an untuned hologram
            yield f"type:{kind}", JSON_VALUES[kind]
    if isinstance(path[-1], str):
        yield "drop", DROP
    if isinstance(node, list) and node:
        yield "empty", []


def structural_cases():
    """Every (command, file, path, mutation, value) case, each once."""
    for name, payload in BASE.items():
        commands = sorted(c for c in COMMANDS if name in COMMANDS[c][1])
        for path, node in node_paths(payload):
            for mutation, value in mutations(path, node):
                for command in commands:
                    yield command, name, path, mutation, value


STRUCTURAL_CASES = list(structural_cases())


def check_structural(case, tmp: Path):
    """The boundary contract: exit 0, 2 or 3; exit 2 says `error:` and writes
    nothing; anything written is strict JSON or a CSV of finite numbers.  A
    type mutation must exit 2."""
    command, name, path, mutation, value = case
    code, err, out = run_mutated(command, name, path, value, tmp)
    assert code in (0, 2, 3), (case, code, err)
    if mutation.startswith("type:"):
        assert code == 2, (case, code, err)
    if code == 2:
        assert err.startswith("error:"), (case, err)
        assert not any(out.iterdir()), case
    check_written(out, case)


def test_every_node_is_reachable():
    paths = [path for path, _ in node_paths(BASE["plan"])]
    assert ("holograms", 0, "exposures", 0, "coefficients", 0, "mode") in paths
    assert len(paths) > len(list(numeric_paths(BASE["plan"]))) + 20
    assert {json_type(node) for _, node in node_paths(BASE["circuit"])} == {
        "number", "string", "list", "object"}
    assert {case[1] for case in STRUCTURAL_CASES} == set(BASE)
    assert {case[3] for case in STRUCTURAL_CASES} >= {"drop", "empty", "type:null"}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([c for c in STRUCTURAL_CASES if c[3].startswith("type:")]))
def test_structural_mutation_exits_2(case):
    with tempfile.TemporaryDirectory() as tmp:
        check_structural(case, Path(tmp))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([c for c in STRUCTURAL_CASES if not c[3].startswith("type:")]))
def test_dropped_key_or_empty_list(case):
    with tempfile.TemporaryDirectory() as tmp:
        check_structural(case, Path(tmp))


#: Every numeric field of the geometry and material classes, which the API
#: accepts from any caller: a str or None in one of them raises the class's
#: own error, naming the field, and never a bare TypeError.  So does a bool
#: in a float field, which the writer would spell as a JSON true or false.
GEOMETRY_FIELDS = ("dimension", "signal_half_angle", "reference_half_angle", "wavelength",
                   "aperture_breadth", "signal_azimuth_offset", "reference_azimuth_offset")
MATERIAL_FIELDS = ("max_total_thickness", "max_index_modulation", "meters_per_recording")


@pytest.mark.parametrize("name, value", [
    # A bool dimension is the integer 1, which the geometry accepts.
    (name, value) for name in GEOMETRY_FIELDS for value in ("0.1", None, True)
    if (name, value) != ("dimension", True)
])
def test_geometry_field_of_wrong_type(name, value):
    with pytest.raises(InvalidGeometry, match=f"^{name} must be"):
        replace(samples.sample_geometry(4), **{name: value})


@pytest.mark.parametrize("value", ["0.025", None, True])
@pytest.mark.parametrize("name", MATERIAL_FIELDS)
def test_material_field_of_wrong_type(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be") as raised:
        replace(samples.sample_material(), **{name: value})
    assert not isinstance(raised.value, TypeError)


@pytest.mark.parametrize("name", MATERIAL_FIELDS)
def test_material_field_beyond_float_range(name):
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got 1000"):
        replace(samples.sample_material(), **{name: HUGE})


@pytest.mark.parametrize("name", GEOMETRY_FIELDS[1:])
@pytest.mark.parametrize("sign", [1, -1])
def test_geometry_field_beyond_float_range(name, sign):
    with pytest.raises(InvalidGeometry, match=" must .*, got -?1000"):
        replace(samples.sample_geometry(4), **{name: sign * HUGE})


# -- the other library constructors and the engine entry points --------------
#
# Each field gets values of the wrong type (str, None, bool), non-finite
# and out-of-range numbers, and numpy scalars.  A rejected value raises a
# HologateError or ValueError naming the field, never a bare TypeError or
# AttributeError; an accepted plan writes, reads back and writes the same
# bytes.

MODES2 = make_cone_basis(samples.sample_geometry(2))
STACK2 = compiler.GratingStack(
    (compiler.compile_multiplex(qc.HADAMARD, MODES2), compiler.compile_redirection(MODES2)),
    MODES2,
)
SYSTEM2 = cmt.build_coupling(STACK2.holograms[0], MODES2)


def plan_with(name, value):
    """A one-exposure plan on MODES2 with `value` in the field `name`."""
    exposure = {"coefficient": 1.0, "index_modulation": 1e-4, "phase": 0.0}
    hologram = {"thickness": 2e-3, "label": "h"}
    stack = {"mode_set": MODES2}
    for fields in (exposure, hologram, stack):
        if name in fields:
            fields[name] = value
    signal, partner = MODES2.signals[0], MODES2.references[0]
    e = compiler.Exposure(partner, {signal: exposure.pop("coefficient")}, **exposure)
    holograms = value if name == "holograms" else (compiler.Hologram([e], **hologram),)
    return compiler.GratingStack(holograms, **stack)


#: field -> (what its error message names, rejected values, accepted values)
PLAN_FIELDS = {
    "coefficient": ("coefficients|superposition norm",
                    ["1", None, True, b"1", math.nan, math.inf],
                    [np.float32(1.0), np.int64(1), np.complex64(1j), -1]),
    "index_modulation": ("index modulation",
                         ["1e-4", None, True, math.nan, math.inf, 0, -1e-4, HUGE],
                         [np.float32(1e-4), np.float64(1e-4), np.int64(1), 1]),
    "phase": ("exposure phase",
              ["0", None, True, math.nan, math.inf, -math.inf, -HUGE],
              [np.float32(0.5), np.int64(1), 3, -0.0]),
    "thickness": ("thickness",
                  ["0.01", True, math.nan, math.inf, 0, np.float64(-1.0), HUGE],
                  [None, np.float32(0.01), np.int64(1), 1, np.float64(2e-3)]),
    "label": ("label", [5, None, True, math.nan, b"h"], [np.str_("h"), ""]),
    "mode_set": ("mode_set",
                 ["modes", None, True, math.nan, np.float64(1.0), samples.sample_geometry(2)],
                 []),
    "holograms": ("holograms",
                  ["ab", None, True, math.nan, 5, np.float64(1.0), [None],
                   STACK2.holograms[0]],
                  [[], list(STACK2.holograms[:1])]),
}


@pytest.mark.parametrize("name, value", [
    (name, value) for name, (_, rejected, _) in PLAN_FIELDS.items() for value in rejected
])
def test_plan_field_rejected_by_its_class(name, value):
    with pytest.raises((HologateError, ValueError), match=PLAN_FIELDS[name][0]):
        plan_with(name, value)


@pytest.mark.parametrize("name, value", [
    (name, value) for name, (_, _, accepted) in PLAN_FIELDS.items() for value in accepted
])
def test_plan_field_accepted_round_trips(name, value, tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    formats.dump_json(formats.plan_to_dict(plan_with(name, value)), first)
    again = formats.plan_from_dict(formats.load_json(first))
    formats.dump_json(formats.plan_to_dict(again), second)
    assert first.read_bytes() == second.read_bytes()


#: argument -> (what its error message names, the call, rejected values, accepted values)
ENGINE_ARGUMENTS = {
    "thickness": ("thickness", lambda v: cmt.detuned_transfer(SYSTEM2, v),
                  ["0.01", None, True, math.nan, math.inf, 0, HUGE],
                  [np.float32(2e-3), np.float64(2e-3), np.int64(1)]),
    "tilt": ("tilt", lambda v: cmt.detuned_transfer(SYSTEM2, 2e-3, tilt=v,
                                                    tilt_mode=MODES2.signals[0]),
             ["x", None, True, math.nan, math.inf, HUGE],
             [np.float32(1e-3), np.int64(0), 0]),
    "samples": ("samples", lambda v: cmt.selectivity_sweep(STACK2, None, 1e-3, v),
                ["3", None, True, math.nan, math.inf, 3.0, np.float64(3.0)],
                [np.int64(3), 3]),
    "tilt_range": ("tilt range", lambda v: cmt.selectivity_sweep(STACK2, None, v, 3),
                   ["1e-3", None, True, math.nan, math.inf, 0, np.int64(2), HUGE],
                   [np.float32(1e-3), np.float64(1e-3)]),
}


@pytest.mark.parametrize("name, value", [
    (name, value) for name, (_, _, rejected, _) in ENGINE_ARGUMENTS.items() for value in rejected
])
def test_engine_argument_rejected(name, value):
    names, call, _, _ = ENGINE_ARGUMENTS[name]
    with pytest.raises((HologateError, ValueError), match=names):
        call(value)


@pytest.mark.parametrize("name, value", [
    (name, value) for name, (_, _, _, accepted) in ENGINE_ARGUMENTS.items() for value in accepted
])
def test_engine_argument_accepted(name, value):
    ENGINE_ARGUMENTS[name][1](value)
