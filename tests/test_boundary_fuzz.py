"""Fuzz the CLI's input boundary: one numeric field of one input file is
replaced by an extreme or non-finite value, and the command must either
run or fail with a clean exit code, never raise out of `main`.

Non-finite values (NaN, +-inf, and the strings "nan" and "inf", which
`float()` accepts) must exit 2 with an `error:` line.  Whatever a command
writes must be strict JSON, without the non-standard NaN/Infinity tokens.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from hologate import circuit as qc
from hologate import cmt, compiler, formats, samples
from hologate.cli import main
from hologate.modes import make_cone_basis

from conftest import strict_json

NON_FINITE = [math.nan, math.inf, -math.inf, "nan", "inf"]
EXTREME = [0, -1, 1e308, 5e-324]


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
    "simulate": (["simulate", "--mode", "ideal", "--plan", "{plan}", "--material",
                  "{material}", "--out", "{out}/result.json"], ("plan", "material")),
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


def replaced(payload, path, value):
    payload = json.loads(json.dumps(payload))
    node = payload
    for key in path[:-1]:
        node = node[key]
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
    for name in ("geometry", "material", "matrix"):
        assert list(numeric_paths(BASE[name]))


@settings(max_examples=300, deadline=None)
@given(cases())
def test_boundary(case):
    command, name, path, value = case
    argv_template, _ = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        out.mkdir()
        files = {"out": str(out)}
        for key, payload in BASE.items():
            if key == name:
                payload = replaced(payload, path, value)
            files[key] = str(tmp / f"{key}.json")
            # json.dumps spells float NaN/inf as the tokens the loader must reject.
            Path(files[key]).write_text(json.dumps(payload))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([arg.format(**files) for arg in argv_template])
        err = stderr.getvalue()
        assert code in (0, 1, 2, 3), (case, code)
        if value in NON_FINITE:  # NaN matches itself here: `in` tests identity first
            assert code == 2, (case, code, err)
            assert err.startswith("error:"), (case, err)
        if code in (1, 2):
            assert err.startswith("error:"), (case, err)
            assert not any(out.iterdir()), case
        for written in out.iterdir():
            strict_json(written)
