"""The RK4 route's numeric contract: doubled steps move no output by more than 1e-9.

`simulate --crosstalk` and a 3-sample `sweep --crosstalk` run in-process
twice: at the step counts `cmt._step_count` picks, and with
`cmt._STEPS_PER_CYCLE` and `cmt._MIN_STEPS` both doubled.  Every entry of
the result's transfer matrix, every per-mode efficiency and every value
of the sweep CSV must stay within `BOUND` of the doubled-step run.  The
plans whose crosstalk takes the RK4 route must move by more than 0, so
the check cannot pass without integrating; the CNOT stack takes the
exact route at every tilt and must not move at all.
"""

import csv

import numpy as np
import pytest

import hologate.cmt as cmt
from hologate.cli import main
from hologate.formats import dump_json, load_json, matrix_to_dict

BOUND = 1e-9


def phased_permutation(n: int) -> np.ndarray:
    """Swap basis states 1 and 2 with random phases: no symmetry of the cone, so
    its multiplex records parasitic fringes."""
    phases = np.exp(1j * np.random.default_rng(n).uniform(0.0, 2.0 * np.pi, n))
    order = [1, 0, *range(2, n)]
    matrix = np.zeros((n, n), dtype=complex)
    matrix[order, np.arange(n)] = phases
    return matrix


@pytest.fixture(scope="module")
def plans(tmp_path_factory):
    root = tmp_path_factory.mktemp("plans")
    for demo in ("teleport", "cnot"):
        assert main([f"{demo}-demo", "--out-dir", str(root / demo)]) == 0
    for n in (4, 8, 16):
        folder = root / f"phased{n}"
        assert main(["init", "--dimension", str(n), "--out-dir", str(folder)]) == 0
        dump_json(matrix_to_dict(phased_permutation(n)), folder / "target.json")
        assert main(["compile", "--unitary", str(folder / "target.json"), "--geometry",
                     str(folder / "geometry.json"), "--out", str(folder / "plan.json")]) == 0
    return root


def outputs(argv: list[str], out) -> np.ndarray:
    """Every number `argv` writes to `out`: a result's transfer entries and efficiencies,
    or every value of a sweep CSV."""
    assert main([*argv, "--out", str(out)]) == 0
    if out.suffix == ".csv":
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        return np.array(rows, dtype=float).ravel()
    result = load_json(out)
    return np.concatenate([np.ravel(result["transfer"]["entries"]), result["per_mode_efficiency"]])


def doubled_step_change(plans, plan: str, tilt_range, tmp_path, monkeypatch) -> float:
    """Largest change of any number that `simulate --crosstalk` of `plan` writes, or with a
    `tilt_range` its 3-sample `sweep --crosstalk`, when the RK4 steps are doubled."""
    argv = ["simulate", "--plan", str(plans / plan / "plan.json"), "--crosstalk"]
    suffix = ".json"
    if tilt_range is not None:
        argv[0], suffix = "sweep", ".csv"
        argv += ["--tilt-range", tilt_range, "--samples", "3"]
    today = outputs(argv, tmp_path / f"today{suffix}")
    monkeypatch.setattr(cmt, "_STEPS_PER_CYCLE", 2 * cmt._STEPS_PER_CYCLE)
    monkeypatch.setattr(cmt, "_MIN_STEPS", 2 * cmt._MIN_STEPS)
    doubled = outputs(argv, tmp_path / f"doubled{suffix}")
    assert today.shape == doubled.shape
    return float(np.abs(today - doubled).max())


@pytest.mark.parametrize("plan, tilt_range", [
    ("teleport", None),
    ("phased4", None),
    ("phased8", None),
    ("phased16", None),
    ("teleport", "2e-3"),
    ("phased4", "1e-3"),
])
def test_rk4_route_moves_within_the_bound(plans, tmp_path, monkeypatch, plan, tilt_range):
    assert 0.0 < doubled_step_change(plans, plan, tilt_range, tmp_path, monkeypatch) <= BOUND


@pytest.mark.parametrize("tilt_range", [None, "1e-3"])
def test_exact_route_stack_does_not_move(plans, tmp_path, monkeypatch, tilt_range):
    assert doubled_step_change(plans, "cnot", tilt_range, tmp_path, monkeypatch) == 0.0
