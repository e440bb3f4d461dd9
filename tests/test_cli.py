import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hologate.circuit import CNOT_MATRIX
from hologate.cli import main
from hologate.formats import dump_json, load_json, matrix_to_dict

from conftest import haar_unitary, strict_json


@pytest.fixture()
def config_dir(tmp_path):
    assert main(["init", "--out-dir", str(tmp_path / "cfg")]) == 0
    return tmp_path / "cfg"


def write_matrix(path, matrix):
    dump_json(matrix_to_dict(matrix), path)


class TestCompileSimulateVerify:
    def test_round_trip_random_unitary(self, tmp_path, config_dir):
        rng = np.random.default_rng(123)
        target = tmp_path / "target.json"
        write_matrix(target, haar_unitary(8, rng))
        plan = tmp_path / "plan.json"
        assert main([
            "compile", "--unitary", str(target),
            "--geometry", str(config_dir / "geometry.json"),
            "--out", str(plan),
        ]) == 0

        result = tmp_path / "result.json"
        assert main([
            "simulate", "--plan", str(plan),
            "--material", str(config_dir / "material.json"),
            "--out", str(result),
        ]) == 0
        payload = load_json(result)
        assert payload["transfer"]["dim"] == 16
        assert len(payload["per_mode_efficiency"]) == 16

        report = tmp_path / "report.json"
        assert main([
            "verify", "--plan", str(plan), "--target", str(target),
            "--material", str(config_dir / "material.json"),
            "--threshold", "0.999999999",
            "--out", str(report),
        ]) == 0
        assert load_json(report)["pass"] is True

    def test_verify_wrong_target_exits_3(self, tmp_path, config_dir):
        rng = np.random.default_rng(5)
        right, wrong = haar_unitary(8, rng), haar_unitary(8, rng)
        target, decoy = tmp_path / "t.json", tmp_path / "w.json"
        write_matrix(target, right)
        write_matrix(decoy, wrong)
        plan = tmp_path / "plan.json"
        main(["compile", "--unitary", str(target),
              "--geometry", str(config_dir / "geometry.json"), "--out", str(plan)])
        assert main([
            "verify", "--plan", str(plan), "--target", str(decoy),
            "--threshold", "0.999999",
        ]) == 3

    def test_compile_non_unitary_exits_2_with_diagnostic(self, tmp_path, config_dir, capsys):
        bad = tmp_path / "bad.json"
        write_matrix(bad, np.ones((8, 8)))
        assert main([
            "compile", "--unitary", str(bad),
            "--geometry", str(config_dir / "geometry.json"),
            "--out", str(tmp_path / "plan.json"),
        ]) == 2
        assert "NotUnitary" in capsys.readouterr().err

    def test_compile_from_circuit_file(self, tmp_path, config_dir):
        circuit = {
            "width": 3,
            "elements": [
                {"kind": "gate", "name": "cnot", "wires": [1, 2]},
                {"kind": "gate", "name": "h", "wires": [1]},
                {"kind": "measure", "wire": 1},
                {"kind": "measure", "wire": 2},
                {"kind": "cgate", "source_wire": 2,
                 "gate": {"kind": "gate", "name": "x", "wires": [3]}},
                {"kind": "cgate", "source_wire": 1,
                 "gate": {"kind": "gate", "name": "z", "wires": [3]}},
            ],
        }
        circuit_path = tmp_path / "circuit.json"
        circuit_path.write_text(json.dumps(circuit))
        plan = tmp_path / "plan.json"
        assert main([
            "compile", "--circuit", str(circuit_path),
            "--geometry", str(config_dir / "geometry.json"),
            "--out", str(plan),
        ]) == 0
        payload = load_json(plan)
        assert len(payload["holograms"]) == 2
        assert len(payload["holograms"][0]["exposures"]) == 8

    def test_stacked_layout_for_signed_permutation(self, tmp_path):
        cfg = tmp_path / "cfg"
        main(["init", "--dimension", "4", "--out-dir", str(cfg)])
        target = tmp_path / "cnot.json"
        write_matrix(target, CNOT_MATRIX)
        plan = tmp_path / "plan.json"
        assert main([
            "compile", "--unitary", str(target), "--geometry", str(cfg / "geometry.json"),
            "--layout", "stacked", "--out", str(plan),
        ]) == 0
        assert len(load_json(plan)["holograms"]) == 4
        assert main([
            "verify", "--plan", str(plan), "--target", str(target),
            "--threshold", "0.999999999",
        ]) == 0

    def test_stacked_layout_rejects_general_unitary(self, tmp_path, config_dir, capsys):
        target = tmp_path / "u.json"
        write_matrix(target, haar_unitary(8, np.random.default_rng(2)))
        assert main([
            "compile", "--unitary", str(target),
            "--geometry", str(config_dir / "geometry.json"),
            "--layout", "stacked", "--out", str(tmp_path / "plan.json"),
        ]) == 2
        assert "NotSignedPermutation" in capsys.readouterr().err


class TestOtherCommands:
    def test_sweep_writes_csv(self, tmp_path):
        cfg = tmp_path / "cfg"
        main(["init", "--dimension", "4", "--out-dir", str(cfg)])
        target = tmp_path / "cnot.json"
        write_matrix(target, CNOT_MATRIX)
        plan = tmp_path / "plan.json"
        main(["compile", "--unitary", str(target), "--geometry", str(cfg / "geometry.json"),
              "--out", str(plan)])
        csv_path = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--plan", str(plan), "--material", str(cfg / "material.json"),
            "--tilt-range", "0.002", "--samples", "7", "--out", str(csv_path),
        ]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "tilt_rad,efficiency"
        assert len(lines) == 8

    def test_feasibility_report(self, tmp_path, config_dir):
        target = tmp_path / "u.json"
        write_matrix(target, haar_unitary(8, np.random.default_rng(3)))
        plan = tmp_path / "plan.json"
        main(["compile", "--unitary", str(target),
              "--geometry", str(config_dir / "geometry.json"), "--out", str(plan)])
        out = tmp_path / "feas.json"
        assert main([
            "feasibility", "--plan", str(plan),
            "--material", str(config_dir / "material.json"), "--out", str(out),
        ]) == 0
        payload = load_json(out)
        assert payload["recordings"] == 16
        assert payload["required_thickness_m"] == pytest.approx(16e-3)
        assert payload["dimension_ok"] is True

    def test_missing_file_exits_2(self, tmp_path):
        assert main([
            "simulate", "--plan", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "r.json"),
        ]) == 2

    def test_bad_flag_exits_2(self):
        assert main(["simulate", "--mode", "psychic"]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--plan", str(bad), "--out", str(tmp_path / "r.json")]) == 2

    def test_numerical_failure_exits_1(self, tmp_path, config_dir, monkeypatch):
        import hologate.cli as cli
        from hologate.errors import StepUnderflow

        target = tmp_path / "u.json"
        write_matrix(target, haar_unitary(8, np.random.default_rng(6)))
        plan = tmp_path / "plan.json"
        main(["compile", "--unitary", str(target),
              "--geometry", str(config_dir / "geometry.json"), "--out", str(plan)])

        def explode(*args, **kwargs):
            raise StepUnderflow("stiff system")

        monkeypatch.setattr(cli.cmt, "simulate_stack", explode)
        assert main([
            "simulate", "--plan", str(plan), "--out", str(tmp_path / "r.json"),
        ]) == 1


class TestBuildCounts:
    """Every command builds each hologram's coupling exactly once."""

    @pytest.fixture()
    def plan(self, tmp_path):
        cfg = tmp_path / "cfg"
        main(["init", "--dimension", "4", "--out-dir", str(cfg)])
        target = tmp_path / "u.json"
        write_matrix(target, haar_unitary(4, np.random.default_rng(8)))
        plan = tmp_path / "plan.json"
        assert main(["compile", "--unitary", str(target),
                     "--geometry", str(cfg / "geometry.json"), "--out", str(plan)]) == 0
        return plan, target

    @pytest.fixture()
    def builds(self, monkeypatch):
        import hologate.cmt as cmt

        labels = []
        build = cmt.build_coupling

        def counted(hologram, *args, **kwargs):
            labels.append(hologram.label)
            return build(hologram, *args, **kwargs)

        monkeypatch.setattr(cmt, "build_coupling", counted)
        return labels

    @pytest.mark.parametrize("command", ["verify", "simulate", "sweep"])
    def test_one_build_per_hologram(self, tmp_path, plan, builds, command):
        plan, target = plan
        argv = {
            "verify": ["verify", "--plan", str(plan), "--target", str(target)],
            "simulate": ["simulate", "--plan", str(plan), "--mode", "detuned",
                         "--out", str(tmp_path / "r.json")],
            "sweep": ["sweep", "--plan", str(plan), "--tilt-range", "0.001",
                      "--samples", "2", "--out", str(tmp_path / "s.csv")],
        }[command]
        assert main(argv) == 0
        assert sorted(builds) == ["multiplex", "redirection"]


class TestNonFiniteInput:
    """Non-finite or out-of-range inputs exit 2 with an error line naming them."""

    @pytest.fixture()
    def plan(self, tmp_path):
        cfg = tmp_path / "cfg"
        main(["init", "--dimension", "2", "--out-dir", str(cfg)])
        target = tmp_path / "u.json"
        write_matrix(target, haar_unitary(2, np.random.default_rng(9)))
        plan = tmp_path / "plan.json"
        assert main(["compile", "--unitary", str(target),
                     "--geometry", str(cfg / "geometry.json"), "--out", str(plan)]) == 0
        return plan

    @pytest.mark.parametrize("thickness", [math.inf, math.nan])
    @pytest.mark.parametrize("command", [
        ["simulate", "--mode", "detuned"],
        ["simulate", "--mode", "ideal"],
        ["sweep", "--tilt-range", "0.001", "--samples", "2"],
    ])
    def test_non_finite_thickness_exits_2(self, tmp_path, plan, capsys, thickness, command):
        payload = load_json(plan)
        # A JSON string: the loader rejects the non-standard Infinity/NaN tokens.
        payload["holograms"][0]["thickness_m"] = str(thickness)
        plan.write_text(json.dumps(payload))
        capsys.readouterr()
        argv = command + ["--plan", str(plan), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "thickness" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tilt_range", ["nan", "inf", "-inf"])
    def test_non_finite_tilt_range_exits_2(self, tmp_path, plan, capsys, tilt_range):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--plan", str(plan), f"--tilt-range={tilt_range}",
                         "--samples", "3", "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "tilt range must be finite" in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("tilt_range", ["1.5", "10"])
    def test_tilt_range_past_the_cone_exits_2(self, tmp_path, plan, capsys, tilt_range):
        capsys.readouterr()
        code = main(["sweep", "--plan", str(plan), "--tilt-range", tilt_range,
                     "--samples", "3", "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"tilt range {float(tilt_range)}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field, name, key", [
        ("index modulation", None, None),  # set by --delta-n
        ("wavelength", "geometry.json", "lambda_m"),
        ("aperture breadth", "geometry.json", "aperture_m"),
        ("not unitary", "u.json", "entries"),
    ])
    def test_non_finite_compile_input_exits_2(self, tmp_path, capsys, field, name, key, value):
        cfg = tmp_path / "cfg"
        main(["init", "--dimension", "2", "--out-dir", str(cfg)])
        write_matrix(cfg / "u.json", haar_unitary(2, np.random.default_rng(9)))
        flags = [f"--delta-n={value}"] if name is None else []
        if name is not None:
            payload = load_json(cfg / name)
            payload[key] = [[str(value), str(value)]] * 4 if key == "entries" else str(value)
            (cfg / name).write_text(json.dumps(payload))
        capsys.readouterr()
        out = tmp_path / "plan.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["compile", "--unitary", str(cfg / "u.json"), "--geometry",
                         str(cfg / "geometry.json"), "--out", str(out), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("key, field", [
        ("max_total_thickness_m", "max_total_thickness"),
        ("max_index_modulation", "max_index_modulation"),
        ("meters_per_recording", "meters_per_recording"),
    ])
    def test_non_finite_material_exits_2(self, tmp_path, plan, capsys, key, field, value):
        material = tmp_path / "cfg" / "material.json"
        payload = load_json(material)
        payload[key] = str(value)
        material.write_text(json.dumps(payload))
        capsys.readouterr()
        out = tmp_path / "out.json"
        code = main(["feasibility", "--plan", str(plan), "--material", str(material),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err
        assert not out.exists()


class TestDemos:
    def test_cnot_demo(self, tmp_path, capsys):
        assert main(["cnot-demo", "--out-dir", str(tmp_path / "out")]) == 0
        printed = capsys.readouterr().out
        assert "fidelity 1.000000000000" in printed
        for name in ("plan.json", "result.json", "report.json", "sweep.csv"):
            assert (tmp_path / "out" / name).exists()

    def test_teleport_demo(self, tmp_path, capsys):
        assert main(["teleport-demo", "--out-dir", str(tmp_path / "out")]) == 0
        printed = capsys.readouterr().out
        assert "bare_reference_fidelity = 1.0" in printed
        report = load_json(tmp_path / "out" / "report.json")
        assert report["pass"] is True
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_demo_with_explicit_config(self, tmp_path, config_dir):
        assert main([
            "teleport-demo",
            "--geometry", str(config_dir / "geometry.json"),
            "--material", str(config_dir / "material.json"),
        ]) == 0


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hologate.cli", "cnot-demo"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


class TestThresholdBounds:
    """A fidelity threshold outside [0, 1] exits 2 before any file is written."""

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["verify", "cnot-demo", "teleport-demo"])
    def test_non_finite_threshold_exits_2(self, tmp_path, config_dir, capsys, command, threshold):
        out = tmp_path / "out"
        if command == "verify":
            target = tmp_path / "u.json"
            write_matrix(target, haar_unitary(8, np.random.default_rng(4)))
            plan = tmp_path / "plan.json"
            assert main(["compile", "--unitary", str(target), "--geometry",
                         str(config_dir / "geometry.json"), "--out", str(plan)]) == 0
            argv = ["verify", "--plan", str(plan), "--target", str(target), "--out", str(out)]
        else:
            argv = [command, "--out-dir", str(out)]
        capsys.readouterr()
        assert main(argv + [f"--threshold={threshold}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"threshold must lie in [0, 1], got {threshold}" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestEmptyPlan:
    """The identity compiles to a stack with no holograms; verify and feasibility accept it."""

    @pytest.fixture()
    def empty_plan(self, tmp_path, config_dir):
        identity, plan = tmp_path / "identity.json", tmp_path / "empty.json"
        write_matrix(identity, np.eye(8))
        assert main(["compile", "--unitary", str(identity), "--geometry",
                     str(config_dir / "geometry.json"), "--layout", "stacked",
                     "--out", str(plan)]) == 0
        assert load_json(plan)["holograms"] == []
        return plan, identity

    def test_verify_against_identity_passes(self, empty_plan, capsys):
        plan, identity = empty_plan
        assert main(["verify", "--plan", str(plan), "--target", str(identity)]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_verify_against_permutation_fails(self, tmp_path, empty_plan):
        plan, _ = empty_plan
        swap = tmp_path / "swap.json"
        write_matrix(swap, np.eye(8)[[1, 0, 2, 3, 4, 5, 6, 7]])
        assert main(["verify", "--plan", str(plan), "--target", str(swap)]) == 3

    def test_feasibility_writes_null_selectivity(self, tmp_path, config_dir, empty_plan, capsys):
        plan, _ = empty_plan
        out = tmp_path / "feas.json"
        capsys.readouterr()
        assert main(["feasibility", "--plan", str(plan), "--material",
                     str(config_dir / "material.json"), "--out", str(out)]) == 0
        assert "angular_selectivity_rad: inf" in capsys.readouterr().out
        payload = strict_json(out)
        assert payload["angular_selectivity_rad"] is None
        assert payload["recordings"] == 0


class TestStrictJson:
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_tokens_exit_2(self, tmp_path, config_dir, capsys, token):
        geometry = config_dir / "geometry.json"
        geometry.write_text(
            geometry.read_text().replace('"lambda_m": 6.33e-07', f'"lambda_m": {token}')
        )
        target = tmp_path / "u.json"
        write_matrix(target, np.eye(8))
        capsys.readouterr()
        out = tmp_path / "plan.json"
        assert main(["compile", "--unitary", str(target), "--geometry", str(geometry),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(geometry) in err
        assert f"non-standard JSON number {token}" in err
        assert not out.exists()

    def test_dump_refuses_non_finite(self, tmp_path):
        with pytest.raises(ValueError):
            dump_json({"x": math.nan}, tmp_path / "x.json")
        assert not (tmp_path / "x.json").exists()

    def test_every_written_file_is_strict_json(self, tmp_path, config_dir):
        cfg = str(config_dir)
        target = tmp_path / "u.json"
        write_matrix(target, CNOT_MATRIX)
        small = tmp_path / "small"
        assert main(["init", "--dimension", "4", "--out-dir", str(small)]) == 0
        runs = []
        for layout in ("multiplex", "stacked"):
            plan = tmp_path / f"{layout}.json"
            runs += [
                ["compile", "--unitary", str(target), "--geometry",
                 str(small / "geometry.json"), "--layout", layout, "--out", str(plan)],
                ["simulate", "--plan", str(plan), "--out", str(tmp_path / f"{layout}-r.json")],
                ["simulate", "--plan", str(plan), "--mode", "detuned", "--crosstalk",
                 "--out", str(tmp_path / f"{layout}-d.json")],
                ["verify", "--plan", str(plan), "--target", str(target),
                 "--out", str(tmp_path / f"{layout}-v.json")],
                ["feasibility", "--plan", str(plan), "--material", f"{cfg}/material.json",
                 "--out", str(tmp_path / f"{layout}-f.json")],
            ]
        runs += [[demo, "--out-dir", str(tmp_path / demo)]
                 for demo in ("cnot-demo", "teleport-demo")]
        for argv in runs:
            assert main(argv) == 0, argv
        written = sorted(tmp_path.rglob("*.json"))
        assert len(written) == 21
        for path in written:
            strict_json(path)
