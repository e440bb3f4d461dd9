import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hologate.cli as cli
import hologate.cmt as cmt
from hologate.circuit import CNOT_MATRIX
from hologate.cli import build_parser, main
from hologate.formats import dump_json, load_json, matrix_to_dict
from hologate.modes import MAX_DIMENSION

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

    def test_verify_n64_haar_fails_on_merged_replays(self, tmp_path, monkeypatch, capsys):
        # At N = 64 the sample geometry's 5 mm aperture cannot tell some
        # parasitic replays from recorded pairs, and pass 2 merges them onto
        # the recorded couplings: the plan misses its own target, and verify
        # says why.  With no parasitic candidates the same plan verifies at
        # fidelity 1, and says nothing.
        cfg = tmp_path / "cfg"
        assert main(["init", "--dimension", "64", "--out-dir", str(cfg)]) == 0
        target = tmp_path / "haar64.json"
        write_matrix(target, haar_unitary(64, np.random.default_rng(64)))
        plan = tmp_path / "plan64.json"
        assert main(["compile", "--unitary", str(target),
                     "--geometry", str(cfg / "geometry.json"), "--out", str(plan)]) == 0
        verify = ["verify", "--plan", str(plan), "--target", str(target), "--out"]
        capsys.readouterr()
        assert main([*verify, str(tmp_path / "report.json")]) == 3
        assert load_json(tmp_path / "report.json")["fidelity"] < 0.95
        assert capsys.readouterr().err == (
            "note: 512 parasitic replays merged onto recorded pairs: the aperture "
            "does not resolve their gratings within 2*pi/D\n")

        monkeypatch.setattr(cmt, "_near_pairs", lambda *args: iter(()))
        assert main([*verify, str(tmp_path / "lazy.json")]) == 0
        assert load_json(tmp_path / "lazy.json")["fidelity"] > 1.0 - 1e-9
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("matched, code", [(True, 0), (False, 3)])
    def test_verify_without_merged_replays_writes_no_note(self, tmp_path, capsys, matched,
                                                          code):
        # Every N = 16 replay is its own pair or is dropped as degenerate.
        cfg = tmp_path / "cfg"
        assert main(["init", "--dimension", "16", "--out-dir", str(cfg)]) == 0
        rng = np.random.default_rng(16)
        right, wrong = tmp_path / "right.json", tmp_path / "wrong.json"
        write_matrix(right, haar_unitary(16, rng))
        write_matrix(wrong, haar_unitary(16, rng))
        plan = tmp_path / "plan.json"
        assert main(["compile", "--unitary", str(right),
                     "--geometry", str(cfg / "geometry.json"), "--out", str(plan)]) == 0
        capsys.readouterr()
        target = right if matched else wrong
        assert main(["verify", "--plan", str(plan), "--target", str(target)]) == code
        assert capsys.readouterr().err == ""

    def test_compile_non_unitary_exits_2_with_diagnostic(self, tmp_path, config_dir, capsys):
        bad = tmp_path / "bad.json"
        write_matrix(bad, np.ones((8, 8)))
        assert main([
            "compile", "--unitary", str(bad),
            "--geometry", str(config_dir / "geometry.json"),
            "--out", str(tmp_path / "plan.json"),
        ]) == 2
        assert "NotUnitary" in capsys.readouterr().err

    @pytest.mark.parametrize("scale, code", [(1 + 1e-13, 0), (1 + 2e-12, 2)])
    def test_compile_names_the_row_it_cannot_record(self, tmp_path, capsys, scale, code):
        # Both scalings pass the 1e-10 unitarity bound; only the second puts
        # row 1's squared norm outside the 1e-12 bound an exposure needs.
        cfg = tmp_path / "cfg"
        assert main(["init", "--dimension", "4", "--out-dir", str(cfg)]) == 0
        unitary = haar_unitary(4, np.random.default_rng(11))
        unitary[0] *= scale
        target, plan = tmp_path / "target.json", tmp_path / "plan.json"
        write_matrix(target, unitary)
        capsys.readouterr()
        assert main([
            "compile", "--unitary", str(target),
            "--geometry", str(cfg / "geometry.json"), "--out", str(plan),
        ]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == "" and plan.exists()
        else:
            assert err.startswith("error: NotUnitary: row 1 ") and "1e-12" in err
            assert not plan.exists()

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

    @pytest.mark.parametrize("samples", [10**13, cmt.MAX_SAMPLES + 1])
    def test_sweep_sample_count_above_the_ceiling_exits_2(self, tmp_path, capsys, monkeypatch,
                                                          samples):
        assert main(["cnot-demo", "--out-dir", str(tmp_path / "demo")]) == 0
        capsys.readouterr()

        # Refused before any tuning or coupling build, so nothing is allocated.
        def never(*args, **kwargs):
            raise AssertionError("a refused sweep tuned or built a hologram")

        monkeypatch.setattr(cmt, "tune_stack", never)
        monkeypatch.setattr(cmt, "build_coupling", never)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--plan", str(tmp_path / "demo" / "plan.json"),
                     "--tilt-range", "0.001", "--samples", str(samples), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:") and f"at most {cmt.MAX_SAMPLES} samples" in err
        assert not out.exists()

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
    """Every command computes each hologram's coupling exactly once."""

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
        """(label, system) of every `build_coupling` call; the list keeps each
        system alive, so distinct ids are distinct couplings computed."""
        import hologate.cmt as cmt

        calls = []
        build = cmt.build_coupling

        def counted(hologram, *args, **kwargs):
            calls.append((hologram.label, build(hologram, *args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(cmt, "build_coupling", counted)
        return calls

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
        assert sorted(label for label, _ in builds) == ["multiplex", "redirection"]

    @pytest.mark.parametrize("demo, computed", [("cnot-demo", 4), ("teleport-demo", 2)])
    def test_demos_compute_one_coupling_per_hologram(self, builds, demo, computed):
        # The sweep of hologram 0 and teleport-demo's bare check reuse the
        # coupling the stack's simulation computed.
        assert main([demo]) == 0
        systems = {id(system): label for label, system in builds}
        assert len(systems) == computed
        assert sorted(systems.values()) == sorted({label for label, _ in builds})


class TestParserReuse:
    """`main` reuses one parser per process, and it behaves as a fresh one."""

    @staticmethod
    def fresh(argv, capsys):
        """Exit code, stdout and stderr of a new parser's parse_args(argv)."""
        try:
            build_parser().parse_args(argv)
            code = 0
        except SystemExit as exc:
            code = int(exc.code) if exc.code else 0
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_parser_built_once(self):
        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser()

    def test_errors_and_help_repeat_a_fresh_parser(self, tmp_path, capsys):
        missing_flag = ["verify", "--plan", "p.json"]
        sequence = [
            missing_flag,
            ["transmogrify"],
            ["compile", "--unitary", "u.json", "--circuit", "c.json",
             "--geometry", "g.json", "--out", "o.json"],
            ["sweep", "--help"],
            ["init", "--dimension", "2", "--out-dir", str(tmp_path / "cfg")],
            missing_flag,
        ]
        for argv in sequence:
            code, out, err = self.fresh(argv, capsys)
            assert main(argv) == code
            captured = capsys.readouterr()
            assert captured.err == err
            if argv[0] != "init":  # init's own output follows a successful parse
                assert captured.out == out
        assert [self.fresh(argv, capsys)[0] for argv in sequence] == [2, 2, 2, 0, 0, 2]

    def test_help_width_follows_columns(self, monkeypatch, capsys):
        texts = []
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            assert main(["sweep", "--help"]) == 0
            texts.append(capsys.readouterr().out)
            assert texts[-1] == self.fresh(["sweep", "--help"], capsys)[1]
        assert texts[0] != texts[1]

    def test_patched_command_runs_after_first_call(self, tmp_path, monkeypatch):
        assert main(["init", "--dimension", "2", "--out-dir", str(tmp_path)]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.plan) or 7)
        assert main(["verify", "--plan", "p.json", "--target", "t.json"]) == 7
        assert seen == ["p.json"]


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_stacked_identity_rejects_a_bad_delta_n(self, tmp_path, capsys, value):
        # The identity records no grating, so no exposure check sees --delta-n.
        cfg = tmp_path / "cfg"
        main(["init", "--dimension", "4", "--out-dir", str(cfg)])
        write_matrix(cfg / "eye.json", np.eye(4))
        capsys.readouterr()
        out = tmp_path / "plan.json"
        code = main(["compile", "--layout", "stacked", "--unitary", str(cfg / "eye.json"),
                     "--geometry", str(cfg / "geometry.json"), "--out", str(out),
                     f"--delta-n={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("error: ValueError: index modulation must be positive and finite, "
                       f"got {float(value)}\n")
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

    @pytest.mark.parametrize("demo", ["cnot-demo", "teleport-demo"])
    def test_simulating_the_written_plan_reproduces_the_result(self, tmp_path, demo):
        # The demo simulates its in-process stack (numpy coefficients in
        # compile order); simulate reads the written plan (Python complex
        # values in file order, reference components first).  Both must
        # give the same bytes.
        out = tmp_path / "out"
        assert main([demo, "--out-dir", str(out)]) == 0
        assert main(["simulate", "--plan", str(out / "plan.json"),
                     "--out", str(tmp_path / "sim.json")]) == 0
        assert (tmp_path / "sim.json").read_bytes() == (out / "result.json").read_bytes()

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


def test_input_files_are_read_as_utf8_in_the_c_locale(tmp_path):
    material = {"name": "PTR-Glas für 1550 nm", "max_total_thickness_m": 2.5e-2,
                "max_index_modulation": 1e-3, "meters_per_recording": 1e-3}
    path = tmp_path / "m.json"
    path.write_bytes(json.dumps(material, ensure_ascii=False).encode("utf-8"))
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = subprocess.run(
        [sys.executable, "-m", "hologate.cli", "cnot-demo", "--material", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_input_file_not_utf8_names_the_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"name": "\xff"}')
    assert main(["cnot-demo", "--material", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: FileFormatError: {path}: not UTF-8 text (")
    assert "can't decode byte 0xff in position 10" in err
    assert not (tmp_path / "out").exists()


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


class TestOnePropagator:
    """Every slab goes through one propagator; `--mode` has no effect and
    `--crosstalk` alone adds the parasitic couplings."""

    @pytest.mark.parametrize("n, layout, seed", [
        (2, "multiplex", 10), (4, "multiplex", 11), (8, "multiplex", 12), (4, "stacked", None),
    ])
    def test_simulate_modes_write_identical_results(self, tmp_path, n, layout, seed):
        cfg = tmp_path / "cfg"
        main(["init", "--dimension", str(n), "--out-dir", str(cfg)])
        target = tmp_path / "u.json"
        write_matrix(target, CNOT_MATRIX if seed is None else
                     haar_unitary(n, np.random.default_rng(seed)))
        plan = tmp_path / "plan.json"
        assert main(["compile", "--unitary", str(target), "--geometry",
                     str(cfg / "geometry.json"), "--layout", layout, "--out", str(plan)]) == 0
        written = []
        for k, flags in enumerate([["--mode", "ideal"], ["--mode", "detuned"],
                                   ["--mode", "ideal", "--crosstalk"],
                                   ["--mode", "detuned", "--crosstalk"]]):
            out = tmp_path / f"result-{k}.json"
            assert main(["simulate", "--plan", str(plan), *flags, "--out", str(out)]) == 0
            written.append(out.read_bytes())
        # --mode has no effect; --crosstalk alone decides.
        assert written[0] == written[1]
        assert written[2] == written[3]

    @pytest.mark.parametrize("thickness, mode", [(1e308, "detuned"), (2e3, "ideal")])
    def test_absurd_thickness_exits_1(self, tmp_path, capsys, thickness, mode):
        # A 2 km CNOT grating at delta n = 1e-4 is far past the material's
        # 2.5 cm ceiling and needs more RK4 steps than the bound allows, on
        # either mode.
        cfg = tmp_path / "cfg"
        main(["init", "--dimension", "4", "--out-dir", str(cfg)])
        target = tmp_path / "cnot.json"
        write_matrix(target, CNOT_MATRIX)
        plan = tmp_path / "plan.json"
        main(["compile", "--unitary", str(target), "--geometry", str(cfg / "geometry.json"),
              "--layout", "stacked", "--out", str(plan)])
        payload = load_json(plan)
        payload["holograms"][0]["thickness_m"] = thickness
        plan.write_text(json.dumps(payload))
        capsys.readouterr()
        out = tmp_path / "r.json"
        assert main(["simulate", "--plan", str(plan), "--mode", mode, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: StepUnderflow")
        if not math.isfinite(thickness * 1e3):
            assert f"thickness {thickness}" in err
        assert not out.exists()


class TestRejectedInput:
    @pytest.fixture()
    def identity_plan(self, tmp_path):
        cfg = tmp_path / "cfg"
        main(["init", "--dimension", "2", "--out-dir", str(cfg)])
        identity = tmp_path / "identity.json"
        write_matrix(identity, np.eye(2))
        plan = tmp_path / "plan.json"
        assert main(["compile", "--unitary", str(identity), "--geometry",
                     str(cfg / "geometry.json"), "--out", str(plan)]) == 0
        return plan

    @pytest.mark.parametrize("target", [
        2.0 * np.eye(2), np.array([[1e308, 0.0], [0.0, 1.0]]),
    ], ids=["2I", "1e308"])
    def test_verify_rejects_non_unitary_target(self, tmp_path, identity_plan, capsys, target):
        path = tmp_path / "target.json"
        write_matrix(path, target)
        capsys.readouterr()
        report = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--plan", str(identity_plan), "--target", str(path),
                         "--out", str(report)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "not unitary" in captured.err
        assert "PASS" not in captured.out
        assert not report.exists()

    @pytest.mark.parametrize("command", [
        ["verify", "--target", "{target}"],
        ["simulate", "--out", "{out}"],
        ["sweep", "--tilt-range", "0.001", "--samples", "2", "--out", "{out}"],
        ["feasibility", "--material", "{material}", "--out", "{out}"],
    ], ids=lambda argv: argv[0])
    def test_hologram_without_exposures_exits_2(self, tmp_path, identity_plan, capsys, command):
        payload = load_json(identity_plan)
        payload["holograms"][0]["exposures"] = []
        payload["holograms"][0]["thickness_m"] = 5e-3
        identity_plan.write_text(json.dumps(payload))
        files = {"target": str(tmp_path / "identity.json"), "out": str(tmp_path / "out"),
                 "material": str(tmp_path / "cfg" / "material.json")}
        argv = [command[0], "--plan", str(identity_plan),
                *(arg.format(**files) for arg in command[1:])]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "empty exposure list" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("wires", [[1.7], ["1"], [True], "1", 1],
                             ids=["float", "string", "bool", "bare-string", "bare-int"])
    def test_circuit_wires_must_be_integers(self, tmp_path, capsys, wires):
        cfg = tmp_path / "cfg"
        main(["init", "--dimension", "2", "--out-dir", str(cfg)])
        circuit = tmp_path / "circuit.json"
        circuit.write_text(json.dumps({
            "width": 1, "elements": [{"kind": "gate", "name": "h", "wires": wires}],
        }))
        capsys.readouterr()
        out = tmp_path / "plan.json"
        assert main(["compile", "--circuit", str(circuit), "--geometry",
                     str(cfg / "geometry.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'wires' must be a list of integers" in err
        assert not out.exists()

    @pytest.mark.parametrize("delta_n", [1e308, 1e160])
    def test_coupling_beyond_float_range_exits_2(self, tmp_path, identity_plan, capsys,
                                                  delta_n):
        # No --material, so no modulation ceiling stops the exposure first.
        payload = load_json(identity_plan)
        for hologram in payload["holograms"]:
            hologram["thickness_m"] = 0.005
            for exposure in hologram["exposures"]:
                exposure["delta_n"] = delta_n
        identity_plan.write_text(json.dumps(payload))
        capsys.readouterr()
        out = tmp_path / "result.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--mode", "detuned", "--plan", str(identity_plan),
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"modulation delta_n {delta_n}" in err
        assert "RuntimeWarning" not in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("width", [3, 24, 40])
    def test_circuit_width_must_match_geometry(self, tmp_path, capsys, width):
        # 2**24 and 2**40 are never formed: the width is checked first.
        cfg = tmp_path / "cfg"
        main(["init", "--dimension", "4", "--out-dir", str(cfg)])
        circuit = tmp_path / "circuit.json"
        circuit.write_text(json.dumps({"width": width, "elements": []}))
        capsys.readouterr()
        out = tmp_path / "plan.json"
        assert main(["compile", "--circuit", str(circuit), "--geometry",
                     str(cfg / "geometry.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: DimensionMismatch")
        assert f"circuit width {width}" in err and "n = 4" in err
        assert not out.exists()


class TestPlanModes:
    """A plan's mode keys are checked where they are read, naming their JSON path."""

    @pytest.fixture()
    def cnot_plan(self, tmp_path):
        assert main(["cnot-demo", "--out-dir", str(tmp_path / "demo")]) == 0
        return tmp_path / "demo" / "plan.json"

    def run(self, tmp_path, plan, command, capsys):
        material = tmp_path / "demo" / "material.json"
        dump_json({"max_total_thickness_m": 2.5e-2, "max_index_modulation": 1e-3}, material)
        out = tmp_path / "out.json"
        extra = ["--material", str(material)] if command == "feasibility" else []
        capsys.readouterr()
        assert main([command, "--plan", str(plan), *extra, "--out", str(out)]) == 2
        assert not out.exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "feasibility"])
    def test_unknown_role_names_its_path(self, tmp_path, cnot_plan, capsys, command):
        payload = load_json(cnot_plan)
        payload["holograms"][0]["exposures"][0]["coefficients"][0]["mode"]["role"] = "idler"
        cnot_plan.write_text(json.dumps(payload))
        err = self.run(tmp_path, cnot_plan, command, capsys)
        assert err.startswith(
            "error: FileFormatError: plan.holograms[0].exposures[0].coefficients[0].mode: "
            "unknown role 'idler'"
        )

    @pytest.mark.parametrize("index", [0, 5])
    @pytest.mark.parametrize("command", ["simulate", "feasibility"])
    def test_index_out_of_range_names_its_path(self, tmp_path, cnot_plan, capsys, command,
                                               index):
        payload = load_json(cnot_plan)
        payload["holograms"][1]["exposures"][0]["partner"]["index"] = index
        cnot_plan.write_text(json.dumps(payload))
        err = self.run(tmp_path, cnot_plan, command, capsys)
        assert err == (
            "error: FileFormatError: plan.holograms[1].exposures[0].partner: "
            f"no reference mode with index {index} (n = 4)\n"
        )

    @pytest.mark.parametrize("command", ["simulate", "feasibility"])
    def test_repeated_mode_exits_2(self, tmp_path, cnot_plan, capsys, command):
        # S3 at 0.6 and then at 1.0: the last entry alone has unit norm, so
        # letting it replace the first would pass every later check.
        payload = load_json(cnot_plan)
        coefficients = payload["holograms"][0]["exposures"][0]["coefficients"]
        assert coefficients == [{"mode": {"role": "signal", "index": 3}, "re": 1.0, "im": 0.0}]
        coefficients.insert(0, {"mode": {"role": "signal", "index": 3}, "re": 0.6, "im": 0.0})
        cnot_plan.write_text(json.dumps(payload))
        err = self.run(tmp_path, cnot_plan, command, capsys)
        assert err == (
            "error: FileFormatError: plan.holograms[0].exposures[0].coefficients[1].mode: "
            "listed twice in one exposure\n"
        )


class TestDimensionCap:
    def test_init_rejects_huge_dimension(self, tmp_path, capsys):
        out = tmp_path / "cfg"
        assert main(["init", "--dimension", "1000000000", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: InvalidGeometry: dimension must lie")
        assert not out.exists()

    def test_init_rejects_dimension_one(self, tmp_path, capsys):
        # No plan reader accepts n = 1, so init writes no file for it.
        out = tmp_path / "cfg"
        assert main(["init", "--dimension", "1", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: InvalidGeometry: a computational basis needs dimension >= 2\n"
        )
        assert not out.exists()

    def test_init_accepts_the_cap(self, tmp_path):
        assert main(["init", "--dimension", str(MAX_DIMENSION), "--out-dir", str(tmp_path)]) == 0
        assert load_json(tmp_path / "geometry.json")["n"] == MAX_DIMENSION

    @pytest.mark.parametrize("command", [
        ["compile", "--unitary", "{target}", "--geometry", "{geometry}", "--out", "{out}"],
        ["simulate", "--plan", "{plan}", "--out", "{out}"],
        ["verify", "--plan", "{plan}", "--target", "{target}", "--out", "{out}"],
        ["sweep", "--plan", "{plan}", "--tilt-range", "0.001", "--out", "{out}"],
        ["feasibility", "--plan", "{plan}", "--material", "{material}", "--out", "{out}"],
        ["cnot-demo", "--geometry", "{geometry}", "--out-dir", "{out}"],
    ], ids=lambda argv: argv[0])
    def test_huge_n_exits_2_before_any_mode(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg"
        main(["init", "--dimension", "2", "--out-dir", str(cfg)])
        target = tmp_path / "identity.json"
        write_matrix(target, np.eye(2))
        plan = tmp_path / "plan.json"
        assert main(["compile", "--unitary", str(target), "--geometry",
                     str(cfg / "geometry.json"), "--out", str(plan)]) == 0
        for path in (plan, cfg / "geometry.json"):
            payload = load_json(path)
            payload.get("geometry", payload)["n"] = 10**9
            path.write_text(json.dumps(payload))
        files = {"target": str(target), "geometry": str(cfg / "geometry.json"),
                 "plan": str(plan), "material": str(cfg / "material.json"),
                 "out": str(tmp_path / "out")}
        capsys.readouterr()
        assert main([arg.format(**files) for arg in command]) == 2
        assert "dimension must lie in [1, 256], got 1000000000" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSlabOrder:
    """A stack's slabs run in order, each coupling built just before its slab."""

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_stiff_slab_fails_before_a_later_ceiling(self, tmp_path, capsys, command):
        # Hologram 0 is 5 km thick, too stiff to integrate; hologram 1 records
        # at delta n = 2e-3, above the sample material's 1e-3 ceiling.  Were
        # every coupling built before the first slab ran, the run would exit 2
        # on the ceiling.
        cfg = tmp_path / "cfg"
        main(["init", "--dimension", "4", "--out-dir", str(cfg)])
        target = tmp_path / "cnot.json"
        write_matrix(target, CNOT_MATRIX)
        plan = tmp_path / "plan.json"
        assert main(["compile", "--unitary", str(target), "--geometry",
                     str(cfg / "geometry.json"), "--out", str(plan)]) == 0
        payload = load_json(plan)
        first, second = payload["holograms"]
        first["thickness_m"], second["thickness_m"] = 5000.0, 1e-3
        for exposure in second["exposures"]:
            exposure["delta_n"] = 2e-3
        plan.write_text(json.dumps(payload))
        out = tmp_path / "out.json"
        argv = {
            "simulate": ["simulate", "--out", str(out)],
            "verify": ["verify", "--target", str(target), "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--plan", str(plan), "--material", str(cfg / "material.json")]) == 1
        assert capsys.readouterr().err == (
            "error: StepUnderflow: step bound needs 63700571 integrator steps; "
            "system is too stiff\n"
        )
        assert not out.exists()


class TestBoundaryChecks:
    """Malformed files and flags exit 2 with an error line naming the cause."""

    @pytest.mark.parametrize("command, text", [
        ("verify", "[" * 100_000 + "]" * 100_000),
        ("feasibility", '{"format": "hologate-plan-v1", "holograms": [], "geometry": '
                        + '{"n": ' * 3000 + "4" + "}" * 3000 + "}"),
        ("simulate", '{"format": "hologate-plan-v1", "geometry": {"n": ' + "9" * 4400 + "}}"),
    ], ids=["array-nested-100000-deep", "geometry-nested-3000-deep", "integer-of-4400-digits"])
    def test_json_beyond_the_decoder_limits_exits_2(self, tmp_path, config_dir, capsys,
                                                    command, text):
        plan = tmp_path / "plan.json"
        plan.write_text(text)
        second = {"verify": ["--target", str(plan)],
                  "feasibility": ["--material", str(config_dir / "material.json")],
                  "simulate": ["--out", str(tmp_path / "r.json")]}[command]
        capsys.readouterr()
        assert main([command, "--plan", str(plan), *second]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: FileFormatError: {plan}: JSON beyond the reader's limits (")
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_top_level_json_array_exits_2(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text("[]")
        capsys.readouterr()
        assert main(["simulate", "--plan", str(plan), "--out", str(tmp_path / "r.json")]) == 2
        assert "expected a JSON object at top level" in capsys.readouterr().err

    def test_negative_tilt_range_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        main(["init", "--dimension", "2", "--out-dir", str(cfg)])
        target = tmp_path / "identity.json"
        write_matrix(target, np.eye(2))
        plan = tmp_path / "plan.json"
        assert main(["compile", "--unitary", str(target), "--geometry",
                     str(cfg / "geometry.json"), "--out", str(plan)]) == 0
        out = tmp_path / "s.csv"
        capsys.readouterr()
        # The `=` form: a separate "-1e-3" is taken for a flag by argparse.
        assert main(["sweep", "--plan", str(plan), "--tilt-range=-1e-3",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: ValueError: tilt range must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize("element, message", [
        ({"kind": "reset", "wire": 1}, "circuit.elements[0]: unknown kind 'reset'"),
        ({"kind": "cgate", "source_wire": 1, "gate": {"kind": "measure", "wire": 1}},
         "circuit.elements[0].gate: expected a gate, got kind 'measure'"),
    ], ids=["unknown-kind", "cgate-of-measure"])
    def test_bad_circuit_element_exits_2(self, tmp_path, capsys, element, message):
        cfg = tmp_path / "cfg"
        main(["init", "--dimension", "2", "--out-dir", str(cfg)])
        circuit = tmp_path / "circuit.json"
        circuit.write_text(json.dumps({"width": 1, "elements": [element]}))
        out = tmp_path / "plan.json"
        capsys.readouterr()
        assert main(["compile", "--circuit", str(circuit), "--geometry",
                     str(cfg / "geometry.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: FileFormatError:") and message in err
        assert not out.exists()
