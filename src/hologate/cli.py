"""Command-line front end.

Exit codes: 0 success, 1 internal numerical failure, 2 malformed input
files or flags, 3 verification below threshold.

`main` builds its parser once per process and calls this module's
`cmd_<command>` as found at call time.  A process that calls `main` many
times (tests, notebooks, scripts, the benchmark) saves about 1 ms a call;
a console-script run, which parses once, saves nothing.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import circuit as qc
from . import cmt, compiler, formats, metrics, samples
from .errors import DimensionMismatch, HologateError, StepUnderflow
from .modes import ConeGeometry, Role, make_cone_basis

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_BAD_INPUT = 2
EXIT_BELOW_THRESHOLD = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hologate",
        description=(
            "Compile small unitaries and circuits into volume-hologram "
            "recording plans and verify them with coupled-mode simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="write sample geometry and material config files")
    p_init.add_argument("--dimension", type=int, default=8)
    p_init.add_argument("--out-dir", default=".")

    p_compile = sub.add_parser("compile", help="turn a unitary or circuit into a recording plan")
    src = p_compile.add_mutually_exclusive_group(required=True)
    src.add_argument("--unitary", help="matrix JSON file")
    src.add_argument("--circuit", help="circuit JSON file")
    p_compile.add_argument("--geometry", required=True, help="cone geometry JSON file")
    p_compile.add_argument("--out", required=True, help="plan file to write")
    p_compile.add_argument(
        "--layout",
        choices=("multiplex", "stacked"),
        default="multiplex",
        help="multiplex: transform + redirection holograms; "
        "stacked: single-exposure gratings (signed permutations only)",
    )
    p_compile.add_argument("--delta-n", type=float, default=compiler.DEFAULT_INDEX_MODULATION)
    p_compile.add_argument("--label", default="multiplex")

    p_sim = sub.add_parser("simulate", help="simulate a plan and write the transfer result")
    p_sim.add_argument("--plan", required=True)
    p_sim.add_argument("--material", help="material JSON file (modulation ceiling check)")
    p_sim.add_argument("--mode", choices=("ideal", "detuned"), default="ideal",
                       help="no effect: --crosstalk alone adds parasitic couplings")
    p_sim.add_argument("--crosstalk", action="store_true")
    p_sim.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="simulate a plan and compare against a target unitary")
    p_verify.add_argument("--plan", required=True)
    p_verify.add_argument("--target", required=True, help="matrix JSON file")
    p_verify.add_argument("--material")
    p_verify.add_argument("--threshold", type=float, default=metrics.DEFAULT_FIDELITY_THRESHOLD)
    p_verify.add_argument("--out", help="optional report JSON file")

    p_sweep = sub.add_parser("sweep", help="angular selectivity sweep to CSV")
    p_sweep.add_argument("--plan", required=True)
    p_sweep.add_argument("--material")
    p_sweep.add_argument("--tilt-range", type=float, required=True, help="rad")
    p_sweep.add_argument("--samples", type=int, default=65)
    p_sweep.add_argument("--crosstalk", action="store_true")
    p_sweep.add_argument("--out", required=True)

    p_feas = sub.add_parser("feasibility", help="thickness/selectivity budget for a plan")
    p_feas.add_argument("--plan", required=True)
    p_feas.add_argument("--material", required=True)
    p_feas.add_argument("--out", help="optional report JSON file")

    p_qt = sub.add_parser(
        "teleport-demo",
        help="compile, simulate, and verify the canned teleportation element",
    )
    p_cnot = sub.add_parser(
        "cnot-demo", help="compile, simulate, and verify the canned 4-grating CNOT stack"
    )
    for p_demo in (p_qt, p_cnot):
        p_demo.add_argument("--geometry", help="geometry JSON (default: built-in sample)")
        p_demo.add_argument("--material", help="material JSON (default: built-in sample)")
        p_demo.add_argument("--out-dir", help="write plan/result/report/sweep files here")
        p_demo.add_argument(
            "--threshold", type=float, default=metrics.DEFAULT_FIDELITY_THRESHOLD
        )

    return parser


_parser = functools.cache(build_parser)


def _load_geometry(path: str) -> ConeGeometry:
    return formats.geometry_from_dict(formats.load_json(path))


def _load_material(path: str | None):
    return None if path is None else formats.material_from_dict(formats.load_json(path))


def _load_plan(path: str) -> compiler.GratingStack:
    return formats.plan_from_dict(formats.load_json(path))


def cmd_init(args: argparse.Namespace) -> int:
    modes = make_cone_basis(samples.sample_geometry(args.dimension))  # n = 1 fits no plan
    geometry = formats.geometry_to_dict(modes.geometry)
    geometry["_note"] = "illustrative sample values; replace with your own design"
    material = formats.material_to_dict(samples.sample_material())
    material["_note"] = "illustrative sample values; replace with your own medium data"
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    formats.dump_json(geometry, out_dir / "geometry.json")
    formats.dump_json(material, out_dir / "material.json")
    print(f"wrote {out_dir / 'geometry.json'} and {out_dir / 'material.json'}")
    return EXIT_OK


def _target_unitary(args: argparse.Namespace, dimension: int) -> np.ndarray:
    if args.unitary:
        return formats.matrix_from_dict(formats.load_json(args.unitary))
    circuit = formats.circuit_from_dict(formats.load_json(args.circuit))
    # Compared without forming 2**width, which a huge width cannot afford.
    if circuit.width >= dimension.bit_length() or 1 << circuit.width != dimension:
        raise DimensionMismatch(
            f"circuit width {circuit.width} needs dimension 2**{circuit.width}, "
            f"but the geometry has n = {dimension}"
        )
    deferred = qc.defer_measurements(circuit)
    return qc.circuit_unitary(qc.without_terminal_measurements(deferred))


def cmd_compile(args: argparse.Namespace) -> int:
    geometry = _load_geometry(args.geometry)
    unitary = _target_unitary(args, geometry.dimension)
    modes = make_cone_basis(geometry)
    if args.layout == "stacked":
        stack = compiler.compile_signed_permutation_stack(
            unitary, modes, index_modulation=args.delta_n
        )
    else:
        stack = compiler.GratingStack(
            holograms=(
                compiler.compile_multiplex(
                    unitary, modes, index_modulation=args.delta_n, label=args.label
                ),
                compiler.compile_redirection(modes, index_modulation=args.delta_n),
            ),
            mode_set=modes,
        )
    formats.dump_json(formats.plan_to_dict(stack), args.out)
    print(f"wrote plan with {len(stack.holograms)} hologram(s) to {args.out}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    stack = _load_plan(args.plan)
    material = _load_material(args.material)
    stack = cmt.tune_stack(stack, material)
    result = cmt.simulate_stack(stack, material, include_crosstalk=args.crosstalk)
    formats.dump_json(formats.result_to_dict(result), args.out)
    print(f"simulated {len(stack.holograms)} hologram(s); wrote {args.out}")
    return EXIT_OK


def _output_space(stack: compiler.GratingStack) -> Role:
    if not stack.holograms:
        return Role.SIGNAL  # an empty stack leaves the light on the signal cone
    last = stack.holograms[-1]._fringes
    return last.modes[last.partner[0]].role


def _verified(stack: compiler.GratingStack, target: np.ndarray,
              material: compiler.MaterialSpec | None, threshold: float):
    """The tuned stack, its result, and its fidelity on the `_output_space` cone."""
    stack = cmt.tune_stack(stack, material)
    result = cmt.simulate_stack(stack, material)
    realized = metrics.realized_unitary(result, stack.mode_set, _output_space(stack))
    return stack, result, metrics.process_fidelity(target, realized, threshold=threshold)


def cmd_verify(args: argparse.Namespace) -> int:
    stack = _load_plan(args.plan)
    target = formats.matrix_from_dict(formats.load_json(args.target))
    target = compiler.as_unitary(target, stack.mode_set.dimension)
    _, _, report = _verified(stack, target, _load_material(args.material), args.threshold)
    if args.out:
        formats.dump_json(formats.fidelity_report_to_dict(report), args.out)
    status = "PASS" if report.passed else "FAIL"
    print(
        f"fidelity {report.fidelity:.12f} (threshold {report.threshold:.12f}) "
        f"global phase {report.global_phase:+.6f} rad: {status}"
    )
    return EXIT_OK if report.passed else EXIT_BELOW_THRESHOLD


def cmd_sweep(args: argparse.Namespace) -> int:
    stack = _load_plan(args.plan)
    material = _load_material(args.material)
    rows = cmt.selectivity_sweep(
        stack, material, args.tilt_range, args.samples, include_crosstalk=args.crosstalk
    )
    formats.write_sweep_csv(rows, args.out)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return EXIT_OK


def cmd_feasibility(args: argparse.Namespace) -> int:
    stack = _load_plan(args.plan)
    report = compiler.feasibility_report(stack, _load_material(args.material))
    payload = {
        "recordings": report.recordings,
        "dimension": report.dimension,
        "required_thickness_m": report.required_thickness,
        "per_dimension_thickness_m": report.per_dimension_thickness,
        "q_ratio": report.q_ratio,
        "volume_regime": report.volume_regime,
        "angular_selectivity_rad": report.angular_selectivity,
        "selectivity_ok": report.selectivity_ok,
        "dimension_ok": report.dimension_ok,
        "modulation_ok": report.modulation_ok,
        "max_dimension": report.max_dimension,
    }
    if args.out:
        # An empty plan has infinite selectivity, which JSON spells null.
        selectivity = report.angular_selectivity
        finite = selectivity if math.isfinite(selectivity) else None
        formats.dump_json({**payload, "angular_selectivity_rad": finite}, args.out)
    for key in sorted(payload):
        print(f"{key}: {payload[key]}")
    return EXIT_OK


def _demo_geometry(args: argparse.Namespace, dimension: int) -> ConeGeometry:
    return _load_geometry(args.geometry) if args.geometry else samples.sample_geometry(dimension)


def _demo_material(args: argparse.Namespace) -> compiler.MaterialSpec:
    return _load_material(args.material) if args.material else samples.sample_material()


def _run_demo(
    args: argparse.Namespace,
    name: str,
    stack: compiler.GratingStack,
    target: np.ndarray,
    material: compiler.MaterialSpec,
    extra_report: dict,
) -> int:
    stack, result, report = _verified(stack, target, material, args.threshold)
    feas = compiler.feasibility_report(stack, material)
    sweep_rows = cmt.selectivity_sweep(
        compiler.GratingStack(holograms=stack.holograms[:1], mode_set=stack.mode_set),
        material,
        tilt_range=2.0 * feas.angular_selectivity,
        samples=9,
    )

    print(f"{name}: {len(stack.holograms)} hologram(s), "
          f"{feas.recordings} recording(s), "
          f"required thickness {feas.required_thickness * 1e3:.1f} mm")
    print(f"{name}: signal-space fidelity {report.fidelity:.12f} "
          f"(global phase {report.global_phase:+.6f} rad)")
    for key in sorted(extra_report):
        print(f"{name}: {key} = {extra_report[key]}")
    status = "PASS" if report.passed else "FAIL"
    print(f"{name}: {status} at threshold {report.threshold:.12f}")

    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        formats.dump_json(formats.plan_to_dict(stack), out_dir / "plan.json")
        formats.dump_json(formats.result_to_dict(result), out_dir / "result.json")
        payload = formats.fidelity_report_to_dict(report)
        payload.update({f"demo_{k}": v for k, v in extra_report.items()})
        formats.dump_json(payload, out_dir / "report.json")
        formats.write_sweep_csv(sweep_rows, out_dir / "sweep.csv")
    return EXIT_OK if report.passed else EXIT_BELOW_THRESHOLD


def cmd_teleport_demo(args: argparse.Namespace) -> int:
    geometry = _demo_geometry(args, 8)
    material = _demo_material(args)
    modes = make_cone_basis(geometry)
    target = qc.TELEPORT_UNITARY_UNCONDITIONAL_Z
    multiplexed = compiler.compile_multiplex(target, modes, label="teleport-multiplex")
    stack = compiler.GratingStack(
        holograms=(multiplexed, compiler.compile_redirection(modes)),
        mode_set=modes,
    )

    # Reference-cone check of the bare multiplexed element.
    bare = compiler.GratingStack(holograms=(multiplexed,), mode_set=modes)
    _, _, bare_report = _verified(bare, target, material, metrics.DEFAULT_FIDELITY_THRESHOLD)

    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    extra = {
        "bare_reference_fidelity": bare_report.fidelity,
        "teleport_fidelity_conditional_plus_state": qc.teleport_check(
            plus, qc.teleportation_unitary("conditional")
        ).wire3_fidelity,
        "teleport_fidelity_unconditional_plus_state": qc.teleport_check(
            plus, target
        ).wire3_fidelity,
    }
    code = _run_demo(args, "teleport-demo", stack, target, material, extra)
    if bare_report.fidelity < args.threshold:
        return EXIT_BELOW_THRESHOLD
    return code


def cmd_cnot_demo(args: argparse.Namespace) -> int:
    geometry = _demo_geometry(args, 4)
    material = _demo_material(args)
    modes = make_cone_basis(geometry)
    stack = compiler.compile_signed_permutation_stack(qc.CNOT_MATRIX, modes)
    extra = {"gratings": len(stack.holograms)}
    return _run_demo(args, "cnot-demo", stack, qc.CNOT_MATRIX, material, extra)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (StepUnderflow, np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (HologateError, ValueError, KeyError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
