#!/usr/bin/env python3
"""hologate benchmark: seeded CLI jobs in one closed loop, checked answers.

Run from the repository root:

    python3 bench/run.py --workload verify-multiplex --seed 1 --seconds 15 --trace 0

One client runs the workload's job cycle through ``hologate.cli.main``
in this process, each job starting when the previous one has returned.
It runs whole cycles until ``--seconds`` have passed.  Every job's exit
code and output files are checked against an answer known from its
input (see checks.py).  Job times are scaled to a reference machine
speed by a calibration kernel run around each job (see Clock).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
job untraced and then traced, checks that both copies write the same
bytes, and reports per-layer metrics per cycle.  Both print every metric
by name with its unit; the last line is one JSON object with the metrics
of the chosen mode.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracer as tr
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
#: Set-up is repeated this many times and its median reported.
SETUP_ROUNDS = 7
#: A timed run repeats its cycle at least this often, so each job's
#: median run is taken from several.
MIN_CYCLES = 3
#: ... and runs at least this many jobs, so the tail percentile has ten
#: jobs beyond it.
MIN_JOBS = 11
#: Failures listed on stderr, at most.
MAX_REPORTED_FAILURES = 5
#: Iterations of the calibration kernel, and its run time at the reference
#: machine speed that reported times are scaled to.
KERNEL_STEPS = 400
KERNEL_REFERENCE_S = 0.008
_KERNEL_MATRIX = (np.arange(64, dtype=float).reshape(8, 8) % 7 - 3.0) / 7.0 + 0j

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in tr.LAYER_NAMES:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.share": "ratio", f"{layer}.errors": "count"})
    units.update({
        "cmt.build_coupling.builds_per_hologram": "ratio",
        "cmt.build_coupling.recorded_fringes": "count",
        "cmt.build_coupling.parasitic_fringes": "count",
        "cmt.build_coupling.parasitic_unused": "count",
        "cmt.detuned_transfer.crosstalk_calls": "count",
        "formats.bytes_read": "bytes",
        "formats.bytes_written": "bytes",
        "trace.overhead_ratio": "ratio",
        "fail_ratio": "ratio",
    })
    return units


def calibration_kernel() -> float:
    """Wall time of a fixed mix of the kinds of work the program does: small
    complex matrix products in a Python loop, and Python float arithmetic."""
    start = time.perf_counter()
    y = np.eye(8, dtype=complex)
    acc = 0.0
    for i in range(KERNEL_STEPS):
        y = (_KERNEL_MATRIX * np.exp(1j * _KERNEL_MATRIX.real * i)) @ y
        y /= np.abs(y).max()
        for j in range(16):
            acc += math.hypot(i, j)
    return time.perf_counter() - start


class Clock:
    """Times work in seconds at the reference machine speed.

    The machine is shared: its speed for this process swings by up to 1.8x
    over seconds to minutes, so raw wall times of the same job differ by
    20-50 % between runs.  The clock runs the calibration kernel before and
    after each timed piece of work and scales the work's wall time by
    KERNEL_REFERENCE_S over the kernel's mean time.
    """

    def __init__(self):
        self._last = calibration_kernel()

    def scaled(self, wall_s: float) -> float:
        before, self._last = self._last, calibration_kernel()
        return wall_s * KERNEL_REFERENCE_S / ((before + self._last) / 2.0)


@dataclass
class Outcome:
    wall_s: float
    error: str | None
    digest: str | None
    #: Wall time scaled to the reference machine speed.
    seconds: float = 0.0


def run_job(cli, job: wl.Job) -> Outcome:
    """Run one job through the CLI, then check and hash what it wrote."""
    for path in job.outputs:
        path.unlink(missing_ok=True)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(job.argv)
    except Exception as exc:  # a traceback out of the CLI fails the job
        return Outcome(time.perf_counter() - start, f"{job.name}: raised {exc!r}", None)
    wall_s = time.perf_counter() - start
    try:
        job.check(code)
    except (checks.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
        return Outcome(wall_s, f"{job.name}: {exc} | {sink.getvalue().strip()[-200:]}", None)
    digest = hashlib.sha256()
    for path in job.outputs:
        digest.update(path.read_bytes())
    return Outcome(wall_s, None, digest.hexdigest())


class Run:
    """The clock and the failures among the jobs a benchmark run attempted."""

    def __init__(self):
        self.clock = Clock()
        self.failures: list[str] = []
        self.attempted = 0

    def job(self, cli, job: wl.Job, expected_digest: str | None = None) -> Outcome:
        outcome = run_job(cli, job)
        outcome.seconds = self.clock.scaled(outcome.wall_s)
        self.attempted += 1
        if outcome.error:
            self.failures.append(outcome.error)
        elif expected_digest is not None and outcome.digest != expected_digest:
            self.failures.append(f"{job.name}: output differs from the same job's earlier output")
        return outcome


def fresh_modules() -> dict:
    """Import hologate anew, so each set-up round pays the import."""
    for name in [m for m in sys.modules if m == "hologate" or m.startswith("hologate.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"hologate.{name}") for name in tr.MODULES}


def set_up(workload: str, seed: int, work: Path, smoke: bool, run: Run):
    """Import, generate inputs, pre-compile plans and run one warm-up job.
    Returns the scaled set-up time, the modules and the job cycle."""
    start = time.perf_counter()
    modules = fresh_modules()
    ws = wl.Workspace(work, seed)
    cycle = wl.WORKLOADS[workload](ws, smoke)
    for job in [*ws.setup, cycle[0]]:
        outcome = run_job(modules["cli"], job)
        run.attempted += 1
        if outcome.error:
            run.failures.append("set-up " + outcome.error)
    return run.clock.scaled(time.perf_counter() - start), modules, cycle


def job_times(outcomes: list[Outcome], cycle_length: int) -> list[float]:
    """Every run of a job, timed at the median of that job's scaled runs.

    Jobs are deterministic, so the runs of one job differ only by machine
    noise that the clock's scaling leaves behind; the median of each job's
    runs removes the rest.
    """
    per_job = [
        statistics.median(o.seconds for o in outcomes[k::cycle_length])
        for k in range(cycle_length)
    ]
    return [per_job[k % cycle_length] for k in range(len(outcomes))]


def tail(times: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten jobs beyond it (nearest rank)."""
    n = len(times)
    percentile = max(0, (100 * (n - 10)) // n)
    rank = max(1, math.ceil(percentile * n / 100))
    return sorted(times)[rank - 1], percentile


def end_to_end(setup_s: float, times: list[float]) -> dict[str, float]:
    """Job rates leave out the benchmark's own checking between jobs."""
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(times) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail(times)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def timed_loop(cli, cycle: list[wl.Job], seconds: float, run: Run) -> list[Outcome]:
    """Whole cycles until `seconds` have passed, at least MIN_CYCLES of them
    and at least MIN_JOBS jobs.  Outputs must repeat from cycle to cycle."""
    outcomes: list[Outcome] = []
    digests: dict[int, str | None] = {}
    start = time.perf_counter()
    cycles = 0
    while True:
        for k, job in enumerate(cycle):
            outcome = run.job(cli, job, digests.get(k))
            digests.setdefault(k, outcome.digest)
            outcomes.append(outcome)
        cycles += 1
        if (time.perf_counter() - start >= seconds and cycles >= MIN_CYCLES
                and len(outcomes) >= MIN_JOBS):
            return outcomes


def traced_loop(modules: dict, cycle: list[wl.Job], seconds: float, run: Run):
    """Each job untraced and then traced, in whole cycles until half of
    `seconds` has passed.  The traced copy must write the same bytes.
    Returns both copies' outcomes and the tracer."""
    cli = modules["cli"]
    tracer = tr.Tracer()
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    start = time.perf_counter()
    while True:
        for job in cycle:
            plain.append(run.job(cli, job))
            tracer.install(modules)
            try:
                tracer.begin_job(len(traced), job.crosstalk)
                traced.append(run.job(cli, job, plain[-1].digest))
            finally:
                tracer.uninstall()
        if time.perf_counter() - start >= seconds / 2:
            return plain, traced, tracer


def layer_metrics(tracer: tr.Tracer, cycle: list[wl.Job], plain: list[Outcome],
                  traced: list[Outcome], run: Run) -> dict[str, float]:
    """Per-layer metrics per job cycle.  Self times are wall seconds; the
    overhead ratio compares scaled times."""
    cycles = len(traced) // len(cycle)
    traced_wall = sum(o.wall_s for o in traced)
    metrics = {}
    for layer, stats in tracer.layers.items():
        metrics[f"{layer}.calls"] = stats.calls / cycles
        metrics[f"{layer}.self_s"] = stats.self_s / cycles
        metrics[f"{layer}.share"] = stats.self_s / traced_wall
        metrics[f"{layer}.errors"] = stats.errors / cycles
    counts = tracer.counts
    holograms = sum(job.holograms for job in cycle) * cycles
    metrics["cmt.build_coupling.builds_per_hologram"] = counts["builds"] / holograms
    for name in ("recorded_fringes", "parasitic_fringes", "parasitic_unused"):
        metrics[f"cmt.build_coupling.{name}"] = counts[name] / cycles
    metrics["cmt.detuned_transfer.crosstalk_calls"] = counts["crosstalk_calls"] / cycles
    metrics["formats.bytes_read"] = counts["bytes_read"] / cycles
    metrics["formats.bytes_written"] = counts["bytes_written"] / cycles
    metrics["trace.overhead_ratio"] = (
        sum(o.seconds for o in traced) / sum(o.seconds for o in plain) - 1.0
    )
    metrics["fail_ratio"] = len(run.failures) / run.attempted
    return metrics


def environment() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas_name}, nproc {len(os.sched_getaffinity(0))}")


def print_metrics(values: dict[str, float], units: dict[str, str]) -> None:
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny job cycle and one set-up round, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hologate" / "__init__.py").is_file():
        print(f"error: no hologate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args: argparse.Namespace, work: Path) -> int:
    run = Run()
    rounds = [set_up(args.workload, args.seed, work, args.smoke, run)
              for _ in range(1 if args.smoke else SETUP_ROUNDS)]
    setup_s = statistics.median(seconds for seconds, _, _ in rounds)
    _, modules, cycle = rounds[-1]
    print(f"environment: {environment()}")
    print(f"workload {args.workload}: {len(cycle)} jobs per cycle, one client, closed loop")

    if args.trace:
        outcomes, traced, tracer = traced_loop(modules, cycle, args.seconds, run)
        spans = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans)
        print(f"{len(tracer.spans)} spans of {len(traced)} traced jobs written to "
              f"{spans.relative_to(ROOT)}")
        print("untraced jobs of this traced run:")
        print_metrics(end_to_end(setup_s, job_times(outcomes, len(cycle))), END_TO_END)
        values, units = layer_metrics(tracer, cycle, outcomes, traced, run), per_layer_units()
    else:
        outcomes = timed_loop(modules["cli"], cycle, args.seconds, run)
        values, units = end_to_end(setup_s, job_times(outcomes, len(cycle))), END_TO_END

    print_metrics(values, units)
    times = job_times(outcomes, len(cycle))
    walls = [o.wall_s for o in outcomes]
    print(f"job_tail_s is p{tail(times)[1]} of {len(times)} jobs; each of the {len(cycle)} "
          f"jobs ran {len(times) // len(cycle)} times and is timed at its median run")
    print(f"times are scaled to the reference machine speed; unscaled wall clock: "
          f"job_p50 {statistics.median(walls)!r} s, job_tail {tail(walls)[0]!r} s, "
          f"jobs_per_s {len(walls) / sum(walls)!r}")
    print(f"fail_ratio = {len(run.failures) / run.attempted!r} ratio "
          f"({len(run.failures)} of {run.attempted} jobs)")
    for failure in run.failures[:MAX_REPORTED_FAILURES]:
        print(f"failure: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
