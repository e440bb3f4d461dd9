"""Per-layer spans and counters, recorded from outside the program.

The tracer replaces public functions at their module attributes with
timing wrappers, so calls made through a module (``cmt.tune_stack``) or
through a module's own globals (``build_coupling`` inside ``cmt``) are
both seen, and spans nest: cli.main -> cmt.tune_stack ->
cmt.build_coupling.  The plan types' constructors are wrapped on the
class, so they count as compiler calls wherever they are built.

Spans are attributed to a layer by the module and name they wrap.  Only
listed names that exist are wrapped, so removing or merging a function
changes no metric name.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: (layer, module, public names).  `modes`, `samples` and `errors` are not
#: timed on their own: their time is the self time of their caller.
LAYERS = (
    ("cli", "cli", ("main",)),
    ("formats", "formats", (
        "load_json", "dump_json", "geometry_to_dict", "geometry_from_dict",
        "material_to_dict", "material_from_dict", "matrix_to_dict", "matrix_from_dict",
        "circuit_to_dict", "circuit_from_dict", "plan_to_dict", "plan_from_dict",
        "result_to_dict", "fidelity_report_to_dict", "write_sweep_csv",
    )),
    ("circuit", "circuit", (
        "validate_circuit", "gate_matrix", "embed_gate", "defer_measurements",
        "without_terminal_measurements", "circuit_unitary", "apply_unitary",
        "teleportation_circuit", "teleportation_unitary", "teleport_input",
        "teleport_check", "measurement_distribution",
    )),
    ("compiler", "compiler", (
        "compile_multiplex", "compile_redirection", "compile_cnot_stack",
        "compile_signed_permutation_stack", "feasibility_report",
        "Exposure", "Hologram", "GratingStack",
    )),
    ("cmt.build_coupling", "cmt", ("build_coupling",)),
    ("cmt.tune", "cmt", ("tune_stack", "optimal_thickness")),
    ("cmt.ideal_transfer", "cmt", ("ideal_transfer",)),
    ("cmt.detuned_transfer", "cmt", ("detuned_transfer",)),
    ("cmt.stack", "cmt", ("simulate_stack", "selectivity_sweep")),
    ("metrics", "metrics", ("process_fidelity", "realized_unitary", "diffraction_efficiency")),
)
LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS)
MODULES = tuple(dict.fromkeys(module for _, module, _ in LAYERS))


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0


def _field(item, name: str):
    return getattr(item, name) if hasattr(item, name) else item[name]


def fringe_counts(system) -> tuple[int, int]:
    """(recorded, parasitic) fringes of a coupling system: from its fringe
    table when it has one, else from its dense coupling matrices."""
    fringes = getattr(system, "fringes", None)
    if fringes is not None and len(fringes):
        recorded = sum(1 for f in fringes if _field(f, "recorded"))
        return recorded, len(fringes) - recorded
    mask = np.asarray(system.recorded_mask, dtype=bool)
    upper = np.triu(np.ones(mask.shape, dtype=bool), 1)
    coupled = np.asarray(system.kappa) != 0
    return int((mask & upper).sum()), int((coupled & ~mask & upper).sum())


class Tracer:
    """Spans and counters for the jobs run while it is installed."""

    def __init__(self):
        self.layers = {layer: LayerStats() for layer in LAYER_NAMES}
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._job_id = -1
        self._job_crosstalk = False
        self._hooks = {
            "cmt.build_coupling": self._on_build,
            "cmt.detuned_transfer": self._on_detuned,
            "formats.load_json": self._on_read,
            "formats.dump_json": self._on_write,
            "formats.write_sweep_csv": self._on_write,
        }

    # -- installation --------------------------------------------------------

    def install(self, modules: dict) -> None:
        for layer, module_name, names in LAYERS:
            module = modules[module_name]
            for name in names:
                target = getattr(module, name, None)
                qualname = f"{module_name}.{name}"
                if isinstance(target, type):
                    init = target.__dict__.get("__init__")
                    if init is not None:
                        self._patch(target, "__init__", self._wrap(layer, qualname, init))
                elif callable(target):
                    self._patch(module, name, self._wrap(layer, qualname, target))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def begin_job(self, job_id: int, crosstalk: bool) -> None:
        self._job_id = job_id
        self._job_crosstalk = crosstalk

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer: str, qualname: str, fn):
        hook = self._hooks.get(qualname)
        signature = inspect.signature(fn) if hook else None
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(layer, qualname)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(frame, True)
                raise
            leave(frame, False)
            if hook:
                hook(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _enter(self, layer: str, qualname: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [len(self.spans) + len(self._stack), parent, layer, qualname, 0.0,
                 time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, error: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, parent, layer, qualname, child, start = frame
        duration = end - start
        stats = self.layers[layer]
        stats.calls += 1
        stats.self_s += duration - child
        stats.errors += error
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.append((self._job_id, span_id, parent, layer, qualname, start, end, error))

    # -- counters ------------------------------------------------------------

    def _on_build(self, arguments: dict, system) -> None:
        recorded, parasitic = fringe_counts(system)
        self.counts["builds"] += 1
        self.counts["recorded_fringes"] += recorded
        self.counts["parasitic_fringes"] += parasitic
        if not self._job_crosstalk:
            self.counts["parasitic_unused"] += parasitic

    def _on_detuned(self, arguments: dict, result) -> None:
        if arguments.get("include_crosstalk"):
            self.counts["crosstalk_calls"] += 1

    def _on_read(self, arguments: dict, result) -> None:
        self.counts["bytes_read"] += os.path.getsize(arguments["path"])

    def _on_write(self, arguments: dict, result) -> None:
        self.counts["bytes_written"] += os.path.getsize(arguments["path"])

    def write_spans(self, path: Path) -> None:
        """All spans as JSON lines; times are perf_counter seconds."""
        keys = ("job", "span", "parent", "layer", "name", "start", "end", "error")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
