"""Span recording around the public calls into each ``repro`` layer.

The traced run wraps functions from outside the program: every target
below is replaced, at its defining module or class *and* at every
``repro.*`` module attribute that holds the same object, by a wrapper
that records one span.  Replacing every alias matters because callers
resolve names where they imported them -- ``sim/stacked.py`` imports
``solve_slot_array`` by name, so wrapping only
``repro.core.optimizer_array`` would miss every stacked solve.

A span is ``[id, parent, op, name, start, end, attrs]``.  Spans are kept
in memory, recorded only while an op is running (never during setup,
warm-up or output checks), and reduced by :func:`layer_totals`.  The
layer of a span is its name up to the first dot.
"""

from __future__ import annotations

import importlib
import re
import subprocess
import sys
import time
from pathlib import Path

#: (span name, module, attribute).  ``Class.method`` attributes patch
#: the class; plain names patch the function at every alias.
TARGETS = (
    ("workload.build_trace", "repro.scenario.spec", "Scenario.build_trace"),
    ("workload.build_slot_arrays", "repro.scenario.spec", "Scenario.build_slot_arrays"),
    ("workload.mpeg", "repro.workload.mpeg", "generate_mpeg_trace"),
    ("predict.replay", "repro.sim.vectorized", "replay_policy"),
    ("predict.scan", "repro.prediction.exponential", "exponential_average_scan"),
    ("predict.scan_batch", "repro.prediction.exponential", "exponential_average_scan_batch"),
    ("plan.slot_arrays", "repro.sim.integrator", "plan_slot_arrays"),
    ("plan.trace_arrays", "repro.sim.vectorized", "plan_trace_arrays"),
    ("stacked.batch", "repro.sim.stacked", "simulate_batch_stacked"),
    ("stacked.cumsum", "repro.sim.stacked", "clamped_cumsum_batch"),
    ("solve_array.solve", "repro.core.optimizer_array", "solve_slot_array"),
    ("memo.solve", "repro.runtime.memo", "solve_slot_memo"),
    ("batch.simulate", "repro.sim.vectorized", "simulate_batch"),
    ("batch.parallel", "repro.sim.vectorized", "_simulate_batch_parallel"),
    # simulate_batch's per-seed loop enters the 1D kernel below
    # simulate_fast, so both entry points count as the "fast" layer.
    ("fast.simulate", "repro.sim.vectorized", "simulate_fast"),
    ("fast.planned", "repro.sim.vectorized", "_simulate_fast_planned"),
    ("scalar.run", "repro.sim.slotsim", "SlotSimulator.run"),
    ("parallel.map", "repro.runtime.parallel", "ParallelMap.map"),
    ("shm.create", "repro.runtime.shm", "SharedArrayStore.create"),
    ("cache.store", "repro.runtime.cache", "ResultCache.store"),
    ("cache.get", "repro.runtime.cache", "ResultCache.get"),
    ("cache.fingerprint", "repro.runtime.cache", "code_fingerprint"),
    ("state.save", "repro.exp.state", "ExperimentStore.save"),
    ("state.load", "repro.exp.state", "ExperimentStore.load"),
    ("runner.run", "repro.exp.runner", "run_experiment"),
    ("runner.verify", "repro.exp.runner", "verified_in_cache"),
    ("results.load", "repro.exp.results", "ExperimentResults.load"),
    ("analysis.table", "repro.analysis.tables", "table2"),
    ("analysis.table", "repro.analysis.tables", "table3"),
    ("analysis.study", "repro.sim.montecarlo", "seed_study"),
    ("analysis.sweep", "repro.analysis.sweep", "efficiency_slope_sweep"),
    ("analysis.sweep", "repro.analysis.sweep", "storage_capacity_sweep"),
    ("analysis.sweep", "repro.analysis.sweep", "predictor_sweep"),
    ("analysis.sweep", "repro.analysis.sweep", "recharge_threshold_sweep"),
    ("analysis.report", "repro.analysis.experiments", "full_report"),
)


def _file_bytes(*paths: Path) -> int:
    total = 0
    for path in paths:
        try:
            total += path.stat().st_size
        except OSError:
            pass
    return total


def _cache_store_attrs(args, kwargs, key) -> dict:
    root = args[0].root
    return {"bytes": _file_bytes(root / f"{key}.pkl", root / f"{key}.manifest.json")}


def _cache_get_attrs(args, kwargs, result) -> dict:
    default = args[2] if len(args) > 2 else kwargs.get("default")
    return {"hit": int(result is not default)}


def _parallel_attrs(args, kwargs, result) -> dict:
    stats = args[0].stats
    return {"chunk_busy": sum(stats.chunk_durations), "workers": stats.workers}


def _shm_attrs(args, kwargs, result) -> dict:
    groups = args[1] if len(args) > 1 else kwargs["groups"]
    return {"bytes": sum(a.nbytes for g in groups.values() for a in g.values())}


#: Per-span attributes, read from ``(args, kwargs, result)`` after the
#: call returns (outside the span).
_AFTER = {
    "solve_array.solve": lambda args, kwargs, result: {"rows": len(args[0])},
    "cache.get": _cache_get_attrs,
    "cache.store": _cache_store_attrs,
    "state.save": lambda args, kwargs, path: {"bytes": _file_bytes(path)},
    "parallel.map": _parallel_attrs,
    "shm.create": _shm_attrs,
}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Id of the op in progress; spans are recorded only while set.
        self.op: int | None = None
        #: Slot-solver memo lookups made by the timed ops.
        self.memo_hits = 0
        self.memo_misses = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def adopt(self, spans: list[list], op: int) -> None:
        """Append spans recorded by another process as part of ``op``."""
        offset = len(self.spans)
        for span_id, parent, _, name, start, end, attrs in spans:
            parent = None if parent is None else parent + offset
            self.spans.append([span_id + offset, parent, op, name, start, end, attrs])

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        after = _AFTER.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1] if stack else None, op, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if after is not None:
                span[6] = after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Patch every target; call once the program's modules can import."""
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._set(cls, meth, self._wrap(name, raw))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)


# -- reduction ------------------------------------------------------------------


#: Spans also reported by name as ``<name>_calls`` / ``<name>_s``.
_BY_NAME = frozenset({"cache.store", "cache.get", "state.save", "runner.verify"})
#: Span name -> metric summing its durations.
_DURATION_OF = {
    "analysis.table": "analysis.table_s",
    "analysis.study": "analysis.study_s",
    "results.load": "results.load_s",
}
#: (span name, attribute) -> metric summing the attribute.
_ATTR_OF = {
    ("solve_array.solve", "rows"): "solve_array.rows",
    ("cache.store", "bytes"): "cache.bytes_written",
    ("cache.get", "hit"): "cache.get_hits",
    ("state.save", "bytes"): "state.bytes_written",
    ("shm.create", "bytes"): "shm.bytes",
    ("parallel.map", "chunk_busy"): "parallel.chunk_busy_s",
}
#: A simulate_batch call's route is whichever of these wrapped callees
#: ran directly under it; neither means the per-seed loop.
_ROUTES = {"stacked.batch": "stacked", "batch.parallel": "parallel"}


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Sum the per-layer metrics over ``spans`` (totals, not per op).

    ``busy`` counts a layer's outermost spans only, so a layer calling
    itself is not counted twice; ``self`` is a span's duration minus the
    durations of its direct children, summed over every span of the
    layer.  Root spans (no parent) sum to the traced part of op time.
    """
    n = len(spans)
    dur = [s[5] - s[4] for s in spans]
    child_time = [0.0] * n
    ancestors: list[frozenset] = [frozenset()] * n
    layers = [s[3].split(".", 1)[0] for s in spans]
    routes: dict[int, str] = {}
    for s in spans:
        parent = s[1]
        if parent is not None:
            child_time[parent] += dur[s[0]]
            ancestors[s[0]] = ancestors[parent] | {layers[parent]}
            if s[3] in _ROUTES and spans[parent][3] == "batch.simulate":
                routes[parent] = _ROUTES[s[3]]

    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for i, s in enumerate(spans):
        name, layer, attrs = s[3], layers[i], s[6] or {}
        add(f"{layer}.self_s", dur[i] - child_time[i])
        if s[1] is None:
            add("op.traced_s", dur[i])
        if layer not in ancestors[i]:
            add(f"{layer}.calls", 1)
            add(f"{layer}.busy_s", dur[i])
            if name == "batch.simulate":
                add(f"route.{routes.get(i, 'loop')}", 1)
        if name in _BY_NAME:
            add(f"{name}_calls", 1)
            add(f"{name}_s", dur[i])
        if name in _DURATION_OF:
            add(_DURATION_OF[name], dur[i])
        for attr, value in attrs.items():
            if (name, attr) in _ATTR_OF:
                add(_ATTR_OF[(name, attr)], value)
        if name == "parallel.map":
            # Coordinator time in the map not covered by the workers'
            # mean busy time: pool start, pickling, queueing, imbalance.
            add("parallel.wait_s", dur[i] - attrs["chunk_busy"] / max(attrs["workers"], 1))
        elif name == "runner.run":
            add("runner.run_self_s", dur[i] - child_time[i])
    return out


#: Per-layer metrics reported as a mean per op.
PER_OP = (
    "workload.calls", "workload.busy_s",
    "predict.calls", "predict.busy_s",
    "plan.calls", "plan.busy_s",
    "stacked.calls", "stacked.self_s",
    "solve_array.calls", "solve_array.rows", "solve_array.busy_s",
    "memo.calls", "memo.busy_s",
    "batch.self_s", "fast.calls", "fast.busy_s",
    "route.stacked", "route.loop", "route.parallel",
    "scalar.calls", "scalar.busy_s",
    "parallel.busy_s", "parallel.chunk_busy_s", "parallel.wait_s",
    "shm.busy_s", "shm.bytes",
    "cache.store_calls", "cache.store_s", "cache.bytes_written",
    "cache.get_calls", "cache.get_s",
    "state.save_calls", "state.save_s", "state.bytes_written",
    "runner.self_s", "runner.verify_calls", "runner.verify_s", "results.load_s",
    "analysis.table_s", "analysis.study_s", "analysis.self_s",
    "op.untraced_s",
)
#: ``runner.self_s`` is run_experiment's own self time; the generic
#: runner layer self time would also include verified_in_cache.
_TOTAL_KEY = {"runner.self_s": "runner.run_self_s"}


def per_layer_metrics(totals: dict[str, float], ops: int) -> dict[str, float]:
    """Per-op layer metrics from summed totals over ``ops`` ops."""
    ops = max(ops, 1)
    out = {name: totals.get(_TOTAL_KEY.get(name, name), 0.0) / ops for name in PER_OP}
    lookups = totals.get("memo.hits", 0.0) + totals.get("memo.misses", 0.0)
    out["memo.hit_ratio"] = totals.get("memo.hits", 0.0) / lookups if lookups else 0.0
    gets = totals.get("cache.get_calls", 0.0)
    out["cache.hit_ratio"] = totals.get("cache.get_hits", 0.0) / gets if gets else 0.0
    return out


# -- import time ----------------------------------------------------------------

_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """``cli.import_s`` and ``cli.import_scipy_s`` from ``-X importtime``.

    ``cli.import_s`` is the cumulative time of ``repro.cli``;
    ``cli.import_scipy_s`` sums the self time of every ``scipy`` module,
    which counts each module once however deeply it nests.
    """
    cli_us = 0
    scipy_us = 0
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match is None:
            continue
        self_us, cumulative_us, module = match.groups()
        if module == "repro.cli":
            cli_us = int(cumulative_us)
        if module == "scipy" or module.startswith("scipy."):
            scipy_us += int(self_us)
    return {"cli.import_s": cli_us / 1e6, "cli.import_scipy_s": scipy_us / 1e6}


def measure_import(env: dict, cwd: Path) -> dict[str, float]:
    """Run ``import repro.cli`` under ``-X importtime`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return parse_importtime(proc.stderr)
