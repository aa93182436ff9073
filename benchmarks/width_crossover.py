"""Why both kernel copies stay: per-row 1D passes vs stacked 2D passes by width.

Each policy pass exists twice, once per kernel: a per-row float loop in
``repro.sim.vectorized`` and a column pass over all rows in
``repro.sim.stacked``.  This script times both sides of the width
crossover on ``exp2-conv-dpm`` (fresh seeds every repetition, so the
slot-solve memo never serves a repeat; best of ``--reps``) and prints a
markdown table:

- the whole route: the per-seed ``simulate_fast`` loop vs the stacked
  route (``simulate_batch_stacked``), conv + asap + fc, synthesis
  included;
- the ASAP pass alone: ``_run_asap`` per row vs ``_run_asap_stacked``;
- the constant-command pass alone: ``_run_from_plan`` per row vs
  ``_run_const_stacked``.

Usage::

    PYTHONPATH=src python benchmarks/width_crossover.py [--reps 3]
"""

from __future__ import annotations

import argparse
import itertools
import time
from functools import partial

from repro.scenario import get_scenario
from repro.sim.stacked import simulate_batch_stacked
from repro.sim.vectorized import (
    _policy_manager,
    _run_asap,
    _run_from_plan,
    plan_trace_arrays,
    replay_policy,
    simulate_fast,
)

SCENARIO = get_scenario("exp2-conv-dpm")
POLICIES = ["conv-dpm", "asap-dpm", "fc-dpm"]
_fresh = itertools.count(10_000)


class _Span:
    """Collects the stage attributes the stacked route reports."""

    def __init__(self) -> None:
        self.attrs: dict = {}

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)


def _seeds(width: int) -> list[int]:
    return [next(_fresh) for _ in range(width)]


def _stacked(seeds, specs) -> _Span:
    span = _Span()
    managers = {spec: _policy_manager(SCENARIO, spec) for spec in specs}
    simulate_batch_stacked(
        SCENARIO, seeds, specs, managers,
        max_deficit_fraction=0.05, traces=None, span=span,
    )
    return span


def route_ms(width: int) -> tuple[float, float]:
    """(per-seed loop, stacked route) wall time for conv + asap + fc."""
    seeds = _seeds(width)
    t0 = time.perf_counter()
    for seed in seeds:
        trace = SCENARIO.build_trace(seed)
        for spec in POLICIES:
            simulate_fast(_policy_manager(SCENARIO, spec), trace)
    t1 = time.perf_counter()
    _stacked(_seeds(width), POLICIES)
    t2 = time.perf_counter()
    return (t1 - t0) * 1e3, (t2 - t1) * 1e3


def pass_ms(spec: str, width: int) -> tuple[float, float]:
    """(per-row 1D pass summed over rows, one stacked column pass)."""
    run_1d = _run_asap if spec == "asap-dpm" else _run_from_plan
    total = 0.0
    for seed in _seeds(width):
        mgr = _policy_manager(SCENARIO, spec)
        trace = SCENARIO.build_trace(seed)
        plan = plan_trace_arrays(mgr.device, trace, replay_policy(mgr.policy, trace))
        mgr.controller.start_run(mgr.source.storage.charge, mgr.source.storage.capacity)
        t0 = time.perf_counter()
        run_1d(mgr, plan)
        total += time.perf_counter() - t0
    stacked = _stacked(_seeds(width), [spec]).attrs["passes_seconds"]
    return total * 1e3, stacked * 1e3


def _best(fn, *args, reps: int) -> tuple[float, float]:
    runs = [fn(*args) for _ in range(reps)]
    return min(r[0] for r in runs), min(r[1] for r in runs)


def _ms(value: float) -> str:
    return f"{value:.2g}" if value < 10 else f"{value:.0f}"


def _cell(fn, widths, reps: int) -> str:
    parts = []
    for width in widths:
        a, b = _best(fn, width, reps=reps)
        parts.append(f"{_ms(a)} vs {_ms(b)} ms at {width} row{'s' if width > 1 else ''}")
    return "; ".join(parts)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=3)
    reps = parser.parse_args(argv).reps
    _stacked(_seeds(2), POLICIES)  # warm imports and caches
    rows = [
        ("conv+asap+fc, per-seed loop vs stacked route", route_ms, (1, 16), (256,)),
        ("ASAP pass, per-row float loop vs column pass",
         partial(pass_ms, "asap-dpm"), (1,), (1000,)),
        ("const pass, per-row float loop vs column pass",
         partial(pass_ms, "conv-dpm"), (1,), (1000,)),
    ]
    print("| comparison | narrow | wide |")
    print("| --- | --- | --- |")
    for label, fn, narrow, wide in rows:
        print(f"| {label} | {_cell(fn, narrow, reps)} | {_cell(fn, wide, reps)} |")


if __name__ == "__main__":
    main()
