"""One round of one workload, run in a fresh interpreter.

``python -m benchmarks.e2e.worker '<json args>'`` sets the workload up,
runs one untimed warm-up op (for workloads that take one), then runs
timed ops in a closed loop until their summed wall time reaches the
round's budget (at least one op, and whole op cycles).
Every op's output is checked outside the timed region.  The last line
of standard output is the round's JSON record.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

from . import workloads
from .tracing import Tracer, layer_totals, measure_import

ROOT = Path(__file__).resolve().parents[2]


def _rss_mb(children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _timed_op(w: workloads.Workload, i: int, tracer: Tracer | None):
    """Run op ``i``: (wall seconds, output or None, error or None)."""
    stats = None
    if tracer is not None and w.in_process:
        from repro.runtime.memo import solver_cache_stats

        stats = solver_cache_stats()
        hits, misses = stats.hits, stats.misses
        tracer.op = i
    t0 = time.perf_counter()
    try:
        out, error = w.op(i), None
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        out, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    if stats is not None:
        tracer.op = None
        tracer.memo_hits += stats.hits - hits
        tracer.memo_misses += stats.misses - misses
    return wall, out, error


def _check(w: workloads.Workload, i: int, out, error: str | None) -> tuple[str | None, int]:
    """(error or None, cells completed) of op ``i``."""
    if error is None:
        try:
            error = w.check(i, out)
        except Exception as exc:  # noqa: BLE001 - a crashing check fails the op
            error = f"check raised {type(exc).__name__}: {exc}"
    return error, 0 if error else w.cells(out)


def _op(w: workloads.Workload, i: int, tracer: Tracer | None) -> tuple[float, str | None, int]:
    """Time and check op ``i``; its output dies here, before the next op.

    Keeping one op's output alive through the next makes the next op's
    garbage collections traverse it -- a cost of the harness, not of
    the program.
    """
    wall, out, error = _timed_op(w, i, tracer)
    return (wall, *_check(w, i, out, error))


def run_round(
    name: str,
    seed: int,
    round_index: int,
    seconds: float,
    trace: bool,
    spawn_t: float | None = None,
    tmp_root: Path | None = None,
) -> dict:
    """Set up ``name``, warm it up, and run its timed ops for ``seconds``.

    ``spawn_t`` is the ``time.monotonic()`` at which the orchestrator
    started this interpreter, so ``setup_s`` covers interpreter start,
    imports, program setup and the warm-up op.
    """
    start = time.monotonic() if spawn_t is None else spawn_t
    # The orchestrator points TMPDIR inside the checkout.
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    rng = random.Random(f"{name}:{seed}:{round_index}")
    w = workloads.make(name, rng, tmp, dict(os.environ), ROOT)
    tracer = Tracer() if trace else None
    try:
        own_setup = w.setup()
        if tracer is not None:
            w.tracer = tracer
            if w.in_process:
                tracer.install()
        warm = _timed_op(w, -1, None) if w.warm_up else None
        setup_s = own_setup if own_setup is not None else time.monotonic() - start
        w.prepare_checks()
        attempted = failed = 0
        errors = []
        if warm is not None:
            # The warm-up op is checked and counted, but not timed.
            error, _ = _check(w, -1, *warm[1:])
            warm = None
            attempted, failed = 1, int(error is not None)
            errors = [f"warm-up: {error}"] if error else []
        samples: list[float] = []
        cells: list[int] = []
        # Whole width cycles only, so every round has the same op mix.
        while not samples or sum(samples) < seconds or len(samples) % w.cycle:
            i = len(samples)
            wall, error, done = _op(w, i, tracer)
            samples.append(wall)
            cells.append(done)
            attempted += 1
            if error is not None:
                failed += 1
                errors.append(f"op {i}: {error}")
        record = {
            "workload": name,
            "round": round_index,
            "setup_s": setup_s,
            "samples": samples,
            "cells": cells,
            "cycle": w.cycle,
            "attempted": attempted,
            "failed": failed,
            "errors": errors[:5],
            "rss_mb": _rss_mb(w.children),
        }
        if tracer is not None:
            totals = layer_totals(tracer.spans)
            totals["op.untraced_s"] = sum(samples) - totals.get("op.traced_s", 0.0)
            totals["memo.hits"] = tracer.memo_hits
            totals["memo.misses"] = tracer.memo_misses
            record["layers"] = totals
            record["import"] = measure_import(w.env, ROOT)
            record["spans"] = tracer.spans
        return record
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv: list[str]) -> int:
    args = json.loads(argv[0])
    try:
        record = run_round(**args)
    except Exception:  # noqa: BLE001 - reported to the orchestrator by exit code
        traceback.print_exc()
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
