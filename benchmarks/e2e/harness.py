"""Orchestrator: rounds of fresh worker processes, metrics, result files.

Every round of a workload is a fresh interpreter (see :mod:`.worker`).
A run makes :data:`ROUNDS` rounds of each workload, each measuring a
third of ``--seconds`` of op time; with several workloads the rounds
interleave and the workload order rotates between rounds, so a slow
spell on a shared host is spread over all of them.  Percentiles pool
the ops of all rounds; ``setup_s`` and ``peak_rss_mb`` are medians over
rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import compare
from .tracing import per_layer_metrics

ROOT = Path(__file__).resolve().parents[2]
OUT = ROOT / "benchmarks" / "out" / "e2e"
#: Rounds per workload in one run (fresh interpreter each).
ROUNDS = 3
#: Percentiles are reported only with at least ten samples beyond them.
P95_MIN_OPS = 200
#: A single-workload run must end well inside three minutes.
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A round could not produce a record."""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("FCDPM_")}
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # Nothing may write outside the checkout: not the user's cache
    # directory, nor the system temporary directory.
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["FCDPM_CACHE_DIR"] = str(tmp / "cache")
    env["FCDPM_EXP_DIR"] = str(tmp / "experiments")
    env["TMPDIR"] = str(tmp)
    return env


def spawn_round(
    name: str, seed: int, round_index: int, seconds: float, trace: bool, deadline: float
) -> dict:
    """Run one round in a fresh interpreter and return its record."""
    args = {
        "name": name,
        "seed": seed,
        "round_index": round_index,
        "seconds": seconds,
        "trace": trace,
        "spawn_t": time.monotonic(),
    }
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.worker", json.dumps(args)],
        cwd=ROOT,
        env=_worker_env(),
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{name} round {round_index} ran past the deadline") from None
    if proc.returncode:
        raise BenchError(f"{name} round {round_index}: worker exited {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1])


def _rotate(names: list[str], round_index: int) -> list[str]:
    k = round_index * len(names) // ROUNDS
    return names[k:] + names[:k]


def run_rounds(
    names: list[str], seed: int, seconds: float, modes: tuple[bool, ...], deadline: float
) -> dict[tuple[str, bool], list[dict]]:
    """Interleaved rounds: ``{(workload, traced): [record per round]}``."""
    records: dict[tuple[str, bool], list[dict]] = {(n, m): [] for n in names for m in modes}
    for r in range(ROUNDS):
        for name in _rotate(names, r):
            for traced in modes:
                records[(name, traced)].append(
                    spawn_round(name, seed, r, seconds / ROUNDS, traced, deadline)
                )
    return records


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[int(rank) - 1]


def _cycle_rates(record: dict) -> list[float]:
    """Cells per second of each op cycle (one width cycle) of a round."""
    n = record["cycle"]
    return [
        sum(record["cells"][k : k + n]) / sum(record["samples"][k : k + n])
        for k in range(0, len(record["samples"]), n)
    ]


def summarize(records: list[dict]) -> dict:
    """Pool one workload's rounds into its metrics.

    ``cells_per_s`` is the median over op cycles, not total cells over
    total time: like ``op_p50_ms`` it then ignores the few ops a slow
    spell of a shared host stretches.
    """
    samples = [x for r in records for x in r["samples"]]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    summary = {
        "ops": len(samples),
        "attempted": attempted,
        "failed": failed,
        "errors": [e for r in records for e in r["errors"]][:5],
        "samples_ms": [1e3 * x for x in samples],
        "setup_s_rounds": [r["setup_s"] for r in records],
        "rss_mb_rounds": [r["rss_mb"] for r in records],
        "metrics": {
            "setup_s": statistics.median(r["setup_s"] for r in records),
            "op_p50_ms": 1e3 * statistics.median(samples),
            "cells_per_s": statistics.median(x for r in records for x in _cycle_rates(r)),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in records),
        },
        "extra": {"failed_fraction": failed / attempted},
    }
    if len(samples) >= P95_MIN_OPS:
        summary["extra"]["op_p95_ms"] = 1e3 * _percentile(samples, 95)
    if "layers" in records[0]:
        totals: dict[str, float] = {}
        for r in records:
            for key, value in r["layers"].items():
                totals[key] = totals.get(key, 0.0) + value
        layers = per_layer_metrics(totals, len(samples))
        for key in records[0]["import"]:
            layers[key] = statistics.median(r["import"][key] for r in records)
        summary["layers"] = layers
        summary["traced_share"] = totals.get("op.traced_s", 0.0) / sum(samples)
    return summary


def _print_summary(name: str, summary: dict, metrics: list[dict], source: str) -> None:
    print(
        f"== {name}: {len(summary['setup_s_rounds'])} rounds, {summary['ops']} timed ops, "
        f"{summary['attempted']} attempted, {summary['failed']} failed"
    )
    notes = {
        "setup_s": f"median of {len(summary['setup_s_rounds'])} rounds",
        "op_p50_ms": f"{summary['ops']} ops",
        "op_p95_ms": f"{summary['ops']} ops",
        "peak_rss_mb": f"median of {len(summary['rss_mb_rounds'])} rounds",
    }
    for m in metrics:
        value = summary[source][m["name"]]
        print(f"  {name:<11} {m['name']:<22} {value:>16.6f} {m['unit']:<6} {notes.get(m['name'], '')}")
    if source == "metrics":
        extra = summary["extra"]
        if "op_p95_ms" in extra:
            print(f"  {name:<11} {'op_p95_ms':<22} {extra['op_p95_ms']:>16.6f} ms     {notes['op_p95_ms']}")
        print(
            f"  {name:<11} {'failed_fraction':<22} {extra['failed_fraction']:>16.6f} "
            f"{'failed/attempted':<6} {summary['failed']}/{summary['attempted']}"
        )
    for error in summary["errors"]:
        print(f"  {name:<11} error: {error}")


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _write_results(path: Path, seed: int, seconds: float, summaries: dict, trace: bool) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "seed": seed,
        "seconds": seconds,
        "rounds": ROUNDS,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "workloads": summaries,
    }
    path.write_text(json.dumps(payload, indent=1) + "\n")


def _write_spans(records: dict[tuple[str, bool], list[dict]]) -> Path:
    """All traced rounds' spans, one JSON object per line, written once."""
    path = OUT / "spans.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = ("id", "parent", "op", "name", "start", "end")
    with path.open("w") as fh:
        for (name, traced), rounds in records.items():
            if not traced:
                continue
            for record in rounds:
                for span in record["spans"]:
                    row = {"workload": name, "round": record["round"]}
                    row.update(zip(keys, span))
                    row.update(span[6] or {})
                    fh.write(json.dumps(row) + "\n")
    return path


def _check_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")


def cmd_run(args: argparse.Namespace, bench: dict, names: list[str], seconds: float) -> int:
    trace = bool(args.trace)
    deadline = time.monotonic() + (RUN_DEADLINE_S if args.workload else 3600.0)
    records = run_rounds(names, args.seed, seconds, (trace,), deadline)
    metrics = bench["per_layer"] if trace else bench["end_to_end"]
    source = "layers" if trace else "metrics"
    summaries = {name: summarize(records[(name, trace)]) for name in names}
    for name in names:
        _print_summary(name, summaries[name], metrics, source)
    tag = args.workload or "all"
    out = args.out or OUT / f"run-{tag}-seed{args.seed}{'-trace' if trace else ''}.json"
    _write_results(Path(out), args.seed, seconds, summaries, trace)
    if trace:
        _write_spans(records)
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    prefix = (lambda name, m: m) if args.workload else (lambda name, m: f"{name}.{m}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            prefix(name, m["name"]): {"value": summaries[name][source][m["name"]], "unit": m["unit"]}
            for name in names
            for m in metrics
        },
    }
    print(json.dumps(result))
    return 0


def cmd_trace(args: argparse.Namespace, bench: dict, names: list[str], seconds: float) -> int:
    records = run_rounds(names, args.seed, seconds, (False, True), time.monotonic() + 3600.0)
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    summaries = {}
    for name in names:
        plain = summarize(records[(name, False)])
        traced = summarize(records[(name, True)])
        summaries[name] = {"untraced": plain, "traced": traced}
        print(f"== {name}: per-layer metrics (mean per op, {traced['ops']} traced ops)")
        for metric, value in traced["layers"].items():
            if value:
                print(f"  {name:<11} {metric:<22} {value:>16.6f} {units[metric]}")
        overhead = traced["metrics"]["op_p50_ms"] - plain["metrics"]["op_p50_ms"]
        print(
            f"  {name:<11} tracing overhead: op_p50_ms {overhead:+.3f} ms "
            f"({100 * overhead / plain['metrics']['op_p50_ms']:+.1f}%), "
            f"traced {traced['metrics']['op_p50_ms']:.3f} vs untraced "
            f"{plain['metrics']['op_p50_ms']:.3f}"
        )
        print(f"  {name:<11} traced share of op wall time: {100 * traced['traced_share']:.1f}%")
    out = args.out or OUT / f"trace-seed{args.seed}.json"
    _write_results(Path(out), args.seed, seconds, summaries, True)
    print(f"spans: {_write_spans(records)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark of the FC-DPM reproduction (see README.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "trace"):
        p = sub.add_parser(command)
        p.add_argument("--workload", default=None, help="one workload (default: all)")
        p.add_argument("--seed", type=int, default=0, help="picks the generated inputs")
        p.add_argument(
            "--seconds", type=float, default=None,
            help="timed op seconds per workload (default: run_seconds of BENCHMARK.json)",
        )
        p.add_argument("--out", default=None, help="result JSON path")
        if command == "run":
            p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                           help="1: traced run, prints the per-layer metrics")
    p = sub.add_parser("compare", help="A.json... -- B.json...: parent vs change")
    p.add_argument("files", nargs=argparse.REMAINDER, help="result JSONs of run")
    args = parser.parse_args(argv)

    bench = load_benchmark()
    if args.command == "compare":
        return compare.main(args.files, bench)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}")
        names = [args.workload]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    try:
        _check_program()
        command = cmd_run if args.command == "run" else cmd_trace
        return command(args, bench, names, seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
