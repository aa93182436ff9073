"""Parent-versus-change comparison of ``run`` result files.

``python -m benchmarks.e2e compare A.json... -- B.json...`` takes the
parent's runs (A) and the change's runs (B), given in the order they
ran.  A file may hold one workload (``run --workload``) or all of them;
for each workload the files that ran it are paired by position.  It
prints one row per (workload, end-to-end metric) with one verdict:

* ``better``: B wins at least nine tenths of the pairs and the medians
  differ, in B's favour, by more than A's interquartile range;
* ``worse``: B's median is worse than A's by more than the metric's
  bound from ``BENCHMARK.json`` (a share of A's median);
* ``unresolved``: the run-to-run spread (interquartile range over
  median, on either side) exceeds the bound, and not every B run reads
  better than every A run;
* ``unchanged``: otherwise.

``failed_fraction`` has an absolute bound of zero: any rise is worse.
The exit code is 1 when any row is worse.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def classify(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    gain = sign * (qb[1] - qa[1])
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    if wins >= 0.9 * min(len(a), len(b)) and gain > qa[2] - qa[0]:
        return "better"
    if -gain > bound * abs(qa[1]):
        return "worse"
    spread = max((q[2] - q[0]) / abs(q[1]) for q in (qa, qb))
    if spread > bound and not min(sign * y for y in b) > max(sign * x for x in a):
        return "unresolved"
    return "unchanged"


def _values(results: list[dict], workload: str, metric: str) -> list[float]:
    """One value per result file that ran ``workload``, in file order."""
    out = []
    for result in results:
        summary = result["workloads"].get(workload)
        if summary is None:
            continue
        if metric == "failed_fraction":
            out.append(summary["extra"]["failed_fraction"])
        else:
            out.append(summary["metrics"][metric])
    return out


def compare(a_paths: list[str], b_paths: list[str], bench: dict) -> list[dict]:
    a = [json.loads(Path(p).read_text()) for p in a_paths]
    b = [json.loads(Path(p).read_text()) for p in b_paths]
    if len({r["seconds"] for r in a + b}) > 1:
        raise SystemExit("compare needs runs of one length (--seconds) on both sides")
    rows = []
    for workload in (w["name"] for w in bench["workloads"]):
        if not _values(a, workload, "failed_fraction") or not _values(b, workload, "failed_fraction"):
            continue
        for metric in bench["end_to_end"]:
            va = _values(a, workload, metric["name"])
            vb = _values(b, workload, metric["name"])
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "a": quartiles(va),
                    "b": quartiles(vb),
                    "verdict": classify(va, vb, metric["better"], metric["bound"]),
                }
            )
        fa = _values(a, workload, "failed_fraction")
        fb = _values(b, workload, "failed_fraction")
        rows.append(
            {
                "workload": workload,
                "metric": "failed_fraction",
                "a": quartiles(fa),
                "b": quartiles(fb),
                "verdict": "worse" if statistics.median(fb) > statistics.median(fa) else "unchanged",
            }
        )
    return rows


def main(files: list[str], bench: dict) -> int:
    if "--" not in files:
        raise SystemExit("usage: compare A.json... -- B.json...")
    cut = files.index("--")
    a_paths, b_paths = files[:cut], files[cut + 1 :]
    if not a_paths or not b_paths:
        raise SystemExit("compare needs at least one result file on each side of --")
    rows = compare(a_paths, b_paths, bench)
    print(f"A: {len(a_paths)} runs, B: {len(b_paths)} runs (median [q1, q3])")
    for row in rows:
        (a1, a2, a3), (b1, b2, b3) = row["a"], row["b"]
        change = f"{100 * (b2 - a2) / abs(a2):+7.2f}%" if a2 else "    n/a"
        print(
            f"{row['workload']:<11} {row['metric']:<16} "
            f"A {a2:12.4f} [{a1:.4f}, {a3:.4f}]  B {b2:12.4f} [{b1:.4f}, {b3:.4f}]  "
            f"{change}  {row['verdict']}"
        )
    return int(any(row["verdict"] == "worse" for row in rows))
