"""Robustness bench: seed stability of the Table 2 headline."""

from repro.analysis.report import format_table
from repro.sim.montecarlo import run_seeds, table2_metrics


def test_bench_seed_stability(benchmark, emit):
    """Table 2 across seeds with 95% confidence intervals."""
    summaries = benchmark.pedantic(
        run_seeds, args=(table2_metrics, range(5)), rounds=1, iterations=1
    )
    rows = [["metric", "mean", "+-95%", "range"]]
    for name, s in summaries.items():
        rows.append(
            [name, f"{s.mean:.3f}", f"{s.ci95_halfwidth:.3f}",
             f"[{s.minimum:.3f}, {s.maximum:.3f}]"]
        )
    emit(
        "robust_seeds",
        "ROBUSTNESS -- Table 2 across 5 trace seeds\n" + format_table(rows),
    )
    assert summaries["fc-dpm"].maximum < summaries["asap-dpm"].minimum
