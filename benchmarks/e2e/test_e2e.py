"""Tests of the end-to-end benchmark itself: ``PYTHONPATH=src pytest benchmarks/e2e``.

The module fixture runs every workload untraced and traced, one round
of one timed op each, so the file takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys

import pytest

from benchmarks.e2e import compare, harness, tracing, worker, workloads

ROOT = harness.ROOT
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

BENCH = harness.load_benchmark()
NAMES = [w["name"] for w in BENCH["workloads"]]


def _main(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = harness.main(argv)
    return rc, buf.getvalue()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``{trace: (exit code, stdout, result JSON)}`` of tiny full runs."""
    out_dir = tmp_path_factory.mktemp("e2e")
    mp = pytest.MonkeyPatch()
    mp.setattr(harness, "ROUNDS", 1)
    mp.setattr(harness, "OUT", out_dir)
    try:
        results = {}
        for trace in (0, 1):
            path = out_dir / f"run{trace}.json"
            rc, stdout = _main(
                ["run", "--seed", "0", "--seconds", "0", "--trace", str(trace), "--out", str(path)]
            )
            results[trace] = (rc, stdout, json.loads(path.read_text()))
        yield results, out_dir
    finally:
        mp.undo()


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_of_every_workload_printed_with_unit(runs, trace, group):
    rc, stdout, _ = runs[0][trace]
    assert rc == 0
    printed = set()
    for line in stdout.splitlines():
        tokens = line.split()
        if len(tokens) >= 4 and tokens[0] in NAMES:
            printed.add((tokens[0], tokens[1], tokens[3]))
    for name in NAMES:
        for metric in BENCH[group]:
            assert (name, metric["name"], metric["unit"]) in printed
    final = json.loads(stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0
    assert set(final["metrics"]) == {f"{n}.{m['name']}" for n in NAMES for m in BENCH[group]}


def test_no_op_fails_and_results_keep_raw_samples(runs):
    for trace in (0, 1):
        result = runs[0][trace][2]
        assert result["seed"] == 0 and result["nproc"] >= 1 and "git_sha" in result
        for name in NAMES:
            summary = result["workloads"][name]
            assert summary["extra"]["failed_fraction"] == 0, summary["errors"]
            assert len(summary["samples_ms"]) == summary["ops"] >= 1
            assert all(value > 0 for value in summary["metrics"].values())


def test_spans_nest_inside_their_parent_and_share_its_op(runs):
    spans = {}
    for line in (runs[1] / "spans.jsonl").read_text().splitlines():
        row = json.loads(line)
        spans[(row["workload"], row["round"], row["id"])] = row
    assert {key[0] for key in spans} >= {"mc-wide", "exp-reload", "paper-cli"}
    children = 0
    for (name, rnd, _), row in spans.items():
        assert row["op"] >= 0
        if row["parent"] is None:
            continue
        parent = spans[(name, rnd, row["parent"])]
        assert parent["start"] <= row["start"] <= row["end"] <= parent["end"]
        assert parent["op"] == row["op"]
        children += 1
    assert children


def test_traced_run_reports_layers_where_they_run(runs):
    layers = {n: runs[0][1][2]["workloads"][n]["layers"] for n in NAMES}
    cells = workloads._Experiment.n_seeds * len(workloads.POLICIES)
    assert layers["mc-wide"]["route.stacked"] == 1
    # One width cycle (1, 2, 4, 8, 16): width 1 rides the per-seed loop.
    assert layers["mc-narrow"]["route.loop"] == 0.2
    assert layers["mc-narrow"]["route.stacked"] == 0.8
    assert layers["mc-fanout"]["route.parallel"] == 1 and layers["mc-fanout"]["shm.bytes"] > 0
    assert layers["exp-sweep"]["cache.store_calls"] == cells
    assert layers["exp-reload"]["runner.verify_calls"] == cells
    assert layers["exp-reload"]["cache.hit_ratio"] == 1
    assert layers["paper-cli"]["scalar.calls"] > 0 and layers["paper-cli"]["analysis.table_s"] > 0
    for name in NAMES:
        assert layers[name]["cli.import_s"] > layers[name]["cli.import_scipy_s"] > 0


def test_oracle_mismatch_counts_as_failed_op(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "oracle_cell", lambda *args: object())
    record = worker.run_round("mc-narrow", 0, 0, 0.0, False, tmp_root=tmp_path)
    assert record["attempted"] == 6  # the warm-up op and one cycle of five widths
    assert record["failed"] == 6
    assert "oracle" in record["errors"][-1]


def test_trace_prints_overhead_per_workload(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "ROUNDS", 1)
    monkeypatch.setattr(harness, "OUT", tmp_path)
    rc, stdout = _main(["trace", "--workload", "mc-narrow", "--seconds", "0"])
    assert rc == 0
    assert re.search(r"mc-narrow +tracing overhead: op_p50_ms [+-]\d", stdout)
    assert "traced share of op wall time" in stdout


def test_paper_rows_match_experiments_md():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for table, heading in (("table2", "## Table 2"), ("table3", "## Table 3")):
        section = text[text.index(heading) :]
        rows = {}
        for label, policy in (("Conv-DPM", "conv-dpm"), ("ASAP-DPM", "asap-dpm"), ("FC-DPM", "fc-dpm")):
            measured = re.search(rf"^\| {label} \| [\d.]+ \| ([\d.]+) \|$", section, re.M).group(1)
            rows[policy] = f"{float(measured):.1f}"
        assert workloads.PAPER_ROWS[table] == rows


def test_compare_verdicts():
    a = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.classify(a, [x * 0.8 for x in a], "lower", 0.1) == "better"
    assert compare.classify(a, [x * 1.2 for x in a], "lower", 0.1) == "worse"
    assert compare.classify(a, [x * 1.01 for x in a], "lower", 0.1) == "unchanged"
    assert compare.classify(a, [60.0, 140.0, 90.0, 110.0, 100.0], "lower", 0.1) == "unresolved"
    assert compare.classify(a, [x * 1.2 for x in a], "higher", 0.1) == "better"


def test_benchmark_json_keeps_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["benchmarks/e2e"]
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names)) and all(name_re.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    layer_names = {m["name"] for m in BENCH["per_layer"]}
    assert layer_names == set(tracing.PER_OP) | {
        "memo.hit_ratio", "cache.hit_ratio", "cli.import_s", "cli.import_scipy_s",
    }
