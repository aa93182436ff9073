"""Command-line interface: regenerate the paper's experiments.

Installed as ``fcdpm`` by the package.  Subcommands map one-to-one onto
the paper's tables and figures::

    fcdpm table2            # Exp. 1 normalized fuel
    fcdpm table3            # Exp. 2 normalized fuel
    fcdpm fig2              # stack I-V-P curve
    fcdpm fig3              # efficiency curves
    fcdpm fig4              # motivational example
    fcdpm fig7              # current profiles (first 300 s)
    fcdpm sweep <name>      # ablation sweeps
    fcdpm run --scenario X  # run one named scenario (run --list to list)

Global knobs: ``--workers N`` fans seed sweeps and ablations out over N
processes (results stay bit-identical; default 1 = serial) and results
of ``table2``/``table3``/``sweep``/``report`` are served from an
on-disk cache keyed by (parameters, code version) unless ``--no-cache``
is given.  See docs/performance.md.
"""

from __future__ import annotations

import argparse
import sys
import time

from .analysis import (
    ascii_plot,
    fig2_stack_iv_curve,
    fig3_efficiency_curves,
    fig4_motivational,
    fig7_current_profiles,
    format_series,
    format_table,
    table2,
    table3,
)
from .analysis.sweep import (
    efficiency_slope_sweep,
    predictor_sweep,
    recharge_threshold_sweep,
    storage_capacity_sweep,
)
from .runtime.cache import ResultCache
from .scenario import experiment_scenarios, get_scenario, scenario_names


def _cache(args: argparse.Namespace) -> ResultCache:
    """The on-disk result cache honoring ``--no-cache``."""
    return ResultCache(enabled=not args.no_cache)


#: Paper-table shorthands accepted wherever a scenario name is:
#: ``fcdpm run --scenario table2`` runs the Exp. 1 FC-DPM configuration.
SCENARIO_ALIASES = {
    "table2": "exp1-fc-dpm",
    "table3": "exp2-fc-dpm",
}


def _resolve_scenario_name(name: str) -> str:
    """Map table shorthands onto registered scenario names."""
    return SCENARIO_ALIASES.get(name, name)


def _workers_arg(value: str) -> int:
    """Validated ``--workers``: a non-negative int (0 = all cores)."""
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"workers must be an integer, got {value!r}")
    if workers < 0:
        raise argparse.ArgumentTypeError(
            f"workers must be >= 0 (0 = all cores), got {workers}"
        )
    return workers


def _cmd_table(which: str, args: argparse.Namespace) -> int:
    # The cache key names the exact scenarios behind the table, so
    # editing a registered configuration invalidates the entry.
    scenarios = experiment_scenarios("exp1" if which == "table2" else "exp2")
    result = _cache(args).cached(
        which,
        {"seed": args.seed, "scenarios": [sc.to_dict() for sc in scenarios]},
        lambda: table2(seed=args.seed) if which == "table2" else table3(seed=args.seed),
    )
    print(format_table(result.rows(), title=f"{result.name} (normalized fuel)"))
    print(
        f"FC-DPM saves {100 * result.fc_vs_asap_saving:.1f}% fuel vs ASAP-DPM "
        f"(lifetime x{result.fc_vs_asap_lifetime:.2f})"
    )
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    data = fig2_stack_iv_curve()
    print(ascii_plot(data["current"], data["voltage"], title="Fig 2: Vfc vs Ifc"))
    print(ascii_plot(data["current"], data["power"], title="Fig 2: P vs Ifc"))
    print(
        f"max power point: {float(data['p_mpp']):.2f} W "
        f"at {float(data['i_mpp']):.3f} A"
    )
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    data = fig3_efficiency_curves()
    for key in ("stack", "proportional", "onoff", "linear_fit"):
        print(format_series(f"fig3/{key}", data["current"], data[key]))
    print(ascii_plot(data["current"], data["proportional"],
                     title="Fig 3(b): system efficiency (variable-speed fan)"))
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    result = fig4_motivational()
    rows = [["setting", "fuel (A-s)"]]
    for name, fuel in result.fuel.items():
        rows.append([name, f"{fuel:.2f}"])
    print(format_table(rows, title="Fig 4 / Section 3.2 motivational example"))
    print(
        f"FC-DPM vs Conv: {100 * result.fc_vs_conv_saving:.1f}% lower; "
        f"vs ASAP: {100 * result.fc_vs_asap_saving:.1f}% lower"
    )
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    data = fig7_current_profiles(seed=args.seed)
    for key in ("load", "asap-dpm", "fc-dpm"):
        times, currents = data[key]
        mids = [(times[i] + times[i + 1]) / 2 for i in range(len(currents))]
        print(ascii_plot(mids, currents, title=f"Fig 7: {key} current (A)"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    sweeps = {
        "storage": storage_capacity_sweep,
        "predictor": predictor_sweep,
        "beta": efficiency_slope_sweep,
        "recharge": recharge_threshold_sweep,
    }
    if args.name not in sweeps:
        print(f"unknown sweep {args.name!r}; pick from {sorted(sweeps)}")
        return 2
    # workers only changes where points run, never their values, so it
    # is deliberately left out of the cache key.
    result = _cache(args).cached(
        f"sweep/{args.name}",
        {"seed": args.seed},
        lambda: sweeps[args.name](seed=args.seed, workers=args.workers),
    )
    rows = [["parameter", "value"]]
    for key, value in result.items():
        rows.append([str(key), repr(value)])
    print(format_table(rows, title=f"sweep: {args.name}"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.list or args.scenario is None:
        rows = [["scenario", "policy", "workload", "source", "description"]]
        for name in scenario_names():  # already sorted by the registry
            sc = get_scenario(name)
            source = sc.source.kind
            if sc.source.storage_kind != "supercap":
                source += f"/{sc.source.storage_kind}"
            rows.append(
                [name, sc.policy.kind, sc.workload.kind, source, sc.description]
            )
        print(format_table(rows, title="registered scenarios"))
        if args.scenario is None and not args.list:
            print("pick one with: fcdpm run --scenario <name>")
        return 0
    sc = get_scenario(_resolve_scenario_name(args.scenario))

    def compute() -> dict[str, float]:
        manager = sc.build_manager()
        trace = sc.build_trace(args.seed)
        from .sim.vectorized import simulate_fast

        result = simulate_fast(manager, trace)
        return {
            "fuel": result.fuel,
            "load_charge": result.load_charge,
            "bled": result.bled,
            "deficit": result.deficit,
            "duration": result.duration,
            "n_sleeps": float(result.n_sleeps),
            "wakeup_latency": result.wakeup_latency,
        }

    if args.trace is not None:
        metrics = _traced_run(sc, args, compute)
    else:
        metrics = _cache(args).cached(
            "run", {"seed": args.seed, "scenario": sc.to_dict()}, compute
        )
    rows = [["metric", "value"]]
    for key, value in metrics.items():
        rows.append([key, f"{value:.6g}"])
    print(format_table(rows, title=f"scenario: {sc.name} (seed {args.seed})"))
    if sc.description:
        print(sc.description)
    return 0


def _traced_run(sc, args: argparse.Namespace, compute) -> dict[str, float]:
    """Run ``compute`` under live telemetry; write the trace bundle.

    The result cache is bypassed on purpose -- a cache hit would produce
    a trace with no simulation spans, which defeats the point of asking
    for one.
    """
    from .obs import build_manifest, observing, trace_summary, write_trace_bundle

    with observing() as obs:
        with obs.span("run", scenario=sc.name, seed=args.seed):
            t_wall = time.time()
            t_cpu = time.process_time()
            metrics = compute()
            wall_s = time.time() - t_wall
            cpu_s = time.process_time() - t_cpu
        snapshot = obs.metrics.snapshot()
        spans = obs.tracer.export()
    route_counts = {
        key: data.get("value", 0.0)
        for key, data in snapshot.items()
        if key.startswith("sim.route")
    }
    route = ""
    if route_counts:
        key = max(route_counts, key=route_counts.get)
        route = key[key.find("path=") + 5 :].rstrip("}")
    manifest = build_manifest(
        f"run:{sc.name}",
        scenario=sc.to_dict(),
        params={"seed": args.seed},
        seeds=[args.seed],
        workers=args.workers,
        route=route,
        wall_s=wall_s,
        cpu_s=cpu_s,
        metrics=snapshot,
    )
    paths = write_trace_bundle(args.trace, spans, snapshot, manifest)
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    print()
    print(trace_summary(spans, snapshot))
    print()
    return metrics


def _parse_seeds(text: str) -> list[int]:
    """``"0:5"`` (half-open range) or ``"0,1,4"`` (explicit list)."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return list(range(int(lo), int(hi)))
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad seeds {text!r}; expected 'lo:hi' or a comma list"
        ) from None


def _parse_knob_value(text: str):
    """Ablation value: int if it parses, else float, else the string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_ablations(pairs: list[str]) -> list[tuple[str, tuple]]:
    """Each ``--ablate knob=v1,v2`` flag becomes one ablation axis."""
    out = []
    for pair in pairs:
        knob, _, values = pair.partition("=")
        if not knob or not values:
            raise argparse.ArgumentTypeError(
                f"bad ablation {pair!r}; expected knob=v1,v2,..."
            )
        out.append(
            (knob, tuple(_parse_knob_value(v) for v in values.split(",")))
        )
    return out


def _exp_store(args: argparse.Namespace):
    from .exp import ExperimentStore

    return ExperimentStore(args.state_dir)


def _print_exp_status(state) -> None:
    counts = state.counts()
    rows = [["field", "value"], ["status", state.status],
            ["hash", state.spec.content_hash[:16]],
            ["kind", state.spec.kind],
            ["tasks", str(len(state.tasks))]]
    rows += [[status, str(n)] for status, n in counts.items() if n]
    print(format_table(rows, title=f"experiment: {state.spec.name}"))


def _resolve_live(args: argparse.Namespace) -> float | None:
    """``--live`` / ``--live-interval`` / ``$FCDPM_LIVE_INTERVAL``."""
    from .obs.live import live_interval

    if getattr(args, "live_interval", None) is not None:
        return live_interval(args.live_interval)
    if getattr(args, "live", False):
        return live_interval(True)
    return live_interval(None)


def _experiment_payload(
    store, name: str, stall_factor: float, now: float | None = None
) -> dict:
    """Machine-readable status of one experiment + its heartbeats.

    The shape ``exp status --json`` / ``watch --json`` / ``top --json``
    all emit -- the scripting surface for cross-host shard monitoring.
    """
    from .obs.live import heartbeat_age, is_stalled, iter_heartbeats

    state = store.load(name)
    counts = state.counts()
    beats = []
    for shard_label, beat in iter_heartbeats(store.experiment_dir(name)):
        if isinstance(beat, Exception):
            print(f"error: {beat}", file=sys.stderr)
            beats.append({"shard": shard_label, "error": str(beat),
                          "final": False, "stalled": False})
            continue
        beats.append({
            "shard": shard_label,
            "pid": beat.pid,
            "host": beat.host,
            "phase": beat.phase,
            "tasks_done": beat.tasks_done,
            "tasks_failed": beat.tasks_failed,
            "tasks_total": beat.tasks_total,
            "task_rate": beat.task_rate,
            "eta_s": beat.eta_s,
            "cache_hit_ratio": beat.cache_hit_ratio,
            "interval_s": beat.interval_s,
            "final": beat.final,
            "age_s": heartbeat_age(beat, now),
            "stalled": is_stalled(beat, now, stall_factor),
        })
    return {
        "name": name,
        "status": state.status,
        "spec_hash": state.spec.content_hash,
        "kind": state.spec.kind,
        "tasks": {"total": len(state.tasks), **counts},
        "heartbeats": beats,
        "stalled": any(b["stalled"] for b in beats),
        "failed": counts.get("failed", 0),
    }


def _all_experiment_payloads(store, stall_factor: float) -> list[dict]:
    """:func:`_experiment_payload` of every experiment under ``store``.

    An experiment whose state cannot be loaded is still listed, with
    status ``unreadable`` and the reason under ``error``; the reason also
    goes to stderr.
    """
    from .errors import ConfigurationError

    payloads = []
    for name in store.names():
        try:
            payloads.append(_experiment_payload(store, name, stall_factor))
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            payloads.append({
                "name": name, "status": "unreadable", "error": str(exc),
                "tasks": {}, "heartbeats": [], "stalled": False, "failed": 0,
            })
    return payloads


def _payload_exit_code(payloads: list[dict]) -> int:
    """Scripting contract: 4 = stall detected, 1 = failures, an
    unreadable experiment or an invalid heartbeat, 0 = ok."""
    if any(p["stalled"] for p in payloads):
        return 4
    if any(
        p["failed"] or p["status"] == "unreadable"
        or any("error" in b for b in p["heartbeats"])
        for p in payloads
    ):
        return 1
    return 0


def _fmt_duration(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    seconds = float(seconds)
    if seconds < 60:
        return f"{seconds:.1f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def _beat_state(beat: dict) -> str:
    if beat["stalled"]:
        return "STALLED"
    return "final" if beat["final"] else "live"


def _heartbeat_rows(payload: dict) -> list[list[str]]:
    rows = [["shard", "phase", "done", "failed", "total", "rate/s",
             "eta", "age", "state"]]
    for b in payload["heartbeats"]:
        if "error" in b:
            rows.append([b["shard"] or "-"] + ["-"] * 7 + ["invalid"])
            continue
        rows.append([
            b["shard"] or "-", b["phase"] or "-",
            str(b["tasks_done"]), str(b["tasks_failed"]),
            str(b["tasks_total"]),
            f"{b['task_rate']:.2f}",
            _fmt_duration(b["eta_s"]),
            _fmt_duration(b["age_s"]),
            _beat_state(b),
        ])
    return rows


def _render_watch(payload: dict) -> str:
    header = (
        f"experiment: {payload['name']}  status: {payload['status']}  "
        f"kind: {payload['kind']}"
    )
    if not payload["heartbeats"]:
        return header + "\n  (no heartbeats yet -- run with --live)"
    return header + "\n" + format_table(_heartbeat_rows(payload))


def _cmd_exp_watch(args: argparse.Namespace, store) -> int:
    """``fcdpm exp watch NAME`` -- poll heartbeats, render, detect stalls."""
    import json as _json

    def render_once() -> tuple[int, dict]:
        payload = _experiment_payload(store, args.name, args.stall_factor)
        if args.json:
            print(_json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(_render_watch(payload))
        return _payload_exit_code([payload]), payload

    if args.once:
        return render_once()[0]
    try:
        while True:
            print("\x1b[2J\x1b[H", end="")
            code, payload = render_once()
            valid = [b for b in payload["heartbeats"] if "error" not in b]
            done = sum(b["tasks_done"] + b["tasks_failed"] for b in valid)
            total = sum(b["tasks_total"] for b in valid)
            if payload["heartbeats"] and all(
                b["final"] for b in payload["heartbeats"]
            ) and (not total or done >= total):
                return code
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """``fcdpm top`` -- every experiment's live heartbeats in one table."""
    import json as _json

    store = _exp_store(args)

    def render_once() -> int:
        payloads = _all_experiment_payloads(store, args.stall_factor)
        if args.json:
            print(_json.dumps(payloads, indent=2, sort_keys=True))
            return _payload_exit_code(payloads)
        rows = [["experiment", "status", "shard", "phase", "done", "failed",
                 "total", "eta", "age", "state"]]
        for p in payloads:
            if not p["heartbeats"]:
                rows.append([p["name"], p["status"], "-", "-", "-", "-",
                             str(p["tasks"].get("total", "-")), "-", "-", "-"])
                continue
            for b in p["heartbeats"]:
                if "error" in b:
                    rows.append([p["name"], p["status"], b["shard"] or "-"]
                                + ["-"] * 6 + ["invalid"])
                    continue
                rows.append([
                    p["name"], p["status"], b["shard"] or "-",
                    b["phase"] or "-", str(b["tasks_done"]),
                    str(b["tasks_failed"]), str(b["tasks_total"]),
                    _fmt_duration(b["eta_s"]), _fmt_duration(b["age_s"]),
                    _beat_state(b),
                ])
        print(format_table(rows, title=f"experiments under {store.root}"))
        return _payload_exit_code(payloads)

    if args.once:
        return render_once()
    try:
        while True:
            print("\x1b[2J\x1b[H", end="")
            render_once()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_exp(args: argparse.Namespace) -> int:
    """``fcdpm exp define|run|resume|status|merge|report|watch``."""
    from .errors import ConfigurationError
    from .exp import (
        AbortRun,
        ExperimentResults,
        ExperimentSpec,
        run_experiment,
    )

    store = _exp_store(args)
    try:
        if args.action == "define":
            from .exp import SWEEP_KINDS, task_kind_names

            # Accept the sweep shorthands the analysis layer uses
            # ("storage" -> "sweep.storage") and refuse unknown kinds
            # here, at define time, instead of failing every task later.
            kind = SWEEP_KINDS.get(args.kind, (args.kind,))[0]
            if kind not in task_kind_names():
                known = sorted(set(task_kind_names()) | set(SWEEP_KINDS))
                raise ConfigurationError(
                    f"unknown task kind {args.kind!r}; expected one of {known}"
                )
            spec = ExperimentSpec(
                name=args.name,
                kind=kind,
                scenario=args.scenario,
                seeds=tuple(args.seeds if args.seeds is not None else (2007,)),
                policies=tuple(args.policies.split(",")) if args.policies else (),
                ablations=tuple(_parse_ablations(args.ablate or [])),
            )
            state = store.define(spec, overwrite=args.overwrite)
            print(f"defined {spec.name!r}: {spec.n_tasks} tasks "
                  f"(hash {spec.content_hash[:16]}) under {store.root}")
            _print_exp_status(state)
            return 0
        if args.action == "watch":
            return _cmd_exp_watch(args, store)
        if args.action in ("run", "resume"):
            from contextlib import nullcontext

            live = _resolve_live(args)
            # Live flushing needs a populated registry: wrap the run in
            # an observing() scope so counters/gauges actually record.
            scope = nullcontext()
            if live is not None:
                from .obs import OBS, observing

                scope = observing() if not OBS.enabled else nullcontext()
            try:
                with scope:
                    run = run_experiment(
                        args.name,
                        store=store,
                        cache=_cache(args),
                        workers=args.workers,
                        shard=args.shard,
                        resume=not getattr(args, "no_resume", False),
                        live=live,
                    )
            except AbortRun as exc:
                print(f"aborted: {exc}")
                return 3
            print(
                f"{args.name}: executed {run.executed}, resumed {run.resumed}, "
                f"failed {run.failed} in {run.wall_s:.2f}s"
                + (f" (shard {run.shard[0]}/{run.shard[1]})" if run.shard else "")
            )
            return 1 if run.failed else 0
        if args.action == "status":
            if getattr(args, "json", False):
                import json as _json

                if args.name:
                    out = _experiment_payload(store, args.name, args.stall_factor)
                    payloads = [out]
                else:
                    payloads = out = _all_experiment_payloads(
                        store, args.stall_factor
                    )
                print(_json.dumps(out, indent=2, sort_keys=True))
                return _payload_exit_code(payloads)
            if args.name is None:
                payloads = _all_experiment_payloads(store, args.stall_factor)
                rows = [["experiment", "status", "tasks", "done"]]
                for p in payloads:
                    tasks = p["tasks"]
                    done = tasks["done"] + tasks["analyzed"] if tasks else "-"
                    rows.append([p["name"], p["status"],
                                 str(tasks.get("total", "-")), str(done)])
                print(format_table(rows, title=f"experiments under {store.root}"))
                unreadable = any(p["status"] == "unreadable" for p in payloads)
                return 1 if unreadable else 0
            _print_exp_status(store.load(args.name))
            return 0
        if args.action == "merge":
            state = store.merge(args.name)
            print(f"merged {len(store.shard_paths(args.name))} shard files")
            _print_exp_status(state)
            return 0
        # report
        state = store.load(args.name)
        results = ExperimentResults.load(
            state, _cache(args), mark_analyzed=args.mark_analyzed
        )
        frame = results.frame()
        columns = list(frame[0])
        rows = [columns] + [
            [f"{row.get(c):.6g}" if isinstance(row.get(c), float) else str(row.get(c))
             for c in columns]
            for row in frame
        ]
        print(format_table(rows, title=f"experiment: {args.name}"))
        if args.mark_analyzed:
            store.save(state)
        return 0
    except ConfigurationError as exc:
        print(f"error: {exc}")
        return 2


def _cmd_cache(args: argparse.Namespace) -> int:
    """``fcdpm cache stats|clear`` -- result-cache hygiene."""
    cache = ResultCache()
    if args.action == "stats":
        stats = cache.stats()
        rows = [["namespace", "entries", "bytes"]]
        for namespace, ns in stats.namespaces.items():
            rows.append([namespace, str(ns.entries), str(ns.bytes)])
        rows.append(["total", str(stats.entries), str(stats.bytes)])
        print(format_table(rows, title=f"result cache: {stats.root}"))
        return 0
    removed = cache.clear(namespace=args.namespace)
    scope = f"namespace {args.namespace!r}" if args.namespace else "all namespaces"
    print(f"removed {removed} entries ({scope}) from {cache.root}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``fcdpm trace summary|check <dir>`` -- inspect a trace bundle."""
    from .obs import read_jsonl, trace_summary, validate_trace_dir

    if args.action == "check":
        problems = validate_trace_dir(args.directory)
        if problems:
            for problem in problems:
                print(f"FAIL {problem}")
            return 1
        print(f"ok {args.directory}")
        return 0
    from pathlib import Path

    jsonl = Path(args.directory) / "spans.jsonl"
    if not jsonl.exists():
        print(f"no spans.jsonl under {args.directory}")
        return 2
    spans, metric_records = read_jsonl(jsonl)
    print(trace_summary(spans, metric_records))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``fcdpm`` console script."""
    parser = argparse.ArgumentParser(
        prog="fcdpm",
        description="Regenerate the experiments of Zhuo et al., DAC 2007.",
    )
    parser.add_argument("--seed", type=int, default=2007, help="trace RNG seed")
    parser.add_argument(
        "--workers",
        type=_workers_arg,
        default=1,
        help="processes for seed sweeps and ablations (default 1 = serial; "
        "0 = all cores); results are bit-identical for any value",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute even when a cached result exists on disk",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("table2", "table3", "fig2", "fig3", "fig4", "fig7"):
        sub.add_parser(name, help=f"regenerate {name}")
    sweep = sub.add_parser("sweep", help="run an ablation sweep")
    sweep.add_argument("name", help="storage | predictor | beta | recharge")

    run = sub.add_parser("run", help="run one named scenario")
    run.add_argument(
        "--scenario",
        help="registered scenario name (or the aliases "
        + " / ".join(sorted(SCENARIO_ALIASES))
        + ")",
    )
    run.add_argument(
        "--list", action="store_true", help="list registered scenarios"
    )
    run.add_argument(
        "--trace",
        metavar="DIR",
        help="run with telemetry enabled and write spans.jsonl, "
        "trace.json (chrome://tracing) and manifest.json into DIR "
        "(bypasses the result cache)",
    )

    trace = sub.add_parser("trace", help="inspect a --trace output directory")
    trace.add_argument("action", choices=("summary", "check"))
    trace.add_argument("directory", help="directory written by run --trace")

    exp = sub.add_parser(
        "exp", help="define / run / inspect orchestrated experiments"
    )
    exp_sub = exp.add_subparsers(dest="action", required=True)
    exp_define = exp_sub.add_parser("define", help="persist an experiment spec")
    exp_define.add_argument("name", help="experiment name")
    exp_define.add_argument(
        "--kind", default="scenario",
        help="task kind (scenario | scenario-metrics | table2-metrics | "
        "sweep.storage | sweep.beta | sweep.recharge | sweep.predictor; "
        "the sweep shorthands storage/beta/recharge/predictor also work)",
    )
    exp_define.add_argument("--scenario", help="registered scenario name")
    exp_define.add_argument(
        "--seeds", type=_parse_seeds, help="'lo:hi' range or comma list"
    )
    exp_define.add_argument(
        "--policies", help="comma list of simulate_batch policy specs"
    )
    exp_define.add_argument(
        "--ablate", action="append", metavar="KNOB=V1,V2",
        help="one ablation axis (repeatable; cross product is expanded)",
    )
    exp_define.add_argument(
        "--overwrite", action="store_true",
        help="replace an existing definition with a different spec",
    )
    exp_run = exp_sub.add_parser("run", help="drive a defined experiment")
    exp_run.add_argument("name")
    exp_run.add_argument(
        "--shard", metavar="I/N",
        help="execute only this 1-based round-robin slice of the tasks",
    )
    exp_run.add_argument(
        "--no-resume", action="store_true",
        help="re-execute tasks even when their results are cached",
    )
    exp_resume = exp_sub.add_parser(
        "resume", help="alias of run (resume is the default behavior)"
    )
    exp_resume.add_argument("name")
    exp_resume.add_argument("--shard", metavar="I/N")
    for sub_parser in (exp_run, exp_resume):
        sub_parser.add_argument(
            "--live", action="store_true",
            help="publish live heartbeats + a metrics snapshot JSON "
            "under the experiment dir while running (fcdpm exp watch)",
        )
        sub_parser.add_argument(
            "--live-interval", type=float, metavar="SECONDS",
            help="live flush cadence (implies --live; default 1.0, "
            "also via $FCDPM_LIVE_INTERVAL)",
        )
    exp_status = exp_sub.add_parser("status", help="lifecycle summary")
    exp_status.add_argument("name", nargs="?", help="omit to list everything")
    exp_status.add_argument(
        "--json", action="store_true",
        help="machine-readable status incl. live heartbeats "
        "(exit 4 on a detected stall, 1 on failed tasks or an "
        "unreadable experiment)",
    )
    exp_watch = exp_sub.add_parser(
        "watch", help="refreshing live-progress view of a running experiment"
    )
    exp_watch.add_argument("name")
    exp_watch.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="poll cadence for the refreshing view (default 2s)",
    )
    exp_watch.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (exit 4 = stall, 1 = failures)",
    )
    exp_watch.add_argument(
        "--json", action="store_true", help="emit the status payload as JSON"
    )
    for sub_parser in (exp_status, exp_watch):
        sub_parser.add_argument(
            "--stall-factor", type=float, default=3.0, metavar="N",
            help="flag a shard stalled when its heartbeat is older than "
            "N x its flush interval (default 3)",
        )
    exp_merge = exp_sub.add_parser(
        "merge", help="fold shard state files into state.json"
    )
    exp_merge.add_argument("name")
    exp_report = exp_sub.add_parser(
        "report", help="per-cell metric frame of a finished experiment"
    )
    exp_report.add_argument("name")
    exp_report.add_argument(
        "--mark-analyzed", action="store_true",
        help="advance consumed task records to 'analyzed'",
    )
    for sub_parser in (exp_define, exp_run, exp_resume, exp_status,
                       exp_watch, exp_merge, exp_report):
        sub_parser.add_argument(
            "--state-dir", default=None,
            help="experiment state root (default $FCDPM_EXP_DIR or "
            "<cache dir>/experiments)",
        )

    top = sub.add_parser(
        "top", help="live heartbeat overview of every experiment"
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="poll cadence for the refreshing view (default 2s)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (exit 4 = stall, 1 = failures or "
        "an unreadable experiment)",
    )
    top.add_argument(
        "--json", action="store_true", help="emit status payloads as JSON"
    )
    top.add_argument(
        "--stall-factor", type=float, default=3.0, metavar="N",
        help="flag a shard stalled when its heartbeat is older than "
        "N x its flush interval (default 3)",
    )
    top.add_argument(
        "--state-dir", default=None,
        help="experiment state root (default $FCDPM_EXP_DIR or "
        "<cache dir>/experiments)",
    )

    cache = sub.add_parser("cache", help="result-cache statistics and hygiene")
    cache_sub = cache.add_subparsers(dest="action", required=True)
    cache_sub.add_parser("stats", help="entry count / bytes per namespace")
    cache_clear = cache_sub.add_parser(
        "clear", help="delete entries (all, or one namespace)"
    )
    cache_clear.add_argument(
        "--namespace", default=None,
        help="only entries in this namespace (e.g. exp/scenario)",
    )

    sub.add_parser("report", help="run the full evaluation report")
    export = sub.add_parser("export", help="write figure/table CSVs")
    export.add_argument("directory", help="output directory for the CSVs")
    sub.add_parser("lifetime", help="run-to-empty lifetime comparison")

    args = parser.parse_args(argv)
    if args.command in ("table2", "table3"):
        return _cmd_table(args.command, args)
    if args.command == "report":
        from .analysis.experiments import full_report

        text = _cache(args).cached(
            "report",
            {"seed": args.seed},
            lambda: full_report(seed=args.seed, workers=args.workers),
        )
        print(text)
        return 0
    if args.command == "export":
        from .analysis.export import export_all

        paths = export_all(args.directory)
        for path in paths:
            print(f"wrote {path}")
        return 0
    if args.command == "lifetime":
        from .core.manager import PowerManager
        from .devices.camcorder import camcorder_device_params
        from .sim.lifetime import lifetime_comparison
        from .workload.mpeg import generate_mpeg_trace

        trace = generate_mpeg_trace(duration_s=300.0, seed=args.seed)
        dev = camcorder_device_params()
        managers = [
            PowerManager.conv_dpm(dev, storage_capacity=6.0, storage_initial=3.0),
            PowerManager.asap_dpm(dev, storage_capacity=6.0, storage_initial=3.0),
            PowerManager.fc_dpm(dev, storage_capacity=6.0, storage_initial=3.0),
        ]
        results = lifetime_comparison(managers, trace, tank_capacity=2000.0)
        rows = [["policy", "lifetime (min)", "mean Ifc (A)"]]
        for name, r in results.items():
            rows.append([name, f"{r.lifetime / 60:.1f}",
                         f"{r.average_fuel_rate:.3f}"])
        print(format_table(rows, title="run-to-empty on a 2000 A-s reserve"))
        return 0
    handlers = {
        "fig2": _cmd_fig2,
        "fig3": _cmd_fig3,
        "fig4": _cmd_fig4,
        "fig7": _cmd_fig7,
        "sweep": _cmd_sweep,
        "run": _cmd_run,
        "trace": _cmd_trace,
        "exp": _cmd_exp,
        "top": _cmd_top,
        "cache": _cmd_cache,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
