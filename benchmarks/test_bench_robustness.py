"""Robustness benches: seed stability, fault injection, slew limits.

These quantify how far the paper's headline survives conditions the
paper never tested.
"""

from repro.analysis.report import format_table
from repro.analysis.slew import slew_rate_sweep
from repro.core.manager import PowerManager
from repro.devices.camcorder import camcorder_device_params
from repro.fuelcell.efficiency import LinearSystemEfficiency
from repro.sim.faults import DegradedEfficiency
from repro.sim.montecarlo import run_seeds, table2_metrics
from repro.sim.slotsim import SlotSimulator, simulate_policies
from repro.workload.mpeg import generate_mpeg_trace


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


def test_bench_stack_aging(benchmark, emit):
    """FC-DPM's win must survive stack degradation."""
    dev = camcorder_device_params()
    trace = generate_mpeg_trace(duration_s=600.0, seed=13)

    def run_all():
        out = {}
        for health in (1.0, 0.9, 0.8, 0.7):
            model = DegradedEfficiency(LinearSystemEfficiency(), health)
            managers = [
                PowerManager.asap_dpm(dev, model=model, storage_capacity=6.0,
                                      storage_initial=3.0),
                PowerManager.fc_dpm(dev, model=model, storage_capacity=6.0,
                                    storage_initial=3.0),
            ]
            results = simulate_policies(trace, managers)
            out[health] = (
                results["asap-dpm"].fuel,
                results["fc-dpm"].fuel,
            )
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [["stack health", "asap fuel", "fc-dpm fuel", "fc saving (%)"]]
    for health, (asap, fc) in results.items():
        rows.append(
            [f"{health:.1f}", f"{asap:.1f}", f"{fc:.1f}",
             f"{100 * (1 - fc / asap):.1f}"]
        )
    emit(
        "robust_aging",
        "FAULT INJECTION -- stack aging (efficiency scaled by health)\n"
        + format_table(rows),
    )
    for asap, fc in results.values():
        assert fc < asap


def test_bench_slew_rate(benchmark, emit):
    """How fast must the fuel-flow controller be for the paper's
    instant-retarget assumption to hold?"""
    model = LinearSystemEfficiency()
    dev = camcorder_device_params()
    trace = generate_mpeg_trace(duration_s=600.0, seed=13)
    mgr = PowerManager.fc_dpm(dev, storage_capacity=6.0, storage_initial=3.0)
    result = SlotSimulator(mgr, record=True).run(trace)
    _, commands = result.recorder.step_series("i_f")
    durations = [s.dt for s in result.recorder.samples]

    sweep = benchmark.pedantic(
        slew_rate_sweep, args=(durations, list(commands), model),
        rounds=1, iterations=1,
    )
    rows = [["slew rate (A/s)", "fuel penalty (%)", "worst shortfall (A-s)"]]
    for rate, r in sweep.items():
        rows.append(
            [f"{rate:g}", f"{100 * r.fuel_penalty:+.2f}",
             f"{r.worst_transition_shortfall:.3f}"]
        )
    emit(
        "robust_slew",
        "ABLATION -- FC output slew-rate limit on the FC-DPM profile\n"
        + format_table(rows)
        + "\nreading: above ~0.5 A/s the instant-retarget assumption is "
        "harmless (sub-0.1 A-s shortfalls vs a 6 A-s buffer).",
    )
    steepest = sweep[max(sweep)]
    assert abs(steepest.fuel_penalty) < 0.01
    assert steepest.worst_transition_shortfall < 0.2

