"""Micro-benchmarks of the hot paths (throughput numbers for the README).

These are conventional performance benches: the closed-form slot solver
must stay in the microsecond range (it runs once per task slot online),
and a full 28-minute trace simulation must remain interactive.

The runtime benches at the bottom measure the PR-1 speed levers: the
memoized slot solver versus a cold solve, and a 20-seed Monte-Carlo
sweep dispatched serially versus across every available core.  Both
write their measurements to ``benchmarks/out/``.
"""

import os
import time

from repro.core.manager import PowerManager
from repro.core.optimizer import solve_slot
from repro.core.setting import SlotProblem
from repro.devices.camcorder import camcorder_device_params
from repro.fuelcell.efficiency import LinearSystemEfficiency
from repro.runtime.memo import (
    clear_solver_cache,
    solve_slot_memo,
    solver_cache_stats,
)
from repro.runtime.parallel import ParallelMap, resolve_workers
from repro.sim.montecarlo import run_seeds, table2_metrics
from repro.sim.slotsim import SlotSimulator
from repro.workload.mpeg import generate_mpeg_trace
from tests.oracle import scalar_batch

MODEL = LinearSystemEfficiency()
PROBLEM = SlotProblem(
    t_idle=12.0, t_active=3.0, i_idle=0.2, i_active=1.22,
    c_ini=3.0, c_end=3.0, c_max=6.0, sleeping=True,
    t_wu=0.5, t_pd=0.5, i_wu=0.4, i_pd=0.4,
)


def test_bench_solve_slot_closed_form(benchmark):
    """One online FC-DPM decision (must be trivially cheap)."""
    solution = benchmark(solve_slot, PROBLEM, MODEL)
    assert solution.fuel > 0


def test_bench_fuel_map_evaluation(benchmark):
    """A single Eq. 4 evaluation."""
    value = benchmark(MODEL.fc_current, 0.5333)
    assert abs(value - 0.448) < 1e-3


def test_bench_trace_generation(benchmark):
    """28-minute MPEG trace synthesis."""
    trace = benchmark(generate_mpeg_trace)
    assert len(trace) > 50


def test_bench_full_simulation_fc_dpm(benchmark):
    """End-to-end FC-DPM simulation of the 28-minute trace."""
    trace = generate_mpeg_trace()
    dev = camcorder_device_params()

    def run():
        mgr = PowerManager.fc_dpm(dev, storage_capacity=6.0, storage_initial=3.0)
        return SlotSimulator(mgr).run(trace)

    result = benchmark(run)
    assert result.fuel > 0


# -- runtime subsystem benches (PR 1) ---------------------------------------


def _fast_loop(sc, seeds, policies, traces=None):
    """Per-seed ``simulate_fast`` loop: the 1D kernel once per (seed, policy).

    Managers are built once per policy and reset between seeds (a reset
    manager is state-identical to a fresh build), so the loop times the
    kernel, not plant construction.  Seeds missing from ``traces`` are
    synthesized inside the loop, one ``build_trace`` per seed.
    """
    from repro.sim.vectorized import _policy_manager, simulate_fast

    managers = {spec: _policy_manager(sc, spec) for spec in policies}
    initial = {spec: m.source.storage.charge for spec, m in managers.items()}
    traces = traces or {}
    out = {}
    for seed in seeds:
        trace = traces.get(seed) or sc.build_trace(seed)
        per_policy = {}
        for spec, mgr in managers.items():
            mgr.reset(initial[spec])
            per_policy[spec] = simulate_fast(mgr, trace)
        out[seed] = per_policy
    return out


def _best_of(fn, repeats: int = 5, number: int = 2000) -> float:
    """Best mean-per-call over several timing repeats (s)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return best


def test_bench_solve_slot_cached_vs_uncached(benchmark, emit):
    """Memoized re-solve of an identical slot problem: >= 5x faster."""
    clear_solver_cache()
    t_uncached = _best_of(lambda: solve_slot(PROBLEM, MODEL))
    solve_slot_memo(PROBLEM, MODEL)  # warm the single entry
    t_cached = _best_of(lambda: solve_slot_memo(PROBLEM, MODEL))
    benchmark(solve_slot_memo, PROBLEM, MODEL)
    ratio = t_uncached / t_cached
    stats = solver_cache_stats()
    emit(
        "microbench_solver_cache",
        "solve_slot memoization (identical SlotProblem re-solve)\n"
        f"uncached: {1e6 * t_uncached:.2f} us/call\n"
        f"cached:   {1e6 * t_cached:.2f} us/call\n"
        f"speedup:  {ratio:.1f}x (hit rate {stats.hit_rate:.3f})",
    )
    assert ratio >= 5.0, f"cached re-solve only {ratio:.1f}x faster"
    clear_solver_cache()


def test_bench_run_seeds_parallel(benchmark, emit):
    """20-seed table2 sweep: workers=1 vs workers=all-cores.

    Parallel summaries must be bit-identical to serial; the >= 2x
    wall-clock assertion only applies where the hardware can deliver it
    (>= 4 usable cores -- a 1-core CI box still exercises dispatch and
    equivalence, just not the speedup).
    """
    seeds = range(20)
    workers = resolve_workers(0)

    t0 = time.perf_counter()
    serial = run_seeds(table2_metrics, seeds, workers=1)
    t_serial = time.perf_counter() - t0

    pm = ParallelMap(workers=workers)
    t0 = time.perf_counter()
    parallel_results = pm.map(table2_metrics, list(seeds))
    t_parallel = time.perf_counter() - t0
    parallel = run_seeds(table2_metrics, seeds, workers=workers)
    benchmark.pedantic(
        run_seeds, args=(table2_metrics, seeds), kwargs={"workers": workers},
        rounds=1, iterations=1,
    )

    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    emit(
        "microbench_parallel_run_seeds",
        "run_seeds: 20-seed table2 Monte-Carlo sweep\n"
        f"serial (workers=1):    {t_serial:.3f} s\n"
        f"parallel (workers={workers}): {t_parallel:.3f} s\n"
        f"speedup: {speedup:.2f}x | {pm.stats.mode} x{pm.stats.workers}, "
        f"{len(pm.stats.chunk_durations)} chunks",
    )

    as_bits = lambda out: {
        k: (s.n, s.mean, s.stdev, s.minimum, s.maximum) for k, s in out.items()
    }
    assert as_bits(parallel) == as_bits(serial)
    assert len(parallel_results) == 20
    if workers >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x on {workers} cores, measured {speedup:.2f}x"
        )


def test_bench_downsizing_curve_parallel(emit):
    """Sizing curve fan-out: equivalence plus timing on this host."""
    trace = generate_mpeg_trace(seed=3)
    dev = camcorder_device_params()
    from repro.fuelcell.sizing import downsizing_curve

    caps = (0.0, 1.0, 2.0, 4.0, 6.0, 12.0, 24.0)
    t0 = time.perf_counter()
    serial = downsizing_curve(trace, dev, capacities=caps)
    t_serial = time.perf_counter() - t0
    workers = resolve_workers(0)
    t0 = time.perf_counter()
    parallel = downsizing_curve(trace, dev, capacities=caps, workers=workers)
    t_parallel = time.perf_counter() - t0
    emit(
        "microbench_parallel_downsizing",
        "downsizing_curve over 7 capacities\n"
        f"serial:   {t_serial:.3f} s\n"
        f"parallel (workers={workers}): {t_parallel:.3f} s "
        f"({os.cpu_count()} cpus on host)",
    )
    assert parallel == serial


# -- vectorized kernel benches (this PR) -------------------------------------


def _best_wall(fn, repeats: int = 3) -> float:
    """Best single-call wall-clock over ``repeats`` warm runs (s)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_vectorized_table2(emit, kernel_record):
    """Single-trace array kernel vs scalar simulator on the Exp-1 trace.

    Conv-DPM and ASAP-DPM hold static controllers, so the kernel is
    pure array code (>= 4x).  FC-DPM is scan-compiled since kernel
    round 2 -- its Eq. 14/15 predictors precompute, but the per-slot
    storage-coupled solves stay sequential, so its floor is lower
    (>= 2x).  Every timed pair is asserted bit-identical first.
    """
    from repro.sim.vectorized import simulate_fast

    trace = generate_mpeg_trace(seed=2007)
    dev = camcorder_device_params()
    builders = {
        "conv-dpm": (PowerManager.conv_dpm, 4.0),
        "asap-dpm": (PowerManager.asap_dpm, 4.0),
        "fc-dpm": (PowerManager.fc_dpm, 2.0),
    }
    lines = ["vectorized simulate_fast vs SlotSimulator (Exp-1 trace)"]
    data: dict[str, dict[str, float]] = {}
    for name, (build, floor) in builders.items():
        def scalar():
            mgr = build(dev, storage_capacity=6.0, storage_initial=3.0)
            return SlotSimulator(mgr).run(trace)

        def fast():
            mgr = build(dev, storage_capacity=6.0, storage_initial=3.0)
            return simulate_fast(mgr, trace)

        assert fast() == scalar()
        t_scalar = _best_of(scalar, repeats=5, number=5)
        t_fast = _best_of(fast, repeats=5, number=25)
        ratio = t_scalar / t_fast
        lines.append(
            f"{name}: scalar {1e3 * t_scalar:.3f} ms | "
            f"fast {1e3 * t_fast:.3f} ms | speedup {ratio:.1f}x"
        )
        data[name] = {
            "scalar_ms": 1e3 * t_scalar,
            "fast_ms": 1e3 * t_fast,
            "speedup": ratio,
        }
        assert ratio >= floor, f"{name} only {ratio:.1f}x faster"

    emit("microbench_vectorized_table2", "\n".join(lines), data=data)
    kernel_record("single_trace", data)


def test_bench_vectorized_batch(emit, kernel_record):
    """100-seed x 3-policy Monte-Carlo batch, warm best-of.

    Three timings over the same prebuilt traces: the scalar loop
    (:func:`tests.oracle.scalar_batch`), the serial 1D kernel (a
    per-seed ``simulate_fast`` loop), and the full batch path
    (``simulate_batch`` with every core as workers, which runs row
    shards of the stacked kernel in pool workers).
    Gates: the serial
    kernel must hold >= 12x everywhere; the full path must reach >= 50x
    where the hardware can deliver it (>= 4 usable cores -- the same
    self-gating convention as the run_seeds bench above; a 1-core box
    still asserts exact equality of all paths).  Warm best-of is the
    methodology: the first call pays one-time costs (solver memo,
    import side effects) that a cold single-shot misattributes to
    whichever path runs second.
    """
    from repro.scenario import get_scenario
    from repro.sim.vectorized import simulate_batch

    sc = get_scenario("exp1-conv-dpm")
    seeds = list(range(100))
    policies = ["conv-dpm", "asap-dpm", "static:0.8"]
    traces = {s: sc.build_trace(s) for s in seeds}
    workers = resolve_workers(0)

    scalar = scalar_batch(sc, seeds, policies, traces=traces)
    assert _fast_loop(sc, seeds, policies, traces) == scalar
    if workers > 1:
        parallel = simulate_batch(sc, seeds, policies, traces=traces, workers=0)
        assert parallel == scalar

    t_scalar = _best_wall(
        lambda: scalar_batch(sc, seeds, policies, traces=traces), repeats=2
    )
    t_fast = _best_wall(
        lambda: _fast_loop(sc, seeds, policies, traces), repeats=5
    )
    ratio = t_scalar / t_fast
    lines = [
        "simulate_batch: 100 seeds x 3 policies (exp1-conv-dpm), warm best-of",
        f"scalar loop (oracle):      {1e3 * t_scalar:.1f} ms",
        f"serial kernel (workers=1): {1e3 * t_fast:.1f} ms "
        f"| speedup {ratio:.1f}x",
    ]
    data = {
        "n_seeds": len(seeds),
        "policies": policies,
        "scalar_ms": 1e3 * t_scalar,
        "fast_ms": 1e3 * t_fast,
        "speedup": ratio,
        "workers": workers,
    }
    if workers > 1:
        t_batch = _best_wall(
            lambda: simulate_batch(sc, seeds, policies, traces=traces, workers=0),
            repeats=5,
        )
        batch_ratio = t_scalar / t_batch
        lines.append(
            f"batch path (workers={workers}): {1e3 * t_batch:.1f} ms "
            f"| speedup {batch_ratio:.1f}x"
        )
        data["batch_ms"] = 1e3 * t_batch
        data["batch_speedup"] = batch_ratio
    emit("microbench_vectorized_batch", "\n".join(lines), data=data)
    kernel_record("batch", data)

    assert ratio >= 12.0, f"serial kernel only {ratio:.1f}x faster"
    if workers >= 4:
        assert data["batch_speedup"] >= 50.0, (
            f"expected >= 50x on {workers} cores, "
            f"measured {data['batch_speedup']:.1f}x"
        )


def test_bench_vectorized_batch_fc(emit, kernel_record):
    """100-seed FC-DPM batch: the scan-compiled adaptive controller.

    FC-DPM cannot reach the static-controller ratios -- each slot still
    poses a live storage-coupled ``SlotProblem`` -- so it gets its own
    gate (>= 2.5x, warm best-of) under the same exact-equality
    contract.
    """
    from repro.scenario import get_scenario
    from repro.sim.vectorized import simulate_batch

    sc = get_scenario("exp1-conv-dpm")
    seeds = list(range(100))
    policies = ["fc-dpm"]
    traces = {s: sc.build_trace(s) for s in seeds}

    scalar = scalar_batch(sc, seeds, policies, traces=traces)
    assert _fast_loop(sc, seeds, policies, traces) == scalar

    t_scalar = _best_wall(
        lambda: scalar_batch(sc, seeds, policies, traces=traces), repeats=2
    )
    t_fast = _best_wall(
        lambda: _fast_loop(sc, seeds, policies, traces), repeats=3
    )
    ratio = t_scalar / t_fast
    data = {
        "n_seeds": len(seeds),
        "scalar_ms": 1e3 * t_scalar,
        "fast_ms": 1e3 * t_fast,
        "speedup": ratio,
    }
    emit(
        "microbench_vectorized_batch_fc",
        "simulate_batch: 100 seeds x fc-dpm (scan-compiled), warm best-of\n"
        f"scalar loop:   {1e3 * t_scalar:.1f} ms\n"
        f"serial kernel: {1e3 * t_fast:.1f} ms\n"
        f"speedup: {ratio:.1f}x",
        data=data,
    )
    kernel_record("batch_fc", data)
    assert ratio >= 2.5, f"fc-dpm batch only {ratio:.1f}x faster"


def test_bench_vectorized_batch_stacked(emit, kernel_record):
    """1000-seed fleet sweep: the stacked 2D kernel vs the per-row loop.

    Kernel round 3's claim is that packing every seed's plan into one
    padded (seeds x segments) stack and sweeping all rows at once beats
    iterating the (already vectorized) 1D kernel per seed.  Both sides
    run the identical end-to-end sweep -- trace synthesis included,
    since batched synthesis is part of the stacked path -- over 1000
    seeds x 3 policies on exp2-conv-dpm, warm best-of, under the usual
    exact-equality contract.  Gate: >= 3x.
    """
    from repro.scenario import get_scenario
    from repro.sim.vectorized import simulate_batch

    sc = get_scenario("exp2-conv-dpm")
    seeds = list(range(1000))
    policies = ["conv-dpm", "asap-dpm", "static:0.8"]

    stacked = simulate_batch(sc, seeds, policies)
    loop = _fast_loop(sc, seeds, policies)
    assert stacked == loop

    # Interleave the two sides round-by-round (with a gc sweep before
    # each timing) so background noise from earlier benches in the
    # session lands on both equally, then take per-side bests.
    import gc

    t_loop = float("inf")
    t_stacked = float("inf")
    for _ in range(3):
        gc.collect()
        t0 = time.perf_counter()
        _fast_loop(sc, seeds, policies)
        t_loop = min(t_loop, time.perf_counter() - t0)
        gc.collect()
        t0 = time.perf_counter()
        simulate_batch(sc, seeds, policies)
        t_stacked = min(t_stacked, time.perf_counter() - t0)
    ratio = t_loop / t_stacked
    data = {
        "n_seeds": len(seeds),
        "policies": policies,
        "loop_ms": 1e3 * t_loop,
        "stacked_ms": 1e3 * t_stacked,
        "speedup": ratio,
    }
    emit(
        "microbench_vectorized_batch_stacked",
        "simulate_batch: 1000 seeds x 3 policies (exp2-conv-dpm), warm best-of\n"
        f"per-row loop:   {1e3 * t_loop:.1f} ms\n"
        f"stacked kernel: {1e3 * t_stacked:.1f} ms\n"
        f"speedup: {ratio:.1f}x",
        data=data,
    )
    kernel_record("batch_stacked", data)
    assert ratio >= 3.0, f"stacked kernel only {ratio:.1f}x faster"


def test_bench_fc_stacked(emit, kernel_record):
    """1000-seed FC-DPM sweep: lockstep stacked solves vs the per-row loop.

    Kernel round 4's claim: FC-DPM's storage-coupled slot solves, which
    forced the stacked route to fall back to one ``_run_fc`` pass per
    row, batch across rows when the iteration is transposed -- all rows
    advance in lockstep, one ``solve_slot_array`` call per slot column.
    Both sides run the identical end-to-end sweep over 1000 seeds on
    exp2-conv-dpm, warm best-of with interleaved gc'd rounds, under the
    exact-equality contract.  Gate: >= 2x over the per-row loop (the
    loop side is itself the scan-compiled kernel, not the scalar
    simulator, so the bar is a genuine same-generation comparison).
    """
    import gc

    from repro.scenario import get_scenario
    from repro.sim.vectorized import simulate_batch

    sc = get_scenario("exp2-conv-dpm")
    seeds = list(range(1000))
    policies = ["fc-dpm"]

    stacked = simulate_batch(sc, seeds, policies)
    loop = _fast_loop(sc, seeds, policies)
    assert stacked == loop

    t_loop = float("inf")
    t_stacked = float("inf")
    for _ in range(3):
        gc.collect()
        t0 = time.perf_counter()
        _fast_loop(sc, seeds, policies)
        t_loop = min(t_loop, time.perf_counter() - t0)
        gc.collect()
        t0 = time.perf_counter()
        simulate_batch(sc, seeds, policies)
        t_stacked = min(t_stacked, time.perf_counter() - t0)
    ratio = t_loop / t_stacked
    data = {
        "n_seeds": len(seeds),
        "policies": policies,
        "loop_ms": 1e3 * t_loop,
        "stacked_ms": 1e3 * t_stacked,
        "speedup": ratio,
    }
    emit(
        "microbench_fc_stacked",
        "simulate_batch: 1000 seeds x fc-dpm (lockstep stacked), warm best-of\n"
        f"per-row loop:    {1e3 * t_loop:.1f} ms\n"
        f"stacked lockstep: {1e3 * t_stacked:.1f} ms\n"
        f"speedup: {ratio:.1f}x",
        data=data,
    )
    kernel_record("batch_fc_stacked", data)
    assert ratio >= 2.0, f"fc-dpm stacked only {ratio:.1f}x faster"


def test_bench_clamped_cumsum_clamp_heavy(emit, kernel_record):
    """Storage recurrence where nearly every segment clamps.

    20k uniform +/-4 A-s deltas against a 6 A-s bucket violate a bound
    on most steps -- the regime where per-event array rescans
    degenerate and ``clamped_cumsum`` switches to its scratch-buffer +
    sequential tail.  The result must match a pure-Python reference bit
    for bit and still stream >= 2M segments/s.
    """
    import numpy as np

    from repro.sim.vectorized import clamped_cumsum

    rng = np.random.default_rng(0)
    deltas = rng.uniform(-4.0, 4.0, 20_000)
    initial, capacity = 3.0, 6.0

    charges, bled, deficit = clamped_cumsum(deltas, initial, capacity)
    cur, ref_bled, ref_deficit = initial, 0.0, 0.0
    reference = [cur]
    for delta in deltas.tolist():
        new = cur + delta
        if new > capacity:
            ref_bled += new - capacity
            cur = capacity
        elif new < 0.0:
            ref_deficit += -new
            cur = 0.0
        else:
            cur = new
        reference.append(cur)
    assert charges.tolist() == reference
    assert bled == ref_bled and deficit == ref_deficit

    t = _best_of(lambda: clamped_cumsum(deltas, initial, capacity),
                 repeats=3, number=5)
    rate = deltas.shape[0] / t
    data = {
        "n_segments": int(deltas.shape[0]),
        "wall_ms": 1e3 * t,
        "segments_per_second": rate,
    }
    emit(
        "microbench_clamped_cumsum",
        "clamped_cumsum: 20k-segment clamp-heavy recurrence\n"
        f"wall: {1e3 * t:.2f} ms ({rate / 1e6:.1f}M segments/s)",
        data=data,
    )
    kernel_record("clamped_cumsum", data)
    assert rate >= 2e6, f"only {rate / 1e6:.1f}M segments/s"


# -- observability overhead gate (this PR) -----------------------------------


def test_bench_obs_disabled_overhead(emit):
    """Disabled telemetry must cost < 2% of the vectorized batch bench.

    Wall-clock A/A comparisons of the same code path are noise-bound at
    the single-percent level, so the gate projects instead: measure the
    per-call cost of the two disabled primitives (the ``OBS.enabled``
    guard that fronts every hot-path hook, and the null-object span the
    cold paths use), multiply by a *generous overcount* of how many the
    batch executes, and require the projection to stay under 2% of the
    measured per-run batch time.  The batch speedup gates above
    (serial >= 12x, hardware-conditional >= 50x) backstop this against
    gross regressions.
    """
    from repro.obs import OBS
    from repro.scenario import get_scenario
    from repro.sim.vectorized import simulate_batch

    assert not OBS.enabled, "benches must run with telemetry off"

    n = 200_000
    hit = False
    t0 = time.perf_counter()
    for _ in range(n):
        if OBS.enabled:
            hit = True
    t_guard = (time.perf_counter() - t0) / n
    assert not hit

    m = 20_000
    t0 = time.perf_counter()
    for _ in range(m):
        with OBS.span("bench.noop"):
            pass
    t_span = (time.perf_counter() - t0) / m

    sc = get_scenario("exp1-conv-dpm")
    seeds = list(range(20))
    policies = ["conv-dpm", "asap-dpm", "static:0.8"]
    traces = {s: sc.build_trace(s) for s in seeds}
    total_slots = sum(len(traces[s]) for s in seeds)

    def run():
        return simulate_batch(sc, seeds, policies, traces=traces)

    run()  # warm the solver memo / manager caches outside the timing
    t_batch = _best_of(run, repeats=3, number=1)

    # Disabled-state executions per batch, overcounted ~5x.  Since the
    # predictor scan (``decisions_array``) replaced the per-slot
    # predict/observe replay, the fast path fires no per-slot guards
    # for these policies -- only ~1 guard per seed in the scan entry
    # plus a handful of routing guards and one span per (seed, policy).
    # A 1x-per-slot term stays in as margin for configurations that
    # fall back to the sequential replay.
    guards = total_slots + 30 * len(seeds) * len(policies)
    spans = 2 * (2 + len(seeds) * len(policies))
    projected = guards * t_guard + spans * t_span
    overhead = projected / t_batch

    emit(
        "microbench_obs_disabled_overhead",
        "telemetry disabled-path overhead vs vectorized batch\n"
        f"guard:     {1e9 * t_guard:.1f} ns/check\n"
        f"null span: {1e9 * t_span:.1f} ns/span\n"
        f"batch:     {1e3 * t_batch:.1f} ms per run "
        f"({len(seeds)} seeds x {len(policies)} policies)\n"
        f"projected overhead ({guards} guards + {spans} spans, "
        f"overcounted): {100 * overhead:.3f}%",
        data={
            "guard_ns": 1e9 * t_guard,
            "null_span_ns": 1e9 * t_span,
            "batch_ms": 1e3 * t_batch,
            "projected_overhead_fraction": overhead,
        },
    )
    assert overhead < 0.02, (
        f"projected disabled-telemetry overhead {100 * overhead:.2f}% "
        "exceeds the 2% budget"
    )


def test_bench_obs_live_disabled_overhead(emit):
    """Disabled *live* telemetry must cost < 2% of the batch bench.

    The live layer adds three hot-path hooks (``sim.batch_rows_completed``
    per seed row, the in-flight chunk gauge, and per-chunk completion
    counters) -- all behind the same ``OBS.enabled`` guard -- plus the
    runner's ``progress is not None`` attribute test per task commit.
    With telemetry off, no flusher thread may exist and the projected
    guard cost must stay inside the 2% budget (same projection method
    as :func:`test_bench_obs_disabled_overhead`).
    """
    import threading

    from repro.obs import OBS
    from repro.scenario import get_scenario
    from repro.sim.vectorized import simulate_batch

    assert not OBS.enabled, "benches must run with telemetry off"

    n = 200_000
    hit = False
    t0 = time.perf_counter()
    for _ in range(n):
        if OBS.enabled:
            hit = True
    t_guard = (time.perf_counter() - t0) / n
    assert not hit

    sc = get_scenario("exp1-conv-dpm")
    seeds = list(range(20))
    policies = ["conv-dpm", "asap-dpm", "static:0.8"]
    traces = {s: sc.build_trace(s) for s in seeds}

    def run():
        return simulate_batch(sc, seeds, policies, traces=traces)

    run()
    t_batch = _best_of(run, repeats=3, number=1)

    # Off-path executions the live layer adds per batch, overcounted:
    # one rows-completed guard per seed row on each path (x2 margin for
    # the loop + stacked variants), the inflight gauge + per-chunk
    # counter guards (bounded by chunk count, overcounted at one per
    # seed x policy), and one progress attribute test per task commit
    # (same order as a guard; counted as guards here).
    guards = 3 * len(seeds) * len(policies) + 2 * len(seeds) + 20
    projected = guards * t_guard
    overhead = projected / t_batch

    assert not any(
        t.name.startswith("fcdpm-live") for t in threading.enumerate()
    ), "a LiveFlusher thread is alive in a telemetry-off bench"

    emit(
        "microbench_obs_live_disabled_overhead",
        "live-telemetry disabled-path overhead vs vectorized batch\n"
        f"guard: {1e9 * t_guard:.1f} ns/check\n"
        f"batch: {1e3 * t_batch:.1f} ms per run\n"
        f"projected overhead ({guards} guards, overcounted): "
        f"{100 * overhead:.4f}%",
        data={
            "guard_ns": 1e9 * t_guard,
            "batch_ms": 1e3 * t_batch,
            "projected_overhead_fraction": overhead,
        },
    )
    assert overhead < 0.02, (
        f"projected disabled live-telemetry overhead {100 * overhead:.2f}% "
        "exceeds the 2% budget"
    )
