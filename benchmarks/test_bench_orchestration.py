"""Orchestration overhead gate: the experiment layer must stay thin.

The thin analysis clients route every sweep and seed study through
:func:`repro.exp.runner.run_experiment`; if the lifecycle layer (spec
expansion, task bookkeeping, state checkpoints) cost real time, every
consumer would pay it.  This bench races an ephemeral experiment run
against the bare :func:`~repro.sim.vectorized.simulate_batch` call it
wraps -- interleaved best-of timing so host noise hits both sides --
and gates the overhead at <= 5%, after asserting the results bit-equal.
"""

import time

from repro.exp import ExperimentResults, run_experiment, scenario_batch_spec
from repro.exp.tasks import result_metrics
from repro.sim.vectorized import simulate_batch

SCENARIO = "exp2-fc-dpm"
SEEDS = list(range(8))
POLICIES = ["conv-dpm", "asap-dpm", "fc-dpm"]
REPEATS = 9


def _bare():
    return simulate_batch(SCENARIO, SEEDS, POLICIES)


def _orchestrated():
    spec = scenario_batch_spec("bench", SCENARIO, SEEDS, policies=POLICIES)
    return run_experiment(spec)


def test_bench_orchestration_overhead(emit):
    """Ephemeral run_experiment vs bare simulate_batch: <= 5% overhead."""
    # Warm both paths once (plan compilation, imports) before timing.
    direct = _bare()
    run = _orchestrated()

    # Bit-equality first: overhead numbers are meaningless if the layer
    # changed the results.
    cells = ExperimentResults.from_run(run).by_cell()
    for seed in SEEDS:
        for policy in POLICIES:
            assert cells[(seed, policy)] == result_metrics(direct[seed][policy])

    # Interleaved best-of: alternate the two sides inside every repeat
    # so thermal / scheduling drift cannot bias one of them.
    t_bare = float("inf")
    t_orch = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _bare()
        t_bare = min(t_bare, time.perf_counter() - t0)
        t0 = time.perf_counter()
        _orchestrated()
        t_orch = min(t_orch, time.perf_counter() - t0)

    ratio = t_orch / t_bare
    emit(
        "bench_orchestration_overhead",
        f"run_experiment vs bare simulate_batch "
        f"({len(SEEDS)} seeds x {len(POLICIES)} policies)\n"
        f"bare:         {1e3 * t_bare:.2f} ms\n"
        f"orchestrated: {1e3 * t_orch:.2f} ms\n"
        f"overhead:     {100 * (ratio - 1):+.1f}%",
    )
    assert ratio <= 1.05, (
        f"orchestration overhead {100 * (ratio - 1):.1f}% exceeds the 5% "
        f"budget ({1e3 * t_bare:.2f} ms -> {1e3 * t_orch:.2f} ms)"
    )
