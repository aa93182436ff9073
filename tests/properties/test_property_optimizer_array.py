"""Property-based bit-exactness gates for the batched Section-3 solver.

Two contracts, both absolute:

* :func:`repro.core.optimizer_array.solve_slot_array` equals the scalar
  :func:`repro.core.optimizer.solve_slot` on every solution field, bit
  for bit, across every branch of the decision procedure (unclamped,
  range-clamped, capacity-limited in both directions, ``t_idle == 0``,
  and the floor-overflow bleed where the ``Cmax`` correction lands
  below ``IF,min``);
* the lockstep FC-DPM stacked route (``sim.stacked._run_fc_stacked``)
  equals the per-seed ``simulate_fast`` loop on every
  ``SimulationResult`` field, on ragged traces, and raises the same
  error on mid-batch deficit raises; the loop, whose managers the
  caller owns, leaves the full manager / controller / predictor end
  state of the scalar simulator.

``==`` on raw float64 bits is the only comparison -- a single differing
bit (including a -0.0 vs +0.0 drift) fails.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import solve_slot
from repro.core.optimizer_array import SlotProblemColumns, solve_slot_array
from repro.core.setting import SlotProblem
from repro.errors import SimulationError
from repro.fuelcell.efficiency import (
    ConstantSystemEfficiency,
    LinearSystemEfficiency,
)
from repro.scenario import get_scenario
from repro.sim.slotsim import SlotSimulator
from repro.sim.vectorized import _policy_manager, simulate_batch, simulate_fast
from repro.workload.trace import LoadTrace, TaskSlot
from tests.oracle import scalar_batch

MODELS = [LinearSystemEfficiency(), ConstantSystemEfficiency()]

durations = st.floats(min_value=0.5, max_value=100.0, allow_nan=False)
currents = st.floats(min_value=0.0, max_value=1.4, allow_nan=False)


@st.composite
def general_problems(draw):
    """Wide-open draws; hits the flat and range-clamped branches."""
    c_max = draw(st.floats(min_value=1.0, max_value=100.0))
    sleeping = draw(st.booleans())
    return SlotProblem(
        t_idle=draw(st.one_of(st.just(0.0), durations)),
        t_active=draw(durations),
        i_idle=draw(st.floats(min_value=0.0, max_value=0.6)),
        i_active=draw(currents),
        c_ini=draw(st.floats(min_value=0.0, max_value=1.0)) * c_max,
        c_end=draw(st.floats(min_value=0.0, max_value=1.0)) * c_max,
        c_max=c_max,
        sleeping=sleeping,
        t_wu=draw(st.floats(min_value=0.0, max_value=5.0)) if sleeping else 0.0,
        t_pd=draw(st.floats(min_value=0.0, max_value=5.0)) if sleeping else 0.0,
        i_wu=draw(st.floats(min_value=0.0, max_value=1.0)) if sleeping else 0.0,
        i_pd=draw(st.floats(min_value=0.0, max_value=1.0)) if sleeping else 0.0,
    )


@st.composite
def saturating_problems(draw):
    """Nearly-full storage + long low-load idles: the Cmax correction,
    including the floor-overflow bleed (``i_idle == 0`` puts the
    corrected ``IF,i`` below ``IF,min``)."""
    c_max = draw(st.floats(min_value=1.0, max_value=20.0))
    frac = draw(st.floats(min_value=0.9, max_value=1.0))
    return SlotProblem(
        t_idle=draw(st.floats(min_value=20.0, max_value=200.0)),
        t_active=draw(st.floats(min_value=0.5, max_value=5.0)),
        i_idle=draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.05))),
        i_active=draw(st.floats(min_value=0.5, max_value=1.4)),
        c_ini=frac * c_max,
        c_end=draw(st.floats(min_value=0.0, max_value=1.0)) * c_max,
        c_max=c_max,
    )


@st.composite
def draining_problems(draw):
    """Nearly-empty storage + high idle loads: the empty correction."""
    c_max = draw(st.floats(min_value=5.0, max_value=100.0))
    return SlotProblem(
        t_idle=draw(st.floats(min_value=20.0, max_value=200.0)),
        t_active=draw(st.floats(min_value=0.5, max_value=5.0)),
        i_idle=draw(st.floats(min_value=0.4, max_value=0.6)),
        i_active=draw(st.floats(min_value=0.0, max_value=0.2)),
        c_ini=draw(st.floats(min_value=0.0, max_value=0.05)) * c_max,
        c_end=draw(st.floats(min_value=0.0, max_value=0.2)) * c_max,
        c_max=c_max,
    )


@st.composite
def zero_idle_problems(draw):
    """``t_idle == 0``: only the active output is free."""
    c_max = draw(st.floats(min_value=1.0, max_value=100.0))
    return SlotProblem(
        t_idle=0.0,
        t_active=draw(durations),
        i_idle=draw(st.floats(min_value=0.0, max_value=0.6)),
        i_active=draw(currents),
        c_ini=draw(st.floats(min_value=0.0, max_value=1.0)) * c_max,
        c_end=draw(st.floats(min_value=0.0, max_value=1.0)) * c_max,
        c_max=c_max,
    )


any_problem = st.one_of(
    general_problems(),
    saturating_problems(),
    draining_problems(),
    zero_idle_problems(),
)

_FLOAT_FIELDS = (
    "if_idle",
    "if_active",
    "ifc_idle",
    "ifc_active",
    "fuel",
    "c_after_idle",
    "c_after_slot",
    "bled",
    "deficit",
)
_BOOL_FIELDS = ("range_clamped", "capacity_limited")


def _assert_bitwise_equal(problems, model):
    cols = SlotProblemColumns.from_problems(problems)
    batch = solve_slot_array(cols, model)
    scalars = [solve_slot(p, model) for p in problems]
    for name in _FLOAT_FIELDS:
        got = getattr(batch, name).view(np.uint64).tolist()
        want = [
            np.float64(getattr(s, name)).view(np.uint64) for s in scalars
        ]
        assert got == want, name
    for name in _BOOL_FIELDS:
        assert getattr(batch, name).tolist() == [
            getattr(s, name) for s in scalars
        ], name


class TestSolveSlotArrayBitExact:
    @given(problems=st.lists(any_problem, min_size=1, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_every_field_linear(self, problems):
        _assert_bitwise_equal(problems, MODELS[0])

    @given(problems=st.lists(any_problem, min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_every_field_constant(self, problems):
        _assert_bitwise_equal(problems, MODELS[1])

    def test_branch_coverage_sweep(self):
        """A deterministic sweep must reach (and match on) every branch."""
        hit = set()
        rng = np.random.default_rng(0)
        model = MODELS[0]
        for _ in range(4000):
            c_max = float(rng.uniform(0.5, 30.0))
            p = SlotProblem(
                t_idle=float(rng.choice([0.0, rng.uniform(0.5, 200.0)])),
                t_active=float(rng.uniform(0.5, 20.0)),
                i_idle=float(rng.choice([0.0, rng.uniform(0.0, 0.6)])),
                i_active=float(rng.uniform(0.0, 1.4)),
                c_ini=float(rng.uniform(0.0, 1.0)) * c_max,
                c_end=float(rng.uniform(0.0, 1.0)) * c_max,
                c_max=c_max,
            )
            s = solve_slot(p, model)
            if p.t_idle == 0.0:
                hit.add("zero_idle")
            elif s.capacity_limited:
                mid_raw = p.c_ini + (s.if_idle - p.i_idle) * p.t_idle
                hit.add("over" if s.bled > 0 or mid_raw >= 0 else "under")
                if s.if_idle == model.if_min and s.bled > 0:
                    hit.add("floor_bleed")
            elif s.range_clamped:
                hit.add("clamped")
            else:
                hit.add("flat")
            if s.deficit > 0:
                hit.add("deficit")
            _assert_bitwise_equal([p], model)
        assert {
            "flat",
            "clamped",
            "over",
            "under",
            "floor_bleed",
            "zero_idle",
            "deficit",
        } <= hit, hit


# -- stacked FC-DPM route vs the per-row loop ---------------------------

slot_lists = st.lists(
    st.builds(
        TaskSlot,
        t_idle=st.floats(min_value=2.0, max_value=60.0, allow_nan=False),
        t_active=st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
        i_active=st.floats(min_value=0.1, max_value=1.3, allow_nan=False),
    ),
    min_size=1,
    max_size=8,
)


def _fc_state(mgr):
    """Full FC manager / controller / predictor end state."""
    controller = mgr.controller
    idle_pred = controller.idle_length_predictor
    active_pred = controller.active_length_predictor
    return {
        "charge": mgr.source.storage.charge,
        "bled": mgr.source.storage.bled_charge,
        "deficit": mgr.source.storage.deficit_charge,
        "i_f": mgr.source.fc._i_f,
        "consumed": mgr.source.fc.tank.consumed,
        "total_fuel": mgr.source.total_fuel,
        "total_load": mgr.source.total_load_charge,
        "total_time": mgr.source.total_time,
        "total_delivered": mgr.source.total_delivered_charge,
        "solutions": controller.solutions,
        "if_idle": controller._if_idle,
        "if_active": controller._if_active,
        "active_planned": controller._active_planned,
        "active_sum": controller._active_current_sum,
        "active_n": controller._active_current_n,
        "guards": controller.n_guard_activations,
        "idle_estimate": idle_pred._estimate,
        "active_estimate": active_pred._estimate,
        "idle_observed": idle_pred._n_observed,
        "active_observed": active_pred._n_observed,
        "idle_error": idle_pred._error_sum,
        "active_error": active_pred._error_sum,
        "policy_estimate": mgr.policy.predictor._estimate,
        "policy_decisions": mgr.policy.n_decisions,
        "policy_sleeps": mgr.policy.n_sleep_decisions,
    }


def _run_loop(scenario, seeds, policies, traces, run):
    """``run(manager, trace)`` per (seed, spec) on fresh managers.

    Returns ``(results, error, managers)``: the batch-shaped results
    (None after a raise), the first ``(type, message)`` raised, and the
    last manager built per spec.
    """
    results = {}
    managers = {}
    for seed in seeds:
        per_policy = {}
        for spec in policies:
            mgr = managers[spec] = _policy_manager(scenario, spec)
            try:
                per_policy[spec] = run(mgr, traces[seed])
            except SimulationError as exc:
                return None, (type(exc), str(exc)), managers
        results[seed] = per_policy
    return results, None, managers


def _batch(run, scenario, seeds, policies, **kwargs):
    """``(results, error)`` of one batch call of ``run``."""
    try:
        return run(scenario, seeds, policies, **kwargs), None
    except SimulationError as exc:
        return None, (type(exc), str(exc))


@given(traces=st.lists(slot_lists, min_size=1, max_size=4))
@settings(max_examples=10, deadline=None)
def test_fc_stacked_matches_loop_every_field_and_end_state(traces):
    """Lockstep FC pass vs per-seed loop: results + the loop's end state.

    Adversarial ragged traces with the deficit guard disabled -- the
    accounting is under test, not the plant sizing.
    """
    sc = get_scenario("exp2-conv-dpm")
    seeds = list(range(len(traces)))
    built = {s: LoadTrace(t) for s, t in zip(seeds, traces)}
    a, err_a = _batch(
        simulate_batch, sc, seeds, ["fc-dpm"], traces=built, max_deficit_fraction=1.0
    )
    b, err_b, mgrs_b = _run_loop(
        sc, seeds, ["fc-dpm"], built,
        lambda m, t: simulate_fast(m, t, max_deficit_fraction=1.0),
    )
    _, _, mgrs_c = _run_loop(
        sc, seeds, ["fc-dpm"], built,
        lambda m, t: SlotSimulator(m, max_deficit_fraction=1.0).run(t),
    )
    assert err_a == err_b is None
    assert a.keys() == b.keys()
    for seed in seeds:
        ra, rb = a[seed]["fc-dpm"], b[seed]["fc-dpm"]
        assert dataclasses.asdict(ra) == dataclasses.asdict(rb), seed
    assert _fc_state(mgrs_b["fc-dpm"]) == _fc_state(mgrs_c["fc-dpm"])


@given(
    traces=st.lists(slot_lists, min_size=2, max_size=4),
    raising_row=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=10, deadline=None)
def test_fc_stacked_mid_batch_raise_matches_loop(traces, raising_row):
    """A deficit raise mid-batch raises the loop's exact error."""
    raising_row = min(raising_row, len(traces) - 1)
    # Force a deficit on one row: a long, heavy active burst.
    traces = list(traces)
    traces[raising_row] = traces[raising_row] + [
        TaskSlot(t_idle=2.0, t_active=4000.0, i_active=1.4)
    ]
    sc = get_scenario("exp2-conv-dpm")
    seeds = list(range(len(traces)))
    built = {s: LoadTrace(t) for s, t in zip(seeds, traces)}
    policies = ["fc-dpm", "static:0.4"]
    a, err_a = _batch(simulate_batch, sc, seeds, policies, traces=built)
    b, err_b, _ = _run_loop(sc, seeds, policies, built, simulate_fast)
    _, err_c = _batch(scalar_batch, sc, seeds, policies, traces=built)
    assert err_a == err_b == err_c
    assert (a is None) == (b is None)
    if a is not None:
        for seed in seeds:
            for name in policies:
                ra, rb = a[seed][name], b[seed][name]
                assert dataclasses.asdict(ra) == dataclasses.asdict(rb)
