"""Stacked 2D batch kernel: equivalence, routing, plan stacking, fleet smoke.

The stacked route's contract is absolute: for every seed, every
``SimulationResult`` field must equal the scalar oracle and the
per-seed ``simulate_fast`` loop bit for bit -- including which
``SimulationError`` is raised, with which message.  Batch managers are
private to ``simulate_batch``, so end state is pinned only where a
caller owns the manager: the per-seed loop's raising manager must hold
the scalar simulator's committed state.  These tests also pin the batch
plumbing: duplicate-seed rejection, stacked/loop routing and its
telemetry, plan stacking, the parallel route, and the ``fleet_smoke``
scenario's golden aggregates.
"""

import dataclasses
import pickle

import numpy as np
import pytest

import repro.sim.stacked as stacked_mod
from repro.core.fc_dpm import FCDPMController
from repro.errors import ConfigurationError, SimulationError
from repro.obs import observing
from repro.scenario import get_scenario
from repro.sim.slotsim import SlotColumns, SlotResult, SlotSimulator
from repro.sim.stacked import _stack_from_flat, stacked_batch_ineligibility
from repro.sim.vectorized import (
    _policy_manager,
    plan_trace_arrays,
    replay_policy,
    simulate_batch,
    simulate_fast,
)
from repro.workload.trace import LoadTrace, TaskSlot
from tests.oracle import scalar_batch

POLICIES = ["conv-dpm", "asap-dpm", "static:0.8", "fc-dpm"]

#: Slot 1's 2 A task exceeds the 1.2 A FC ceiling and empties the
#: storage; slot 2 then starts asleep on that empty storage, and its
#: power-down segment draws more than the planned IF,i.  FC-DPM's
#: empty-storage guard follows the load there (the full-storage branch
#: never fires on this trace).  The paper workloads never reach this
#: branch.
EMPTY_GUARD_TRACE = LoadTrace(
    [TaskSlot(40.0, 2.0, 1.0), TaskSlot(10.0, 1.0, 2.0), TaskSlot(5.0, 2.0, 0.5)],
    name="empty-guard",
)


def _manager_state(mgr):
    """Every externally meaningful piece of post-run manager state."""
    source = mgr.source
    fc = source.fc
    storage = source.storage
    controller = mgr.controller
    policy = mgr.policy
    state = {
        "charge": storage.charge,
        "bled": storage.bled_charge,
        "deficit": storage.deficit_charge,
        "i_f": fc._i_f,
        "consumed": fc.tank.consumed,
        "total_fuel": source.total_fuel,
        "total_load": source.total_load_charge,
        "total_time": source.total_time,
        "total_delivered": source.total_delivered_charge,
        "controller": type(controller).__name__,
    }
    if hasattr(controller, "_recharging"):
        state["recharging"] = controller._recharging
    if type(controller).__name__ == "FCDPMController":
        idle_pred = controller.idle_length_predictor
        active_pred = controller.active_length_predictor
        state.update(
            n_solutions=len(controller.solutions),
            if_idle=controller._if_idle,
            if_active=controller._if_active,
            active_planned=controller._active_planned,
            active_sum=controller._active_current_sum,
            active_n=controller._active_current_n,
            guards=controller.n_guard_activations,
            idle_estimate=idle_pred._estimate,
            active_estimate=active_pred._estimate,
            idle_observed=idle_pred._n_observed,
            active_observed=active_pred._n_observed,
            idle_error=idle_pred._error_sum,
            active_error=active_pred._error_sum,
        )
    predictor = getattr(policy, "predictor", None)
    if predictor is not None:
        state.update(
            decisions=policy.n_decisions,
            sleep_decisions=policy.n_sleep_decisions,
            last_prediction=policy.last_prediction,
            last_slept=policy._last_slept,
            estimate=predictor._estimate,
            error_sum=predictor._error_sum,
            abs_error_sum=predictor._abs_error_sum,
            observed=predictor._n_observed,
        )
    return state


def _fast_loop(scenario, seeds, policies, traces=None):
    """Per-seed ``simulate_fast`` on fresh managers: the batch reference."""
    traces = traces or {}
    out = {}
    for seed in seeds:
        trace = traces.get(seed) or scenario.build_trace(seed)
        out[seed] = {
            spec: simulate_fast(_policy_manager(scenario, spec), trace)
            for spec in policies
        }
    return out


def _first_raise(scenario, seeds, policies, run):
    """The first raise of ``run(manager, trace)`` in batch order.

    Runs every (seed, spec) on a fresh manager until one raises and
    returns ``((type, message), manager)``, or ``(None, None)``.
    """
    for seed in seeds:
        trace = scenario.build_trace(seed)
        for spec in policies:
            mgr = _policy_manager(scenario, spec)
            try:
                run(mgr, trace)
            except SimulationError as exc:
                return (type(exc), str(exc)), mgr
    return None, None


def _batch_error(run, scenario, seeds, policies, **kwargs):
    """The ``(type, message)`` ``run`` raises on a batch, or None."""
    try:
        run(scenario, seeds, policies, **kwargs)
    except SimulationError as exc:
        return type(exc), str(exc)
    return None


def _assert_batches_equal(a, b):
    assert a.keys() == b.keys()
    for seed in a:
        assert list(a[seed]) == list(b[seed])
        for name in a[seed]:
            ra, rb = a[seed][name], b[seed][name]
            assert dataclasses.asdict(ra) == dataclasses.asdict(rb), (seed, name)


class TestStackedEquivalence:
    @pytest.mark.parametrize(
        "policies",
        [POLICIES, ["fc-dpm", "conv-dpm"], ["asap-dpm"], ["static:0.8"]],
    )
    def test_stacked_matches_loop_every_field(self, policies):
        sc = get_scenario("exp2-conv-dpm")
        seeds = list(range(6))
        a = simulate_batch(sc, seeds, policies)
        b = _fast_loop(sc, seeds, policies)
        _assert_batches_equal(a, b)

    def test_stacked_matches_scalar(self):
        sc = get_scenario("exp2-conv-dpm")
        seeds = [0, 1, 2]
        a = simulate_batch(sc, seeds, POLICIES)
        b = scalar_batch(sc, seeds, POLICIES)
        _assert_batches_equal(a, b)

    def test_stacked_single_seed_matches_loop(self):
        # A stacked row equals the same seed run alone, which takes the
        # per-seed route.
        stacked = simulate_batch("exp2-conv-dpm", [6, 7], POLICIES)
        alone = simulate_batch("exp2-conv-dpm", [7], POLICIES)
        _assert_batches_equal({7: stacked[7]}, alone)
        _assert_batches_equal(
            alone, _fast_loop(get_scenario("exp2-conv-dpm"), [7], POLICIES)
        )

    def test_prebuilt_and_partial_traces_match_loop(self, monkeypatch):
        sc = get_scenario("exp2-conv-dpm")
        seeds = [3, 4, 5, 6]
        traces = {s: sc.build_trace(s + 100) for s in seeds[:2]}  # partial
        traces[5] = EMPTY_GUARD_TRACE
        a = simulate_batch(sc, seeds, POLICIES, traces=traces)
        b = _fast_loop(sc, seeds, POLICIES, traces=traces)
        _assert_batches_equal(a, b)
        c = scalar_batch(sc, seeds, POLICIES, traces=traces)
        _assert_batches_equal(a, c)

        # The oracle's FC-DPM run of EMPTY_GUARD_TRACE does take the
        # empty-storage branch, so the equalities above cover its kernel
        # copies.
        empty_hits = []
        output = FCDPMController.output

        def counting(controller, ctx):
            if (
                ctx.phase == "idle"
                and ctx.storage_charge <= 0.001 * ctx.storage_capacity
                and controller._if_idle < ctx.i_load
            ):
                empty_hits.append(ctx.kind)
            return output(controller, ctx)

        monkeypatch.setattr(FCDPMController, "output", counting)
        mgr = _policy_manager(sc, "fc-dpm")
        SlotSimulator(mgr).run(EMPTY_GUARD_TRACE)
        assert empty_hits
        assert mgr.controller.n_guard_activations == len(empty_hits)

    def test_obs_enabled_route_stays_exact(self):
        sc = get_scenario("exp2-conv-dpm")
        seeds = [0, 1, 2]
        with observing():
            a = simulate_batch(sc, seeds, POLICIES)
            b = scalar_batch(sc, seeds, POLICIES)
        _assert_batches_equal(a, b)


def _perturbed(view: SlotColumns, column: int, row: int) -> SlotColumns:
    """``view`` with one value of one column changed (a fresh array)."""
    columns = list(view._columns)
    changed = columns[column].copy()
    i = view._lo + row
    if changed.dtype == bool:
        changed[i] = not changed[i]
    else:
        changed[i] = np.nextafter(changed[i], np.inf)
    columns[column] = changed
    return SlotColumns(tuple(columns), view._lo, view._hi)


class TestSlotColumns:
    """The stacked route's lazy per-slot views against the scalar lists."""

    def test_views_equal_oracle_in_both_orders(self):
        sc = get_scenario("exp2-conv-dpm")
        seeds = [0, 1, 2]
        a = simulate_batch(sc, seeds, POLICIES)
        b = scalar_batch(sc, seeds, POLICIES)
        for seed in seeds:
            for name in POLICIES:
                ra, rb = a[seed][name], b[seed][name]
                assert isinstance(ra.slots, SlotColumns)
                assert isinstance(rb.slots, list)
                assert ra.slots == rb.slots and rb.slots == ra.slots
                assert not (ra.slots != rb.slots or rb.slots != ra.slots)
                assert ra == rb and rb == ra

    def test_any_single_change_breaks_equality(self):
        sc = get_scenario("exp2-conv-dpm")
        seeds = [4, 5]
        a = simulate_batch(sc, seeds, ["asap-dpm", "fc-dpm"])
        b = scalar_batch(sc, seeds, ["asap-dpm", "fc-dpm"])
        view = a[5]["fc-dpm"].slots
        rows = b[5]["fc-dpm"].slots
        n_columns = len(SlotResult._fields) - 1
        assert len(view._columns) == n_columns
        for column in range(n_columns):
            for row in (0, len(view) // 2, len(view) - 1):
                changed = _perturbed(view, column, row)
                assert changed != view and view != changed, (column, row)
                assert changed != rows and rows != changed, (column, row)
        assert view == rows

    def test_length_and_shape_mismatch_is_unequal(self):
        view = simulate_batch("exp2-conv-dpm", [0, 1], ["conv-dpm"])[0]["conv-dpm"].slots
        rows = list(view)
        assert view != rows[:-1] and rows[:-1] != view
        assert view != SlotColumns(view._columns, view._lo, view._hi - 1)
        assert view != tuple(rows)
        assert view != "not slots"

    def test_materialized_fields_are_python_natives(self):
        out = simulate_batch("exp2-conv-dpm", [0, 1], POLICIES)
        for result in out[1].values():
            for slot in result.slots:
                assert type(slot) is SlotResult
                assert type(slot.index) is int
                assert type(slot.slept) is bool
                assert type(slot.aborted_sleep) is bool
                for name in SlotResult._fields[3:]:
                    assert type(getattr(slot, name)) is float, name

    def test_indexing_iteration_and_lazy_len(self):
        sc = get_scenario("exp2-conv-dpm")
        view = simulate_batch(sc, [2, 3], ["fc-dpm"])[3]["fc-dpm"].slots
        rows = scalar_batch(sc, [3], ["fc-dpm"])[3]["fc-dpm"].slots
        assert len(view) == len(rows)
        assert view._rows is None  # len alone built nothing
        assert view[-1] == rows[-1] and view[-len(rows)] == rows[0]
        assert view[0].index == 0 and view[-1].index == len(rows) - 1
        assert view[1:4] == rows[1:4]
        assert list(view) == rows
        assert list(reversed(view)) == rows[::-1]
        with pytest.raises(IndexError):
            view[len(rows)]

    def test_pickle_round_trip_and_size(self):
        sc = get_scenario("exp2-conv-dpm")
        seeds = list(range(1000, 2000))
        wide = simulate_batch(sc, seeds, ["conv-dpm"])[1500]["conv-dpm"]
        alone = simulate_batch(sc, [1500], ["conv-dpm"])[1500]["conv-dpm"]
        assert wide == alone
        for result in (wide, alone):
            restored = pickle.loads(pickle.dumps(result))
            assert restored == result and result == restored
            assert restored.slots == scalar_batch(sc, [1500], ["conv-dpm"])[1500][
                "conv-dpm"
            ].slots
        # A view ships its own rows, not the 1000-row batch it came from.
        assert len(pickle.dumps(wide)) <= 2 * len(pickle.dumps(alone))


class TestStackedDeficitRaise:
    def _mid_batch_setup(self):
        """Seeds ordered so static:0.4 trips the guard mid-batch."""
        sc = get_scenario("exp2-conv-dpm")
        ratios = {}
        for seed in range(6):
            res = simulate_batch(
                sc, [seed], ["static:0.4"], max_deficit_fraction=1.0
            )[seed]["static:0.4"]
            ratios[seed] = res.deficit / res.load_charge
        order = sorted(ratios, key=ratios.get)
        threshold = (ratios[order[0]] + ratios[order[-1]]) / 2
        return sc, order, threshold

    @pytest.mark.parametrize(
        "policies",
        [
            ["conv-dpm", "static:0.4", "asap-dpm", "fc-dpm"],
            ["static:0.4", "conv-dpm"],
            ["fc-dpm", "static:0.4"],
        ],
    )
    def test_raise_and_committed_state_match_loop(self, policies):
        sc, order, threshold = self._mid_batch_setup()
        stacked = _batch_error(
            simulate_batch, sc, order, policies, max_deficit_fraction=threshold
        )
        scalar = _batch_error(
            scalar_batch, sc, order, policies, max_deficit_fraction=threshold
        )
        loop, loop_mgr = _first_raise(
            sc, order, policies,
            lambda m, t: simulate_fast(m, t, max_deficit_fraction=threshold),
        )
        oracle, oracle_mgr = _first_raise(
            sc, order, policies,
            lambda m, t: SlotSimulator(m, max_deficit_fraction=threshold).run(t),
        )
        assert stacked is not None
        assert stacked == scalar == loop == oracle  # type + message
        # simulate_fast commits the caller's manager before the guard
        # raises, exactly as the scalar simulator leaves it.
        assert _manager_state(loop_mgr) == _manager_state(oracle_mgr)


class TestBatchRouting:
    def test_duplicate_seeds_raise(self):
        with pytest.raises(ConfigurationError, match="duplicate seeds"):
            simulate_batch("exp2-conv-dpm", [0, 1, 0], ["conv-dpm"])

    def test_duplicate_seeds_raise_after_int_coercion(self):
        # 1 and np.int64(1) are the same key: must still be rejected.
        with pytest.raises(ConfigurationError, match="duplicate seeds"):
            simulate_batch(
                "exp2-conv-dpm", [1, np.int64(1)], ["conv-dpm"]
            )

    def test_auto_mode_falls_back_to_loop(self):
        seeds = [0, 1]
        with observing() as obs:
            auto = simulate_batch("exp1-battery", seeds)
            snapshot = obs.metrics.snapshot()
        scalar = scalar_batch("exp1-battery", seeds, None)
        _assert_batches_equal(auto, scalar)
        assert snapshot["sim.batch_route{path=loop}"]["value"] == 1
        assert snapshot["sim.batch_fallback_rows"]["value"] == len(seeds)
        assert any(k.startswith("sim.batch_ineligible") for k in snapshot)

    def test_single_seed_auto_skips_stacked(self, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - fails the test
            raise AssertionError("stacked route taken for a single seed")

        monkeypatch.setattr(stacked_mod, "simulate_batch_stacked", boom)
        simulate_batch("exp2-conv-dpm", [0], ["conv-dpm"])

    def test_stacked_route_telemetry(self):
        seeds = [0, 1, 2]
        policies = ["conv-dpm", "asap-dpm"]
        with observing() as obs:
            simulate_batch("exp2-conv-dpm", seeds, policies)
            spans = obs.tracer.export()
            snapshot = obs.metrics.snapshot()
        (span,) = [s for s in spans if s["name"] == "sim.batch"]
        attrs = span["attrs"]
        assert attrs["route"] == "stacked"
        assert attrs["rows"] == len(seeds)
        assert attrs["fallback_rows"] == 0
        assert 0.0 <= attrs["padded_fraction"] < 1.0
        assert attrs["plan_stack_seconds"] > 0.0
        assert snapshot["sim.batch_route{path=stacked}"]["value"] == 1
        assert snapshot["sim.route{path=fast}"]["value"] == len(seeds) * len(
            policies
        )
        assert "sim.batch_plan_stack_s" in snapshot

    def test_stacked_route_stage_timings(self):
        with observing() as obs:
            simulate_batch("exp2-conv-dpm", [0, 1, 2], POLICIES)
            spans = obs.tracer.export()
            snapshot = obs.metrics.snapshot()
        (span,) = [s for s in spans if s["name"] == "sim.batch"]
        attrs = span["attrs"]
        stages = [
            attrs["plan_stack_seconds"],
            attrs["passes_seconds"],
            attrs["assemble_seconds"],
        ]
        assert all(t >= 0.0 for t in stages)
        assert sum(stages) <= span["duration"]
        for name in ("plan_stack", "passes", "assemble"):
            assert snapshot[f"sim.batch_{name}_s"]["count"] == 1

    def test_stacked_eligibility_reasons(self):
        mgr = _policy_manager(get_scenario("exp2-conv-dpm"), "conv-dpm")
        assert stacked_batch_ineligibility(mgr) is None
        from repro.fuelcell import FuelTank, GibbsFuelModel

        finite = _policy_manager(get_scenario("exp2-conv-dpm"), "conv-dpm")
        finite.source.fc.tank = FuelTank(capacity=50.0, model=GibbsFuelModel())
        reason = stacked_batch_ineligibility(finite)
        assert reason is not None and "finite fuel tank" in reason
        assert reason.label == "finite-tank"  # inherited from the 1D rules
        from repro.prediction import LastValuePredictor

        unscanned = _policy_manager(get_scenario("exp2-conv-dpm"), "conv-dpm")
        unscanned.policy.predictor = LastValuePredictor()
        reason = stacked_batch_ineligibility(unscanned)
        assert reason is not None and reason.label == "stacked-policy"


class TestStackedTransport:
    def test_stack_plans_round_trip(self):
        # Plan the concatenated slots of several seeds as one flat plan
        # (each seed's decisions from its own fresh policy replay), then
        # carve it: the padded 2D columns must hold each row's segments
        # verbatim, zero past the row's end.
        sc = get_scenario("exp2-conv-dpm")
        mgr = _policy_manager(sc, "conv-dpm")
        initial = mgr.source.storage.charge
        plans, slots, decisions = [], [], []
        for seed in [0, 1, 2, 3]:
            mgr.reset(initial)
            trace = sc.build_trace(seed)
            row = replay_policy(mgr.policy, trace)
            plans.append(plan_trace_arrays(mgr.device, trace, row))
            slots.extend(trace)
            decisions.extend(row)
        flat = plan_trace_arrays(mgr.device, LoadTrace(slots), decisions)
        counts = np.array([p.n_slots for p in plans], dtype=np.intp)
        sp = _stack_from_flat(flat, counts)
        assert sp.n_rows == len(plans)
        np.testing.assert_array_equal(
            sp.n_seg, [p.n_segments for p in plans]
        )
        for r, plan in enumerate(plans):
            n = plan.n_segments
            np.testing.assert_array_equal(sp.duration[r, :n], plan.duration)
            np.testing.assert_array_equal(sp.i_load[r, :n], plan.i_load)
            assert not sp.duration[r, n:].any()
            assert sp.valid_seg[r].sum() == n

    def test_parallel_workers_match_serial(self):
        sc = get_scenario("exp2-conv-dpm")
        seeds = list(range(6))
        serial = simulate_batch(sc, seeds, POLICIES)
        parallel = simulate_batch(sc, seeds, POLICIES, workers=2)
        _assert_batches_equal(parallel, serial)


class TestFleetSmoke:
    def test_registered_scenario(self):
        sc = get_scenario("fleet_smoke")
        assert sc.workload.kind == "fleet"
        assert sc.workload.jitter == 0.25
        assert sc.policy.kind == "conv-dpm"

    def test_fleet_is_heterogeneous(self):
        sc = get_scenario("fleet_smoke")
        seeds = list(range(16))
        results = simulate_batch(sc, seeds)
        loads = [results[s]["conv-dpm"].load_charge for s in seeds]
        assert np.std(loads) > 0.01 * np.mean(loads)

    def test_golden_aggregates_over_256_devices(self):
        sc = get_scenario("fleet_smoke")
        seeds = list(range(256))
        policies = ["conv-dpm", "asap-dpm", "static:0.8"]
        with observing() as obs:
            results = simulate_batch(sc, seeds, policies)
            snapshot = obs.metrics.snapshot()
        # The whole fleet must ride the stacked kernel, no fallbacks.
        assert snapshot["sim.batch_route{path=stacked}"]["value"] == 1
        fuel = {
            p: sum(results[s][p].fuel for s in seeds) for p in policies
        }
        assert fuel["conv-dpm"] == pytest.approx(671918.5535921464, rel=1e-12)
        assert fuel["asap-dpm"] == pytest.approx(315488.43087669404, rel=1e-12)
        assert fuel["static:0.8"] == pytest.approx(380624.3829597134, rel=1e-12)
        deficits = np.array([results[s]["static:0.8"].deficit for s in seeds])
        assert int((deficits > 0).sum()) == 63
        assert deficits.sum() == pytest.approx(164.12614309227126, rel=1e-12)
        assert deficits.max() == pytest.approx(10.624909700649187, rel=1e-12)
        assert np.all(
            np.array([results[s]["conv-dpm"].deficit for s in seeds]) == 0.0
        )
