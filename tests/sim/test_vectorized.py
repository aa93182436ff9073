"""Vectorized kernel tests: scalar equivalence, routing, batch API.

The contract under test is absolute: for every eligible configuration
``simulate_fast`` returns a result ``==`` (every field, no tolerances)
to ``SlotSimulator.run`` and leaves the manager in the same end state;
everything else must *route* to the scalar simulator, never silently
diverge.
"""

import pickle
import re

import numpy as np
import pytest

from repro.core.baselines import ConvDPMController, StaticController
from repro.core.manager import PowerManager
from repro.core.oracle_controller import OracleFCDPMController
from repro.core.receding import RecedingHorizonController
from repro.devices.camcorder import camcorder_device_params
from repro.errors import ConfigurationError, DepletedError, SimulationError
from repro.fuelcell.fuel import FuelTank, GibbsFuelModel
from repro.scenario import get_scenario, scenario_names
from repro.sim.slotsim import SimulationResult, SlotColumns, SlotResult, SlotSimulator
from repro.obs import observing
from repro.sim.vectorized import (
    fast_path_ineligibility,
    simulate_batch,
    simulate_fast,
)
from repro.workload.mpeg import generate_mpeg_trace
from tests.oracle import scalar_batch


def _source_state(mgr):
    """The result-relevant end state of a manager's power source."""
    src = mgr.source
    state = {
        "total_fuel": src.total_fuel,
        "total_time": src.total_time,
        "total_load_charge": src.total_load_charge,
        "total_delivered_charge": src.total_delivered_charge,
        "storage_charge": src.storage.charge,
        "bled": src.storage.bled_charge,
        "deficit": src.storage.deficit_charge,
    }
    if hasattr(src, "fc"):
        state["tank_consumed"] = src.fc.tank.consumed
    return state


def _run_both(name: str, seed: int):
    """(scalar outcome, ``simulate_fast`` outcome) for one registry scenario.

    Each outcome is either ``("ok", result, end_state)`` or
    ``("err", type, message)`` -- raising configurations must raise
    identically on both paths.
    """
    sc = get_scenario(name)
    outcomes = []
    for run in (lambda m, t: SlotSimulator(m).run(t), simulate_fast):
        mgr = sc.build_manager()
        trace = sc.build_trace(seed)
        try:
            result = run(mgr, trace)
        except SimulationError as exc:
            outcomes.append(("err", type(exc), str(exc)))
        else:
            outcomes.append(("ok", result, _source_state(mgr)))
    return outcomes


class TestRegistryEquivalence:
    @pytest.mark.parametrize("name", scenario_names())
    @pytest.mark.parametrize("seed", [0, 2007])
    def test_every_scenario_matches_scalar(self, name, seed):
        scalar, kernel = _run_both(name, seed)
        assert kernel == scalar

    def test_static_controller_takes_fast_path(self):
        dev = camcorder_device_params()
        trace = generate_mpeg_trace(seed=11)

        def build():
            mgr = PowerManager.conv_dpm(
                dev, storage_capacity=6.0, storage_initial=3.0
            )
            mgr.controller = StaticController(mgr.controller.model, 0.6)
            return mgr

        assert fast_path_ineligibility(build()) is None
        m_fast, m_scalar = build(), build()
        assert simulate_fast(m_fast, trace) == SlotSimulator(m_scalar).run(trace)
        assert _source_state(m_fast) == _source_state(m_scalar)


class TestRouting:
    def test_conv_dpm_is_eligible(self):
        mgr = get_scenario("exp1-conv-dpm").build_manager()
        assert fast_path_ineligibility(mgr) is None

    def test_fc_dpm_is_eligible(self):
        # Scan-compiled since kernel round 2: the paper's FC-DPM wiring
        # (exponential predictors, shared idle predictor) runs natively.
        mgr = get_scenario("exp1-fc-dpm").build_manager()
        assert fast_path_ineligibility(mgr) is None

    def test_fc_dpm_custom_predictor_routes_to_scalar(self):
        from repro.prediction import LastValuePredictor

        mgr = get_scenario("exp1-fc-dpm").build_manager()
        mgr.controller.active_length_predictor = LastValuePredictor()
        reason = fast_path_ineligibility(mgr)
        assert reason is not None and "controller predictors" in reason

    def test_fc_dpm_double_fed_predictor_routes_to_scalar(self):
        # Sharing the idle predictor while the controller also observes
        # it feeds two observations per slot -- no scan form.
        mgr = get_scenario("exp1-fc-dpm").build_manager()
        ctrl = mgr.controller
        if getattr(mgr.policy, "predictor", None) is not ctrl.idle_length_predictor:
            mgr.policy.predictor = ctrl.idle_length_predictor
        ctrl.observes_idle = True
        reason = fast_path_ineligibility(mgr)
        assert reason is not None and "controller/policy coupling" in reason

    def test_record_routes_to_scalar(self):
        mgr = get_scenario("exp1-conv-dpm").build_manager()
        reason = fast_path_ineligibility(mgr, record=True)
        assert reason is not None and "record" in reason.lower()

    def test_record_history_routes_to_scalar(self):
        mgr = get_scenario("exp1-conv-dpm").build_manager()
        mgr.source.record_history = True
        reason = fast_path_ineligibility(mgr)
        assert reason is not None and "record_history" in reason

    @pytest.mark.parametrize("name", ["exp1-battery", "exp1-fc-dpm-multistack"])
    def test_non_reference_sources_route_to_scalar(self, name):
        mgr = get_scenario(name).build_manager()
        reason = fast_path_ineligibility(mgr)
        assert reason is not None and "no array kernel" in reason

    def test_adaptive_fallback_is_exact(self):
        # The fallback is the scalar simulator itself, so equality is
        # trivially guaranteed -- this pins the routing, not the math.
        sc = get_scenario("exp1-fc-dpm")
        m1, m2 = sc.build_manager(), sc.build_manager()
        trace = sc.build_trace(5)
        assert simulate_fast(m1, trace) == SlotSimulator(m2).run(trace)
        assert _source_state(m1) == _source_state(m2)

    def test_record_fallback_is_exact(self):
        from dataclasses import replace

        sc = get_scenario("exp1-asap-dpm")
        m1, m2 = sc.build_manager(), sc.build_manager()
        trace = sc.build_trace(5)
        r_fast = simulate_fast(m1, trace, record=True)
        r_scalar = SlotSimulator(m2, record=True).run(trace)
        # Recorder has identity equality; compare its capture separately.
        assert replace(r_fast, recorder=None) == replace(r_scalar, recorder=None)
        assert r_fast.recorder is not None
        assert r_fast.recorder.samples == r_scalar.recorder.samples


class _RelabelledConv(ConvDPMController):
    """Conv-DPM with nothing overridden: still not an exact table type."""


def _conv_subclass(dev, trace):
    mgr = PowerManager.conv_dpm(dev, storage_capacity=6.0, storage_initial=3.0)
    mgr.controller = _RelabelledConv(mgr.controller.model)
    return mgr


def _oracle_fc_dpm(dev, trace):
    mgr = PowerManager.fc_dpm(dev, storage_capacity=6.0, storage_initial=3.0)
    mgr.controller = OracleFCDPMController(mgr.controller.model, trace, device=dev)
    return mgr


def _receding_horizon(dev, trace):
    mgr = PowerManager.fc_dpm(dev, storage_capacity=6.0, storage_initial=3.0)
    mgr.controller = RecedingHorizonController(mgr.controller.model, horizon=2)
    return mgr


class TestKernelControllerTable:
    """Only the exact controller types with a kernel pass take the kernel."""

    @pytest.mark.parametrize(
        "build",
        [_conv_subclass, _oracle_fc_dpm, _receding_horizon],
        ids=["conv-subclass", "oracle-fc-dpm", "receding-horizon"],
    )
    def test_other_controller_types_route_scalar_exactly(self, build):
        dev = camcorder_device_params()
        trace = generate_mpeg_trace(duration_s=300.0, seed=11)
        m_fast, m_scalar = build(dev, trace), build(dev, trace)
        reason = fast_path_ineligibility(m_fast)
        assert reason is not None
        assert reason.label == "controller-adaptive"
        assert simulate_fast(m_fast, trace) == SlotSimulator(m_scalar).run(trace)
        assert _source_state(m_fast) == _source_state(m_scalar)


NAN = float("nan")


class TestRunLimits:
    """Guard parameters are validated at every entry point, NaN included."""

    def test_slot_simulator_rejects_nan_deficit_fraction(self, managers):
        with pytest.raises(SimulationError, match="max_deficit_fraction"):
            SlotSimulator(managers[0], max_deficit_fraction=NAN)

    def test_simulate_fast_rejects_nan_deficit_fraction(self, managers, small_trace):
        with pytest.raises(SimulationError, match="max_deficit_fraction"):
            simulate_fast(managers[0], small_trace, max_deficit_fraction=NAN)

    @pytest.mark.parametrize("mdf", [NAN, -0.1], ids=["nan", "negative"])
    @pytest.mark.parametrize("seeds", [[1], [1, 2]], ids=["width-1", "width-2"])
    def test_simulate_batch_rejects_bad_deficit_fraction(self, seeds, mdf):
        # Width 1 takes the per-seed loop and width 2 the stacked route;
        # both must refuse the guard before routing, not report a
        # misleading deficit (negative) or run unguarded (NaN).
        with pytest.raises(SimulationError, match="max_deficit_fraction"):
            simulate_batch("exp1-conv-dpm", seeds, max_deficit_fraction=mdf)

    def test_simulate_batch_checks_before_the_parallel_route(self, forced_pool):
        with pytest.raises(SimulationError, match="max_deficit_fraction"):
            simulate_batch(
                "exp1-conv-dpm", [1, 2], max_deficit_fraction=NAN, workers=2
            )
        assert forced_pool == []


def _fast_and_scalar(name: str, seed: int):
    """``(simulate_fast result, SlotSimulator result)`` on fresh managers."""
    sc = get_scenario(name)
    trace = sc.build_trace(seed)
    return (
        simulate_fast(sc.build_manager(), trace),
        SlotSimulator(sc.build_manager()).run(trace),
    )


class TestSlotColumns:
    """The 1D kernel's lazy per-slot view against the scalar list."""

    @pytest.mark.parametrize(
        "name", ["exp1-conv-dpm", "exp1-asap-dpm", "exp1-fc-dpm", "exp2-conv-dpm"]
    )
    def test_view_equals_scalar_in_both_orders(self, name):
        fast, scalar = _fast_and_scalar(name, 3)
        assert isinstance(fast.slots, SlotColumns)
        assert isinstance(scalar.slots, list)
        assert fast.slots == scalar.slots and scalar.slots == fast.slots
        assert fast == scalar and scalar == fast

    def test_width_one_batch_is_a_view_equal_to_oracle(self):
        (batch,) = simulate_batch("exp2-conv-dpm", [9], ["fc-dpm"])[9].values()
        (oracle,) = scalar_batch("exp2-conv-dpm", [9], ["fc-dpm"])[9].values()
        assert isinstance(batch.slots, SlotColumns)
        assert batch == oracle and oracle == batch

    def test_any_single_change_breaks_equality(self):
        fast, scalar = _fast_and_scalar("exp1-fc-dpm", 1)
        view = fast.slots
        for column, values in enumerate(view._columns):
            for row in (0, len(view) - 1):
                changed = list(view._columns)
                changed[column] = values.copy()
                if values.dtype == bool:
                    changed[column][row] = not values[row]
                else:
                    changed[column][row] = np.nextafter(values[row], -np.inf)
                other = SlotColumns(tuple(changed), 0, len(view))
                assert other != view and view != other, (column, row)
                assert other != scalar.slots and scalar.slots != other

    def test_materialized_rows_are_python_natives(self):
        fast, scalar = _fast_and_scalar("exp1-asap-dpm", 2)
        assert fast.slots._rows is None and len(fast.slots) == scalar.n_slots
        assert fast.slots._rows is None
        last = fast.slots[-1]
        assert last == scalar.slots[-1] and last.index == scalar.n_slots - 1
        assert [type(v) for v in last] == [int, bool, bool] + [float] * 5
        assert type(last) is SlotResult
        assert [s.storage_end for s in fast.slots] == [
            s.storage_end for s in scalar.slots
        ]

    def test_pickle_round_trip(self):
        fast, scalar = _fast_and_scalar("exp1-fc-dpm", 4)
        restored = pickle.loads(pickle.dumps(fast))
        assert isinstance(restored.slots, SlotColumns)
        assert restored == fast and restored == scalar and scalar == restored


class TestSolverCacheParity:
    def test_fc_fast_path_shares_memo_entries(self):
        # The scan-compiled pass must pose byte-identical SlotProblems:
        # a sweep mixing fast and scalar fc runs then shares one memo
        # population instead of solving everything twice.
        from repro.runtime import memo

        sc = get_scenario("exp1-fc-dpm")
        trace = sc.build_trace(0)
        try:
            memo.clear_solver_cache()
            SlotSimulator(sc.build_manager()).run(trace)
            scalar_keys = set(memo._CACHE)
            memo.clear_solver_cache()
            simulate_fast(sc.build_manager(), trace)
            fast_keys = set(memo._CACHE)
            assert fast_keys == scalar_keys
            assert scalar_keys  # non-vacuous: fc-dpm solves every slot
        finally:
            memo.clear_solver_cache()


def _static_manager():
    mgr = get_scenario("exp1-conv-dpm").build_manager()
    mgr.controller = StaticController(mgr.controller.model, 0.6)
    return mgr


class TestErrorParity:
    @pytest.mark.parametrize(
        "build",
        [
            get_scenario("exp1-conv-dpm").build_manager,
            _static_manager,
            get_scenario("exp1-asap-dpm").build_manager,
            get_scenario("exp1-fc-dpm").build_manager,
        ],
        ids=["conv-dpm", "static", "asap-dpm", "fc-dpm"],
    )
    def test_depleted_tank_matches_scalar(self, build):
        # A finite tank routes scalar before any pass runs, so a tank
        # too small for the run raises the oracle's DepletedError.
        def finite():
            mgr = build()
            mgr.source.fc.tank = FuelTank(capacity=50.0, model=GibbsFuelModel())
            return mgr

        trace = get_scenario("exp1-conv-dpm").build_trace(0)
        with pytest.raises(DepletedError) as scalar_exc:
            SlotSimulator(finite()).run(trace)
        with observing() as obs:
            with pytest.raises(DepletedError) as fast_exc:
                simulate_fast(finite(), trace)
            snapshot = obs.metrics.snapshot()
        assert str(fast_exc.value) == str(scalar_exc.value)
        assert snapshot["sim.fast_ineligible{reason=finite-tank}"]["value"] == 1
        assert "sim.route{path=fast}" not in snapshot

    def test_deficit_guard_matches_scalar(self):
        # static:0.4 undersupplies the Exp-1 load enough to trip the
        # 5% deficit guard; both paths must report it identically.
        excs = []
        for run in (scalar_batch, simulate_batch):
            with pytest.raises(SimulationError) as exc:
                run("exp1-conv-dpm", [0], ["static:0.4"])
            excs.append((type(exc.value), str(exc.value)))
        assert excs[0] == excs[1]


@pytest.fixture
def forced_pool(monkeypatch):
    """Force a real two-process batch on any host; check shm hygiene.

    Both the dispatch decision and ParallelMap's pool sizing cap at the
    usable core count, so lift the cap: the requested count is used as
    is (``workers=1`` stays in-process, as do the shard batches the
    pool workers run).  Yields the worker counts passed to the parallel
    route, and afterwards asserts that no batch segment outlives the
    test in ``/dev/shm``.
    """
    import glob

    from repro.runtime import parallel as parallel_mod
    from repro.runtime.shm import SHM_PREFIX
    from repro.sim import vectorized as vectorized_mod

    monkeypatch.setattr(parallel_mod, "resolve_workers", lambda w: w)
    monkeypatch.setattr(vectorized_mod, "resolve_workers", lambda w: w)
    calls = []
    original = vectorized_mod._simulate_batch_parallel

    def counting(*args, **kwargs):
        calls.append(kwargs["workers"])
        return original(*args, **kwargs)

    monkeypatch.setattr(vectorized_mod, "_simulate_batch_parallel", counting)
    before = set(glob.glob(f"/dev/shm/{SHM_PREFIX}*"))
    yield calls
    assert set(glob.glob(f"/dev/shm/{SHM_PREFIX}*")) == before


class TestBatch:
    def test_fast_equals_scalar_including_adaptive(self):
        sc = get_scenario("exp1-conv-dpm")
        seeds = [0, 1, 2]
        policies = ["conv-dpm", "asap-dpm", "fc-dpm", "static:0.8"]
        scalar = scalar_batch(sc, seeds, policies)
        batch = simulate_batch(sc, seeds, policies)
        assert batch == scalar
        assert sorted(batch) == seeds
        for seed in seeds:
            assert list(batch[seed]) == policies
            for result in batch[seed].values():
                assert isinstance(result, SimulationResult)

    def test_parallel_workers_match_serial_and_leak_nothing(self, forced_pool):
        sc = get_scenario("exp1-conv-dpm")
        seeds = [0, 1, 2, 3]
        policies = ["conv-dpm", "asap-dpm", "fc-dpm", "static:0.8"]
        serial = simulate_batch(sc, seeds, policies, workers=1)
        parallel = simulate_batch(sc, seeds, policies, workers=2)
        assert forced_pool == [2]
        assert parallel == serial

    @pytest.mark.parametrize(
        "name, policies, partial_traces",
        [
            # Not stacked-eligible: every shard takes the per-seed loop.
            ("exp1-battery", None, False),
            # Caller traces for some seeds, synthesis for the rest: the
            # coordinator gathers both into the shipped slot columns.
            ("exp2-conv-dpm", ["conv-dpm", "fc-dpm"], True),
        ],
        ids=["ineligible-spec", "partial-traces"],
    )
    def test_parallel_route_matches_serial(
        self, forced_pool, name, policies, partial_traces
    ):
        sc = get_scenario(name)
        seeds = [3, 4, 5, 6, 7]
        traces = None
        if partial_traces:
            traces = {s: sc.build_trace(s + 100) for s in seeds[1:3]}
        serial = simulate_batch(sc, seeds, policies, traces=traces, workers=1)
        parallel = simulate_batch(sc, seeds, policies, traces=traces, workers=2)
        assert forced_pool == [2]
        assert parallel == serial == scalar_batch(sc, seeds, policies, traces=traces)

    def test_parallel_deficit_raise_matches_serial(self, forced_pool):
        # Order seeds by static:0.4's deficit ratio and set the guard
        # between the extremes: early rows pass, a later row raises.
        # The message names that row's deficit, so it pins which row
        # and spec raised first.
        sc = get_scenario("exp2-conv-dpm")
        ratios = {}
        for seed in range(6):
            res = simulate_batch(
                sc, [seed], ["static:0.4"], max_deficit_fraction=1.0
            )[seed]["static:0.4"]
            ratios[seed] = res.deficit / res.load_charge
        order = sorted(ratios, key=ratios.get)
        threshold = (ratios[order[0]] + ratios[order[-1]]) / 2
        policies = ["conv-dpm", "static:0.4"]
        excs = []
        for workers in (1, 2):
            with pytest.raises(SimulationError) as exc:
                simulate_batch(
                    sc, order, policies,
                    max_deficit_fraction=threshold, workers=workers,
                )
            excs.append((type(exc.value), str(exc.value)))
        assert forced_pool == [2]
        assert excs[0] == excs[1]

    def test_accepts_scenario_name_string(self):
        by_name = simulate_batch("exp1-conv-dpm", [7])
        by_obj = simulate_batch(get_scenario("exp1-conv-dpm"), [7])
        assert by_name == by_obj
        assert list(by_name[7]) == ["conv-dpm"]

    def test_prebuilt_traces_are_used(self):
        sc = get_scenario("exp1-conv-dpm")
        traces = {3: sc.build_trace(3)}
        assert simulate_batch(sc, [3], traces=traces) == simulate_batch(sc, [3])

    def test_rejects_empty_seeds(self):
        with pytest.raises(ConfigurationError, match="at least one seed"):
            simulate_batch("exp1-conv-dpm", [])

    def test_rejects_empty_policies(self):
        with pytest.raises(ConfigurationError, match="at least one policy"):
            simulate_batch("exp1-conv-dpm", [0], [])

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            simulate_batch("exp1-conv-dpm", [0], ["turbo-dpm"])

    def test_rejects_bad_static_spec(self):
        with pytest.raises(ConfigurationError, match="static"):
            simulate_batch("exp1-conv-dpm", [0], ["static:lots"])

    def test_rejects_bare_string_policies(self):
        # A str is iterable: it used to fail as "unknown policy 'f'".
        with pytest.raises(ConfigurationError, match="bare string 'fc-dpm'"):
            simulate_batch("exp2-conv-dpm", [1, 2], "fc-dpm")

    @pytest.mark.parametrize("seeds", [[1], [1, 2]], ids=["width-1", "width-2"])
    def test_rejects_duplicate_policies(self, seeds):
        # Width 1 takes the per-seed loop and width 2 the stacked route;
        # both used to return one key per seed silently.
        with pytest.raises(ConfigurationError, match="duplicate policies"):
            simulate_batch("exp2-conv-dpm", seeds, ["fc-dpm", "fc-dpm"])

    def test_policies_checked_before_the_parallel_route(self, forced_pool):
        for policies in ("fc-dpm", ["conv-dpm", "conv-dpm"]):
            with pytest.raises(ConfigurationError):
                simulate_batch("exp2-conv-dpm", [1, 2], policies, workers=2)
        assert forced_pool == []

    @pytest.mark.parametrize(
        "seeds, bad",
        [
            ([1.5], 1.5),
            (["3"], "3"),
            ([-1], -1),
            ([1.2, 1.7], 1.2),
            ([7, 3.0], 3.0),
            ([7, np.float64(2.0)], np.float64(2.0)),
        ],
        ids=["fraction", "string", "negative", "fractions", "float", "numpy-float"],
    )
    def test_rejects_bad_seed(self, seeds, bad):
        # Checked before routing at width 1 (per-seed loop) and width 2
        # (stacked route): no seed is truncated, parsed or handed to the
        # RNG unchecked, and the error names the offending seed.
        with pytest.raises(ConfigurationError, match=re.escape(f"got {bad!r}")):
            simulate_batch("exp2-conv-dpm", seeds)

    def test_seeds_checked_before_the_parallel_route(self, forced_pool):
        for seeds in ([1, 2.5], [1, -2]):
            with pytest.raises(ConfigurationError, match="non-negative integers"):
                simulate_batch("exp2-conv-dpm", seeds, workers=2)
        assert forced_pool == []

    def test_accepts_numpy_integer_seeds(self):
        seeds = np.arange(3, 5)
        out = simulate_batch("exp2-conv-dpm", seeds)
        assert out == simulate_batch("exp2-conv-dpm", [3, 4])
        assert all(type(seed) is int for seed in out)

    def test_rejects_non_string_spec(self):
        with pytest.raises(ConfigurationError, match="must be a string"):
            simulate_batch("exp1-conv-dpm", [0], [0.8])
