"""Ties at the sleep threshold: every route sleeps on the same slots.

With ``rho = 0`` the Eq. 14 filter predicts exactly the previous idle
length, so a trace whose idle lengths equal ``Tbe`` puts the
prediction exactly on the threshold.  On the camcorder ``Tbe`` also
equals ``t_pd + t_wu``, so both halves of the sleep rule tie at once,
and an actual idle of exactly ``t_pd + t_wu`` hosts a sleep with no
dwell.  The rule is ``>=``: a tie sleeps, one ulp below does not.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.dpm.predictive import PredictiveShutdownPolicy
from repro.obs import observing
from repro.prediction.base import LastValuePredictor
from repro.scenario import get_scenario
from repro.sim.slotsim import SlotSimulator
from repro.sim.vectorized import replay_policy, simulate_batch, simulate_fast
from repro.workload.trace import LoadTrace, TaskSlot

POLICIES = ["conv-dpm", "asap-dpm", "fc-dpm"]


def _scenario(name):
    sc = get_scenario(name)
    return replace(sc, policy=replace(sc.policy, rho=0.0))


def _tie_trace(tie: float, shift: int = 0) -> LoadTrace:
    below = float(np.nextafter(tie, 0.0))
    pattern = [tie, tie, below, tie, 2 * tie, tie, below, below, tie, tie]
    idles = pattern[shift:] + pattern[:shift]
    return LoadTrace([TaskSlot(t_idle=t, t_active=2.0, i_active=1.2) for t in idles])


def _expected(device, trace):
    """(decided, slept, aborted) per slot, from the rule written out."""
    idles = [slot.t_idle for slot in trace]
    overhead = device.t_pd + device.t_wu
    decided = [False] + [
        prev >= device.break_even and prev >= overhead for prev in idles[:-1]
    ]
    slept = [d and t >= overhead for d, t in zip(decided, idles)]
    aborted = [d and t < overhead for d, t in zip(decided, idles)]
    return decided, slept, aborted


def _flags(result):
    return (
        [slot.slept for slot in result.slots],
        [slot.aborted_sleep for slot in result.slots],
    )


@pytest.fixture(params=["exp1-conv-dpm", "exp2-conv-dpm"])
def scenario(request):
    return _scenario(request.param)


def test_camcorder_ties_both_halves_of_the_rule():
    device = _scenario("exp1-conv-dpm").build_device()
    assert device.break_even == device.t_pd + device.t_wu
    # A tie after a tie sleeps with no dwell; one ulp short aborts.
    _, slept, aborted = _expected(device, _tie_trace(device.break_even))
    assert slept[1] and aborted[2]


class TestTies:
    def test_rule_sleeps_on_a_tie(self, scenario):
        policy = scenario.build_manager().policy
        tie = policy.params.break_even
        assert policy.sleeps(tie)
        assert not policy.sleeps(float(np.nextafter(tie, 0.0)))
        np.testing.assert_array_equal(
            policy.sleeps(np.array([tie, np.nextafter(tie, 0.0)])), [True, False]
        )

    def test_slot_simulator(self, scenario):
        mgr = scenario.build_manager()
        trace = _tie_trace(mgr.device.break_even)
        decided, slept, aborted = _expected(mgr.device, trace)
        assert any(decided) and not all(decided)
        assert _flags(SlotSimulator(mgr).run(trace)) == (slept, aborted)

    def test_fast_scan(self, scenario, monkeypatch):
        mgr = scenario.build_manager()
        trace = _tie_trace(mgr.device.break_even)
        decided, slept, aborted = _expected(mgr.device, trace)
        scalar = SlotSimulator(scenario.build_manager()).run(trace)

        def per_slot(self):
            raise AssertionError("scan route replayed the policy per slot")

        monkeypatch.setattr(PredictiveShutdownPolicy, "on_idle_start", per_slot)
        fast = simulate_fast(mgr, trace)
        assert _flags(fast) == (slept, aborted)
        assert fast == scalar
        fresh = scenario.build_manager().policy
        assert replay_policy(fresh, trace).tolist() == decided

    @pytest.mark.parametrize("replay", ["obs", "last-value"])
    def test_per_slot_replay(self, scenario, replay):
        def manager():
            mgr = scenario.build_manager()
            if replay == "last-value":
                mgr.policy.predictor = LastValuePredictor()
            return mgr

        mgr = manager()
        trace = _tie_trace(mgr.device.break_even)
        decided, slept, aborted = _expected(mgr.device, trace)
        scalar = SlotSimulator(manager()).run(trace)
        if replay == "obs":
            with observing():
                assert mgr.policy.decisions_array([1.0]) is None
                fast = simulate_fast(mgr, trace)
                sleep = replay_policy(manager().policy, trace)
        else:
            assert manager().policy.decisions_array([1.0]) is None
            fast = simulate_fast(mgr, trace)
            sleep = replay_policy(manager().policy, trace)
        assert sleep.tolist() == decided
        assert _flags(fast) == (slept, aborted)
        assert fast == scalar

    def test_stacked_batch(self, scenario):
        tie = scenario.build_device().break_even
        traces = {seed: _tie_trace(tie, shift=seed) for seed in range(3)}
        with observing() as obs:
            batch = simulate_batch(scenario, list(traces), POLICIES, traces=traces)
            snapshot = obs.metrics.snapshot()
        assert snapshot["sim.batch_route{path=stacked}"]["value"] == 1
        device = scenario.build_device()
        for seed, trace in traces.items():
            _, slept, aborted = _expected(device, trace)
            for spec in POLICIES:
                assert _flags(batch[seed][spec]) == (slept, aborted), (seed, spec)
