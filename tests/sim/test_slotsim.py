"""Slot-level simulator tests."""

import pytest

from repro.core.manager import PowerManager
from repro.errors import SimulationError
from repro.sim.slotsim import SlotSimulator, simulate_policies
from repro.workload.trace import LoadTrace, TaskSlot


class TestBasicRun:
    def test_duration_matches_trace_plus_overheads(self, managers, small_trace):
        mgr = managers[0]
        result = SlotSimulator(mgr).run(small_trace)
        p = mgr.device
        expected = small_trace.duration + len(small_trace) * (
            p.t_sdb_to_run + p.t_run_to_sdb
        )
        assert result.duration == pytest.approx(expected)

    def test_load_charge_accounted(self, managers, small_trace):
        result = SlotSimulator(managers[0]).run(small_trace)
        assert result.load_charge > 0
        assert result.n_slots == len(small_trace)

    def test_conv_uses_most_fuel(self, managers, small_trace):
        results = simulate_policies(small_trace, managers)
        assert results["conv-dpm"].fuel > results["asap-dpm"].fuel
        assert results["asap-dpm"].fuel > results["fc-dpm"].fuel

    def test_same_load_charge_across_policies(self, managers, small_trace):
        results = simulate_policies(small_trace, managers)
        charges = [r.load_charge for r in results.values()]
        assert charges[0] == pytest.approx(charges[1])
        assert charges[1] == pytest.approx(charges[2])

    def test_metrics_reduction(self, managers, small_trace):
        result = SlotSimulator(managers[0]).run(small_trace)
        m = result.metrics
        assert m.fuel == result.fuel
        assert m.name == "conv-dpm"


class TestSleepHandling:
    def test_camcorder_sleeps_after_learning(self, managers, small_trace):
        result = SlotSimulator(managers[0]).run(small_trace)
        # First idle has prediction 0 < Tbe; the rest sleep.
        assert result.n_sleeps == len(small_trace) - 1

    def test_slots_record_sleep_flag(self, managers, small_trace):
        result = SlotSimulator(managers[0]).run(small_trace)
        assert not result.slots[0].slept
        assert all(s.slept for s in result.slots[1:])

    def test_aborted_sleep_counted(self, camcorder_params):
        # Committed sleep into an idle period too short for the 1 s round
        # trip: the simulator falls back to STANDBY and counts it.
        trace = LoadTrace(
            [TaskSlot(12.0, 3.0, 1.2), TaskSlot(0.6, 3.0, 1.2)], name="abort"
        )
        mgr = PowerManager.conv_dpm(
            camcorder_params, storage_capacity=6.0, storage_initial=3.0
        )
        result = SlotSimulator(mgr).run(trace)
        assert result.n_aborted_sleeps == 1
        assert result.n_sleeps == 0  # slot 0 not predicted, slot 1 aborted

    def test_exp2_skips_short_idles(self, exp2_params):
        # Tbe = 10 s: a predictor estimate below that must not sleep.
        trace = LoadTrace(
            [TaskSlot(6.0, 3.0, 1.2)] * 8, name="short-idles"
        )
        mgr = PowerManager.conv_dpm(
            exp2_params, storage_capacity=6.0, storage_initial=3.0
        )
        result = SlotSimulator(mgr).run(trace)
        assert result.n_sleeps == 0


class TestRecording:
    def test_recorder_disabled_by_default(self, managers, small_trace):
        result = SlotSimulator(managers[0]).run(small_trace)
        assert result.recorder is None

    def test_recorder_captures_segments(self, managers, small_trace):
        result = SlotSimulator(managers[2], record=True).run(small_trace)
        rec = result.recorder
        assert rec is not None
        assert rec.duration == pytest.approx(result.duration)
        kinds = {s.kind for s in rec.samples}
        assert "run" in kinds and "sleep" in kinds

    def test_fuel_cumulative_monotone(self, managers, small_trace):
        result = SlotSimulator(managers[1], record=True).run(small_trace)
        fuels = [s.fuel_cumulative for s in result.recorder.samples]
        assert fuels == sorted(fuels)
        assert fuels[-1] == pytest.approx(result.fuel)


class TestConservation:
    def test_fc_dpm_storage_returns_near_target(self, managers, small_trace):
        result = SlotSimulator(managers[2]).run(small_trace)
        # Cend target is the initial 3.0 A-s; prediction noise leaves a
        # bounded residual.
        assert result.slots[-1].storage_end == pytest.approx(3.0, abs=1.5)

    def test_undersized_source_raises(self, exp2_params):
        # A huge always-active load the FC + tiny storage cannot carry.
        trace = LoadTrace([TaskSlot(0.5, 30.0, 1.33)] * 10, name="hungry")
        mgr = PowerManager.asap_dpm(
            exp2_params, storage_capacity=0.5, storage_initial=0.25
        )
        with pytest.raises(SimulationError):
            SlotSimulator(mgr).run(trace)

    def test_average_system_efficiency_in_physical_band(
        self, managers, small_trace
    ):
        result = SlotSimulator(managers[2]).run(small_trace)
        # delivered/fuel for the linear law stays within (0, 1.5] A/A.
        assert 0 < result.average_system_efficiency < 1.5


class TestLatencyAccounting:
    def test_wakeup_latency_counts_sleeps(self, managers, small_trace):
        result = SlotSimulator(managers[0]).run(small_trace)
        expected = result.n_sleeps * managers[0].device.t_wu
        assert result.wakeup_latency == pytest.approx(expected)

    def test_mean_latency_per_request(self, managers, small_trace):
        result = SlotSimulator(managers[0]).run(small_trace)
        assert result.mean_latency_per_request == pytest.approx(
            result.wakeup_latency / result.n_slots
        )

    def test_no_sleep_no_latency(self, exp2_params):
        trace = LoadTrace([TaskSlot(6.0, 3.0, 1.2)] * 5, name="short")
        mgr = PowerManager.conv_dpm(
            exp2_params, storage_capacity=6.0, storage_initial=3.0
        )
        result = SlotSimulator(mgr).run(trace)
        assert result.wakeup_latency == 0.0


class TestGuardCounter:
    def test_guard_counter_small_on_paper_workload(self, camcorder_params):
        from repro.workload.mpeg import generate_mpeg_trace

        mgr = PowerManager.fc_dpm(
            camcorder_params, storage_capacity=6.0, storage_initial=3.0
        )
        result = SlotSimulator(mgr).run(generate_mpeg_trace())
        # The saturation guard should stay a rare correction here.
        assert mgr.controller.n_guard_activations < 0.15 * result.n_slots
