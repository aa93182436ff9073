"""Property-based tests for trace containers and simulation accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.manager import PowerManager
from repro.devices.camcorder import camcorder_device_params
from repro.sim.slotsim import SlotSimulator
from repro.workload.trace import LoadTrace, TaskSlot

slots = st.lists(
    st.builds(
        TaskSlot,
        t_idle=st.floats(min_value=2.0, max_value=60.0, allow_nan=False),
        t_active=st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
        i_active=st.floats(min_value=0.1, max_value=1.3, allow_nan=False),
    ),
    min_size=1,
    max_size=20,
)


class TestTraceProperties:
    @given(slots)
    @settings(max_examples=200, deadline=None)
    def test_duration_is_sum_of_parts(self, slot_list):
        trace = LoadTrace(slot_list)
        assert trace.duration == pytest.approx(trace.idle_time + trace.active_time)

    @given(slots, st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=200, deadline=None)
    def test_average_current_between_extremes(self, slot_list, i_idle):
        trace = LoadTrace(slot_list)
        avg = trace.average_current(i_idle)
        lo = min(i_idle, min(s.i_active for s in trace))
        hi = max(i_idle, trace.peak_current)
        assert lo - 1e-9 <= avg <= hi + 1e-9


class TestSimulationAccounting:
    @given(slots)
    @settings(max_examples=30, deadline=None)
    def test_fuel_exceeds_ideal_floor(self, slot_list):
        """Fuel >= k * delivered charge (no efficiency exceeds 1/k)."""
        trace = LoadTrace(slot_list)
        mgr = PowerManager.fc_dpm(
            camcorder_device_params(), storage_capacity=6.0, storage_initial=3.0
        )
        # Adversarial traces may legitimately overwhelm the tiny storage;
        # this test checks accounting, not sizing, so disable the guard.
        result = SlotSimulator(mgr, max_deficit_fraction=1.0).run(trace)
        delivered = mgr.source.total_delivered_charge
        assert result.fuel >= 0.32 * delivered / 0.45 - 1e-6

    @given(slots)
    @settings(max_examples=30, deadline=None)
    def test_charge_ledger_balances(self, slot_list):
        """FC supply = load + storage delta + bled - deficit over the run."""
        trace = LoadTrace(slot_list)
        mgr = PowerManager.asap_dpm(
            camcorder_device_params(), storage_capacity=6.0, storage_initial=3.0
        )
        result = SlotSimulator(mgr, max_deficit_fraction=1.0).run(trace)
        source = mgr.source
        supplied = source.total_delivered_charge
        storage_delta = source.storage.charge - 3.0
        assert supplied == pytest.approx(
            result.load_charge
            + storage_delta
            + source.storage.bled_charge
            - source.storage.deficit_charge,
            abs=1e-6,
        )


