"""Property: every simulation route keeps consistent books for every source.

A run's totals, its per-slot rows and the storage's end state are three
ledgers of the same charge.  They must balance for *every* plant -- the
paper's single-stack hybrid, multi-stack gangs under both sharing rules,
and the battery-only contrast source -- on randomized traces, on both
the scalar oracle and ``simulate_fast`` (the array kernel where it is
eligible).  The load is also checked against device books computed
outside the integrator from :class:`~repro.devices.device.DeviceParams`
alone, so a segment planner that books a transition at the wrong
current fails here even though every route shares that planner.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FCSystemConstants
from repro.core.manager import PowerManager
from repro.fuelcell.efficiency import LinearSystemEfficiency
from repro.fuelcell.fuel import FuelTank, GibbsFuelModel
from repro.fuelcell.system import FCSystem
from repro.power.battery_only import BatteryOnlySource
from repro.power.multistack import (
    EfficiencyProportional,
    EqualShare,
    MultiStackHybrid,
)
from repro.power.storage import SuperCapacitor
from repro.sim.slotsim import SlotSimulator
from repro.sim.vectorized import simulate_fast
from repro.workload.trace import LoadTrace, TaskSlot

SOURCE_KINDS = ("hybrid", "multi-stack-2-equal", "multi-stack-3-eff", "battery")


def _fc_system() -> FCSystem:
    model = LinearSystemEfficiency.from_constants(FCSystemConstants())
    return FCSystem(model, tank=FuelTank(model=GibbsFuelModel(zeta=model.zeta)))


def _build_source(kind: str):
    if kind == "hybrid":
        # PowerManager's factory builds the paper's hybrid; returning
        # None keeps that path.
        return None
    if kind == "multi-stack-2-equal":
        return MultiStackHybrid(
            [_fc_system() for _ in range(2)],
            storage=SuperCapacitor(capacity=6.0, initial_charge=3.0),
            sharing=EqualShare(),
        )
    if kind == "multi-stack-3-eff":
        return MultiStackHybrid(
            [_fc_system() for _ in range(3)],
            storage=SuperCapacitor(capacity=6.0, initial_charge=3.0),
            sharing=EfficiencyProportional(),
        )
    # Battery large enough that the short random traces never blow the
    # deficit guard.
    return BatteryOnlySource(SuperCapacitor(capacity=500.0, initial_charge=500.0))


def _manager(kind: str) -> PowerManager:
    from repro.devices.camcorder import camcorder_device_params

    mgr = PowerManager.fc_dpm(
        camcorder_device_params(), storage_capacity=6.0, storage_initial=3.0
    )
    source = _build_source(kind)
    if source is not None:
        mgr.source = source
    return mgr


def _trace(slots) -> LoadTrace:
    return LoadTrace(
        [
            TaskSlot(t_idle=idle, t_active=active, i_active=current)
            for idle, active, current in slots
        ],
        name="property",
    )


slot_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.5, max_value=30.0, allow_nan=False),
        st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
        st.floats(min_value=0.2, max_value=1.3, allow_nan=False),
    ),
    min_size=2,
    max_size=6,
)


def _run(route: str, mgr: PowerManager, trace: LoadTrace):
    if route == "scalar":
        return SlotSimulator(mgr, max_deficit_fraction=1e9).run(trace)
    return simulate_fast(mgr, trace, max_deficit_fraction=1e9)


def _device_load(device, trace: LoadTrace, slots) -> float:
    """The run's load charge from the device parameters alone (A-s)."""
    return math.fsum(
        device.idle_charge(slot.t_idle, row.slept)
        + slot.i_active * (device.t_sdb_to_run + slot.t_active + device.t_run_to_sdb)
        for slot, row in zip(trace, slots)
    )


class TestSimulatorAgreement:
    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    @given(slots=slot_lists)
    @settings(max_examples=15, deadline=None)
    def test_fuel_ledgers_agree_for_every_source(self, kind, slots):
        trace = _trace(slots)
        for route in ("scalar", "fast"):
            # Fresh manager per route: each must start from the same state.
            mgr = _manager(kind)
            storage_initial = mgr.source.storage.charge
            result = _run(route, mgr, trace)
            device = mgr.device
            rows = result.slots
            assert len(rows) == len(trace), route

            assert result.fuel == pytest.approx(
                math.fsum(r.fuel for r in rows), rel=1e-12, abs=1e-12
            ), route
            assert result.load_charge == pytest.approx(
                math.fsum(r.load_charge for r in rows), rel=1e-12
            ), route
            # Section-3 charge balance: what the FC delivered beyond the
            # load went into storage, the bleeder, or covered a deficit.
            assert result.delivered_charge - result.load_charge == pytest.approx(
                rows[-1].storage_end - storage_initial + result.bled - result.deficit,
                rel=0,
                abs=1e-10,
            ), route
            assert result.load_charge == pytest.approx(
                _device_load(device, trace, rows), rel=1e-12
            ), route
            assert result.duration == pytest.approx(
                math.fsum(
                    s.t_idle + s.t_active + device.t_sdb_to_run + device.t_run_to_sdb
                    for s in trace
                ),
                rel=1e-12,
            ), route
