"""Shared segment planner + integrator (the common core of both sims)."""

from __future__ import annotations

import pytest

from repro.core.manager import PowerManager
from repro.sim.integrator import (
    Segment,
    SegmentIntegrator,
    phase_totals,
    plan_active_segments,
    plan_idle_segments,
)
from repro.sim.recorder import Recorder
from repro.workload.trace import TaskSlot


class TestIdlePlanning:
    def test_no_sleep_is_one_standby_segment(self, camcorder_params):
        segments, slept, aborted = plan_idle_segments(camcorder_params, 12.0, sleep=False)
        assert not slept and not aborted
        assert [s.kind for s in segments] == ["standby"]
        assert segments[0].duration == 12.0
        assert segments[0].i_load == camcorder_params.i_sdb

    def test_sleep_layout_sums_to_idle_length(self, camcorder_params):
        t_idle = 15.0
        segments, slept, aborted = plan_idle_segments(camcorder_params, t_idle, sleep=True)
        assert slept and not aborted
        assert [s.kind for s in segments] == ["pd", "sleep", "wu"]
        assert sum(s.duration for s in segments) == pytest.approx(t_idle)

    def test_too_short_idle_aborts_the_sleep(self, camcorder_params):
        p = camcorder_params
        t_idle = p.t_pd + p.t_wu - 0.01  # cannot even host the transitions
        segments, slept, aborted = plan_idle_segments(p, t_idle, sleep=True)
        assert not slept and aborted
        assert [s.kind for s in segments] == ["standby"]

    def test_immediate_sleep_has_no_standby_prefix(self, camcorder_params):
        segments, slept, _ = plan_idle_segments(camcorder_params, 15.0, sleep=True)
        assert slept
        assert segments[0].kind == "pd"


class TestActivePlanning:
    def test_transitions_absorbed_at_active_current(self, camcorder_params):
        slot = TaskSlot(t_idle=10.0, t_active=3.0, i_active=1.2)
        segments = plan_active_segments(camcorder_params, slot)
        assert len(segments) == 1
        seg = segments[0]
        assert seg.kind == "run"
        assert seg.i_load == 1.2
        assert seg.duration == pytest.approx(
            camcorder_params.t_sdb_to_run + 3.0 + camcorder_params.t_run_to_sdb
        )


class TestPhaseTotals:
    def test_phase_totals(self):
        segs = [Segment(10.0, 0.4, "standby"), Segment(5.0, 1.2, "run")]
        duration, charge = phase_totals(segs)
        assert duration == pytest.approx(15.0)
        assert charge == pytest.approx(10.0 * 0.4 + 5.0 * 1.2)


class TestIntegrator:
    def _manager(self, camcorder_params) -> PowerManager:
        return PowerManager.fc_dpm(
            camcorder_params, storage_capacity=6.0, storage_initial=3.0
        )

    def test_clock_advances_by_segment_durations(self, camcorder_params):
        mgr = self._manager(camcorder_params)
        integrator = SegmentIntegrator(mgr)
        integrator.start_run()
        segs = [Segment(10.0, 0.4, "standby"), Segment(5.0, 1.2, "run")]
        integrator.run_phase(0, "idle", segs)
        assert integrator.t_now == pytest.approx(15.0)

    def test_steps_feed_the_recorder_with_source_kind(self, camcorder_params):
        mgr = self._manager(camcorder_params)
        recorder = Recorder()
        integrator = SegmentIntegrator(mgr, recorder=recorder)
        integrator.start_run()
        integrator.run_phase(0, "idle", [Segment(10.0, 0.4, "standby")])
        assert len(recorder) == 1
        sample = recorder.samples[0]
        assert sample.kind == "standby"
        assert sample.source_kind == "hybrid"
        assert sample.dt == 10.0

    def test_run_phase_decrements_remaining_lookahead(self, camcorder_params):
        # The controller of the last segment must see exactly that
        # segment as the remaining phase -- probe via a spy controller.
        mgr = self._manager(camcorder_params)
        seen = []
        original = mgr.controller.output

        def spy(ctx):
            seen.append((ctx.phase_duration, ctx.phase_demand))
            return original(ctx)

        mgr.controller.output = spy
        integrator = SegmentIntegrator(mgr)
        integrator.start_run()
        segs = [Segment(10.0, 0.4, "standby"), Segment(5.0, 1.2, "run")]
        integrator.run_phase(0, "idle", segs)
        assert seen[0] == (pytest.approx(15.0), pytest.approx(10.0))
        assert seen[1] == (pytest.approx(5.0), pytest.approx(6.0))

    def test_ledger_totals_match_source(self, camcorder_params):
        mgr = self._manager(camcorder_params)
        integrator = SegmentIntegrator(mgr)
        integrator.start_run()
        steps = integrator.run_phase(
            0, "idle", [Segment(10.0, 0.4, "standby"), Segment(5.0, 1.2, "run")]
        )
        assert sum(s.fuel for s in steps) == pytest.approx(mgr.source.total_fuel)
        assert mgr.source.total_load_charge == pytest.approx(10.0)
