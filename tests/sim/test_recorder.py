"""Recorder time-series tests."""

import pytest

from repro.errors import SimulationError
from repro.sim.recorder import Recorder, Sample


def sample(t, dt, i_f=0.5, i_load=0.2, kind="standby"):
    return Sample(
        t=t, dt=dt, i_load=i_load, i_f=i_f, i_fc=0.4,
        storage_charge=1.0, fuel_cumulative=t * 0.4, kind=kind,
    )


class TestRecorder:
    def test_add_and_duration(self):
        r = Recorder()
        r.add(sample(0.0, 10.0))
        r.add(sample(10.0, 5.0))
        assert len(r) == 2
        assert r.duration == 15.0

    def test_time_must_not_go_backwards(self):
        r = Recorder()
        r.add(sample(10.0, 5.0))
        with pytest.raises(SimulationError):
            r.add(sample(3.0, 1.0))

    def test_step_series(self):
        r = Recorder()
        r.add(sample(0.0, 10.0, i_f=0.5))
        r.add(sample(10.0, 5.0, i_f=0.9))
        times, values = r.step_series("i_f")
        assert list(times) == [0.0, 10.0, 15.0]
        assert list(values) == [0.5, 0.9]

    def test_step_series_t_max(self):
        r = Recorder()
        r.add(sample(0.0, 10.0))
        r.add(sample(10.0, 5.0))
        r.add(sample(15.0, 5.0))
        times, values = r.step_series("i_f", t_max=12.0)
        assert len(values) == 2

    def test_samples_immutable_view(self):
        r = Recorder()
        r.add(sample(0.0, 1.0))
        assert isinstance(r.samples, tuple)


class TestSourceKindRecording:
    def test_sample_defaults_are_sourceless(self):
        s = sample(0.0, 1.0)
        assert s.source_kind == ""
        assert s.stack_currents == ()

    def test_recorded_run_carries_source_kind(self, camcorder_params):
        from repro.core.manager import PowerManager
        from repro.sim.slotsim import SlotSimulator
        from repro.workload.trace import LoadTrace, TaskSlot

        mgr = PowerManager.fc_dpm(
            camcorder_params, storage_capacity=6.0, storage_initial=3.0
        )
        trace = LoadTrace([TaskSlot(t_idle=12.0, t_active=3.0, i_active=1.2)])
        result = SlotSimulator(mgr, record=True).run(trace)
        assert result.recorder is not None
        assert all(s.source_kind == "hybrid" for s in result.recorder.samples)
