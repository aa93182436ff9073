"""FC-DPM controller tests (Algorithm of paper Fig. 5)."""

import pytest

from repro.core.baselines import SegmentContext, SlotActuals, SlotStart
from repro.core.fc_dpm import FCDPMController
from repro.devices.camcorder import camcorder_device_params
from repro.errors import ConfigurationError
from repro.fuelcell.efficiency import LinearSystemEfficiency
from repro.prediction.base import ConstantPredictor


@pytest.fixture
def model() -> LinearSystemEfficiency:
    return LinearSystemEfficiency()


def make_controller(model, t_i=20.0, t_a=10.0, i_a=1.2, **kwargs) -> FCDPMController:
    return FCDPMController(
        model,
        idle_length_predictor=ConstantPredictor(t_i),
        active_length_predictor=ConstantPredictor(t_a),
        active_current_estimate=i_a,
        **kwargs,
    )


def idle_ctx(charge, duration=20.0, i_load=0.2):
    return SegmentContext(
        slot_index=0, phase="idle", kind="sleep", duration=duration,
        i_load=i_load, storage_charge=charge, storage_capacity=200.0,
        phase_duration=duration, phase_demand=i_load * duration,
    )


def active_ctx(charge, duration=10.0, i_load=1.2):
    return SegmentContext(
        slot_index=0, phase="active", kind="run", duration=duration,
        i_load=i_load, storage_charge=charge, storage_capacity=200.0,
        phase_duration=duration, phase_demand=i_load * duration,
    )


class TestPlanning:
    def test_idle_output_is_flat_optimum(self, model):
        c = make_controller(model)
        c.start_run(0.0, 200.0)
        c.on_idle_start(SlotStart(0, sleeping=False, i_idle=0.2,
                                  storage_charge=0.0))
        assert c.output(idle_ctx(0.0)) == pytest.approx(16 / 30, abs=1e-9)

    def test_active_replan_uses_actuals(self, model):
        c = make_controller(model, t_i=20.0, t_a=10.0)
        c.start_run(0.0, 200.0)
        c.on_idle_start(SlotStart(0, False, 0.2, 0.0))
        c.output(idle_ctx(0.0))
        # Suppose the idle ran long and the storage holds 8 A-s at the
        # active start; actual demand 12 A-s, target 0:
        # IF,a = (12 + 0 - 8)/10 = 0.4.
        assert c.output(active_ctx(8.0)) == pytest.approx(0.4)

    def test_active_replan_computed_once_per_slot(self, model):
        c = make_controller(model)
        c.start_run(0.0, 200.0)
        c.on_idle_start(SlotStart(0, False, 0.2, 0.0))
        first = c.output(active_ctx(8.0))
        # A later segment of the same phase must reuse the planned value.
        assert c.output(active_ctx(2.0)) == first
        # A new slot replans.
        c.on_idle_start(SlotStart(1, False, 0.2, 4.0))
        assert not c._active_planned

    def test_active_replan_clamps_to_range(self, model):
        c = make_controller(model)
        c.start_run(0.0, 200.0)
        c.on_idle_start(SlotStart(0, False, 0.2, 0.0))
        # Storage overfull: raw IF,a would be negative.
        assert c.output(active_ctx(100.0)) == model.if_min
        c.on_idle_start(SlotStart(1, False, 0.2, 0.0))
        # Storage empty and heavy demand: clamps at the ceiling.
        assert c.output(active_ctx(0.0, duration=5.0, i_load=1.33)) == model.if_max

    def test_solutions_recorded(self, model):
        c = make_controller(model)
        c.start_run(0.0, 200.0)
        c.on_idle_start(SlotStart(0, False, 0.2, 0.0))
        c.on_idle_start(SlotStart(1, False, 0.2, 0.0))
        assert len(c.solutions) == 2

    def test_cend_target_is_run_start_level(self, model):
        c = make_controller(model)
        c.start_run(3.0, 200.0)
        # Storage currently 0 but target 3: flat output rises to refill.
        c.on_idle_start(SlotStart(0, False, 0.2, 0.0))
        assert c.output(idle_ctx(0.0)) == pytest.approx((16 + 3) / 30)


class TestOverheads:
    def test_sleeping_slot_includes_transition_terms(self, model):
        dev = camcorder_device_params()
        c = make_controller(model, device=dev)
        c.start_run(0.0, 200.0)
        c.on_idle_start(SlotStart(0, sleeping=True, i_idle=0.2,
                                  storage_charge=0.0))
        s = c.solutions[-1]
        # delta = 1: Ta_eff = 10 + 0.5 + 0.5 = 11.
        expected = (16 + dev.sleep_overhead_charge) / 31.0
        assert s.if_idle == pytest.approx(expected)

    def test_no_device_means_no_overheads(self, model):
        c = make_controller(model, device=None)
        c.start_run(0.0, 200.0)
        c.on_idle_start(SlotStart(0, sleeping=True, i_idle=0.2,
                                  storage_charge=0.0))
        assert c.solutions[-1].if_idle == pytest.approx(16 / 30)


class TestLearning:
    def test_active_current_running_mean(self, model):
        c = FCDPMController(
            model,
            idle_length_predictor=ConstantPredictor(20.0),
            active_length_predictor=ConstantPredictor(10.0),
            active_current_estimate=None,
            fallback_active_current=1.0,
        )
        assert c._estimated_active_current() == 1.0
        c.on_slot_end(SlotActuals(0, 20.0, 10.0, 1.2))
        c.on_slot_end(SlotActuals(1, 20.0, 10.0, 0.8))
        assert c._estimated_active_current() == pytest.approx(1.0)

    def test_fixed_estimate_wins(self, model):
        c = make_controller(model, i_a=1.2)
        c.on_slot_end(SlotActuals(0, 20.0, 10.0, 0.5))
        assert c._estimated_active_current() == 1.2

    def test_observes_idle_flag(self, model):
        from repro.prediction.exponential import ExponentialAveragePredictor

        shared = ExponentialAveragePredictor(factor=0.5)
        c = FCDPMController(model, idle_length_predictor=shared)
        c.observes_idle = False
        c.on_slot_end(SlotActuals(0, 10.0, 3.0, 1.2))
        assert shared.estimate == 0.0  # untouched
        c.observes_idle = True
        c.on_slot_end(SlotActuals(1, 10.0, 3.0, 1.2))
        assert shared.estimate == pytest.approx(5.0)

    def test_rejects_negative_estimate(self, model):
        with pytest.raises(ConfigurationError):
            FCDPMController(model, active_current_estimate=-1.0)

    @pytest.mark.parametrize("estimate", [float("nan"), float("inf")])
    def test_rejects_non_finite_estimate(self, model, estimate):
        with pytest.raises(ConfigurationError, match="must be finite"):
            FCDPMController(model, active_current_estimate=estimate)

    def test_reset(self, model):
        c = make_controller(model)
        c.start_run(0.0, 200.0)
        c.on_idle_start(SlotStart(0, False, 0.2, 0.0))
        c.on_slot_end(SlotActuals(0, 20.0, 10.0, 1.2))
        c.reset()
        assert not c.solutions
        assert c._active_current_n == 0
