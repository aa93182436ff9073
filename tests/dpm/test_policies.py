"""Device-side DPM policy tests."""

import pytest

from repro.devices.camcorder import camcorder_device_params
from repro.dpm.predictive import PredictiveShutdownPolicy
from repro.prediction.exponential import ExponentialAveragePredictor


@pytest.fixture
def params():
    return camcorder_device_params()


class TestPredictiveShutdown:
    def test_sleeps_when_prediction_exceeds_threshold(self, params):
        pred = ExponentialAveragePredictor(factor=0.5, initial=10.0)
        policy = PredictiveShutdownPolicy(params, pred)
        assert policy.on_idle_start() is True

    def test_stays_when_prediction_below_threshold(self, params):
        pred = ExponentialAveragePredictor(factor=0.5, initial=0.2)
        policy = PredictiveShutdownPolicy(params, pred)
        assert not policy.on_idle_start()

    def test_threshold_override(self, params):
        pred = ExponentialAveragePredictor(factor=0.5, initial=5.0)
        policy = PredictiveShutdownPolicy(params, pred, threshold=6.0)
        assert not policy.on_idle_start()

    def test_learning_changes_decision(self, params):
        policy = PredictiveShutdownPolicy(
            params, ExponentialAveragePredictor(factor=0.5, initial=0.0)
        )
        assert not policy.on_idle_start()  # prediction 0 < Tbe
        policy.on_idle_end(12.0)
        assert policy.on_idle_start()      # prediction 6 > Tbe = 1

    def test_last_prediction_exposed(self, params):
        policy = PredictiveShutdownPolicy(
            params, ExponentialAveragePredictor(factor=0.5, initial=4.0)
        )
        policy.on_idle_start()
        assert policy.last_prediction == 4.0

    def test_default_predictor_is_paper_filter(self, params):
        policy = PredictiveShutdownPolicy(params)
        assert isinstance(policy.predictor, ExponentialAveragePredictor)
        assert policy.predictor.factor == 0.5

    def test_reset(self, params):
        policy = PredictiveShutdownPolicy(params)
        policy.on_idle_start()
        policy.on_idle_end(15.0)
        policy.reset()
        assert policy.n_decisions == 0
        assert policy.predictor.estimate == 0.0

    def test_counters(self, params):
        policy = PredictiveShutdownPolicy(
            params, ExponentialAveragePredictor(factor=0.5, initial=10.0)
        )
        for _ in range(3):
            policy.on_idle_start()
        assert policy.n_decisions == 3
        assert policy.sleep_rate == 1.0

    def test_sleep_rate_empty(self, params):
        assert PredictiveShutdownPolicy(params).sleep_rate == 0.0
