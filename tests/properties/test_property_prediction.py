"""Property-based tests across the predictor family."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prediction.base import LastValuePredictor
from repro.prediction.exponential import (
    ExponentialAveragePredictor,
    exponential_average_scan,
)
from repro.prediction.learning_tree import LearningTreePredictor
from repro.prediction.regression import RegressionPredictor

observations = st.lists(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    min_size=1,
    max_size=60,
)

FACTORIES = [
    lambda: ExponentialAveragePredictor(factor=0.5),
    lambda: LastValuePredictor(initial=1.0),
    lambda: RegressionPredictor(order=2, window=16),
    lambda: LearningTreePredictor(bin_edges=[5.0, 20.0, 100.0], depth=2),
]


class TestPredictorInvariants:
    @pytest.mark.parametrize("factory", FACTORIES)
    @given(data=observations)
    @settings(max_examples=60, deadline=None)
    def test_predictions_never_negative(self, factory, data):
        p = factory()
        for value in data:
            assert p.predict() >= 0.0
            p.observe(value)
        assert p.predict() >= 0.0

    @pytest.mark.parametrize("factory", FACTORIES)
    @given(data=observations)
    @settings(max_examples=60, deadline=None)
    def test_predictions_bounded_by_history_envelope(self, factory, data):
        """No predictor extrapolates beyond ~2x the largest observation
        (plus its initial estimate)."""
        p = factory()
        initial = p.predict()
        bound = max(max(data), initial, 1.0) * 2.0
        for value in data:
            p.predict()
            p.observe(value)
        assert p.predict() <= bound + 1e-9

    @pytest.mark.parametrize("factory", FACTORIES)
    @given(data=observations)
    @settings(max_examples=40, deadline=None)
    def test_reset_restores_initial_prediction(self, factory, data):
        p = factory()
        first = p.predict()
        for value in data:
            p.observe(value)
        p.reset()
        assert p.predict() == pytest.approx(first)

    @pytest.mark.parametrize("factory", FACTORIES)
    @given(data=observations)
    @settings(max_examples=40, deadline=None)
    def test_error_accounting_consistency(self, factory, data):
        p = factory()
        for value in data:
            p.predict()
            p.observe(value)
        assert p.n_scored == len(data)
        assert p.mean_absolute_error >= abs(p.bias) - 1e-9

    @given(
        data=st.lists(
            st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
            min_size=5,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_constant_sequences_learned_by_all(self, data):
        """Feeding the same value k times: every predictor converges."""
        value = data[0]
        for factory in FACTORIES:
            p = factory()
            for _ in range(30):
                p.predict()
                p.observe(value)
            assert p.predict() == pytest.approx(value, rel=0.25, abs=0.5)


#: Smoothing factors for the scan-equivalence gate, hitting both edges
#: the kernel relies on: ``factor=0`` degenerates to last-value
#: prediction, and a factor ULPs below 1 is an almost-frozen estimate
#: (1.0 itself is rejected by the constructor).
scan_factors = st.one_of(
    st.just(0.0),
    st.just(1.0 - 2.0**-52),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
              allow_nan=False),
)


class TestExponentialScanEquivalence:
    """``exponential_average_scan`` is the vectorized kernel's stand-in
    for a sequential predict/observe loop; the contract is bit-for-bit
    equality, not approximation."""

    @given(
        factor=scan_factors,
        initial=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        data=observations,
    )
    @settings(max_examples=200, deadline=None)
    def test_scan_matches_sequential_bit_for_bit(self, factor, initial, data):
        preds, final = exponential_average_scan(factor, initial, data)
        p = ExponentialAveragePredictor(factor=factor, initial=initial)
        expected = []
        for value in data:
            expected.append(p.predict())
            p.observe(value)
        assert preds.tolist() == expected  # == on every float
        assert final == p.estimate

    @given(
        factor=scan_factors,
        initial=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        data=observations,
    )
    @settings(max_examples=100, deadline=None)
    def test_commit_scan_restores_sequential_state(self, factor, initial, data):
        sequential = ExponentialAveragePredictor(factor=factor, initial=initial)
        for value in data:
            sequential.predict()
            sequential.observe(value)

        committed = ExponentialAveragePredictor(factor=factor, initial=initial)
        preds, final = exponential_average_scan(factor, initial, data)
        committed.commit_scan(data, preds, final)

        # Full state equality: estimate, accuracy ledgers, remembered
        # prediction -- everything a later consumer could observe.
        assert committed.__dict__ == sequential.__dict__

    @given(data=observations)
    @settings(max_examples=50, deadline=None)
    def test_factor_zero_is_last_value(self, data):
        preds, final = exponential_average_scan(0.0, 7.0, data)
        assert preds[0] == 7.0
        assert preds.tolist()[1:] == data[:-1]
        assert final == data[-1]
