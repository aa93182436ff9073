"""Predictive shutdown (Hwang-Wu, paper ref [1]) -- the policy FC-DPM builds on.

At each idle-period start the predictor estimates ``T'_i``; if the
estimate exceeds the break-even time the device powers down
*immediately* (no timeout dwell).  The paper's Eq. 14 filter is the
default predictor, but any :class:`~repro.prediction.base.Predictor`
plugs in -- that is the predictor-ablation axis of the benchmarks.

The decision is committed at idle start, one ``bool`` per slot:
:meth:`PredictiveShutdownPolicy.on_idle_start` returns it and
:meth:`PredictiveShutdownPolicy.on_idle_end` feeds the actual idle
length back to the predictor.
"""

from __future__ import annotations

import numpy as np

from ..devices.device import DeviceParams
from ..obs import OBS
from ..prediction.base import Predictor
from ..prediction.exponential import (
    ExponentialAveragePredictor,
    exponential_average_scan,
)


class PredictiveShutdownPolicy:
    """Sleep immediately iff the predicted idle length exceeds ``Tbe``.

    Parameters
    ----------
    params:
        Device parameters (supplies the break-even threshold).
    predictor:
        Idle-length predictor; defaults to the paper's exponential
        average with ``rho = 0.5``.
    threshold:
        Override of the sleep threshold (defaults to ``params.break_even``).
    """

    def __init__(
        self,
        params: DeviceParams,
        predictor: Predictor | None = None,
        threshold: float | None = None,
    ) -> None:
        self.params = params
        self.predictor = (
            predictor
            if predictor is not None
            else ExponentialAveragePredictor(factor=0.5)
        )
        self.threshold = params.break_even if threshold is None else threshold
        self.last_prediction: float | None = None
        self._last_slept: bool | None = None
        self.n_decisions = 0
        self.n_sleep_decisions = 0

    def sleeps(self, predicted):
        """The sleep rule for a prediction (float) or predictions (array).

        Sleep iff the prediction reaches the threshold and the idle
        period it predicts can host the power-down and wake-up
        transitions.
        """
        return (predicted >= self.threshold) & (
            predicted >= self.params.t_pd + self.params.t_wu
        )

    def on_idle_start(self) -> bool:
        """Decide whether the coming idle period sleeps."""
        predicted = self.predictor.predict()
        self.last_prediction = predicted
        sleep = bool(self.sleeps(predicted))
        self._last_slept = sleep
        self.n_decisions += 1
        self.n_sleep_decisions += sleep
        if OBS.enabled:
            OBS.metrics.counter(
                "dpm.policy_decisions",
                policy=type(self).__name__,
                sleep="yes" if sleep else "no",
            ).inc()
        return sleep

    def decisions_array(self, idle_lengths) -> np.ndarray | None:
        """Whole-trace sleep mask via the predictor scan, or None.

        The scan replaces the per-slot predict/observe loop only when
        it is provably bit-exact: exact policy and predictor types (a
        subclass may override any step), and OBS disabled (the
        sequential path emits per-slot misprediction metrics the scan
        does not replicate).  On success the policy and predictor are
        left in the exact end state the sequential loop produces.
        """
        if (
            type(self) is not PredictiveShutdownPolicy
            or type(self.predictor) is not ExponentialAveragePredictor
            or OBS.enabled
        ):
            return None
        predictions, final_estimate = exponential_average_scan(
            self.predictor.factor, self.predictor.estimate, idle_lengths
        )
        sleep = self.sleeps(predictions)
        self.predictor.commit_scan(idle_lengths, predictions, final_estimate)
        if sleep.shape[0]:
            self.last_prediction = float(predictions[-1])
            self._last_slept = bool(sleep[-1])
            self.n_decisions += sleep.shape[0]
            self.n_sleep_decisions += int(np.count_nonzero(sleep))
        return sleep

    def on_idle_end(self, t_idle: float) -> None:
        """Observe the actual idle length."""
        if OBS.enabled and self._last_slept is not None:
            # A misprediction is a decision the actual idle length
            # contradicts: slept but the period was shorter than the
            # threshold (wasted transition), or stayed awake through a
            # period that warranted sleeping (missed saving).
            should_sleep = t_idle >= self.threshold
            if self._last_slept != should_sleep:
                OBS.metrics.counter(
                    "dpm.mispredictions",
                    kind="overpredict" if self._last_slept else "underpredict",
                ).inc()
            if self.last_prediction is not None:
                OBS.metrics.histogram("dpm.prediction_error_s").observe(
                    self.last_prediction - t_idle
                )
        self.predictor.observe(t_idle)

    def reset(self) -> None:
        """Clear decision counters and learning state."""
        self.n_decisions = 0
        self.n_sleep_decisions = 0
        self.predictor.reset()
        self.last_prediction = None
        self._last_slept = None

    @property
    def sleep_rate(self) -> float:
        """Fraction of idle periods for which SLEEP was chosen."""
        if self.n_decisions == 0:
            return 0.0
        return self.n_sleep_decisions / self.n_decisions
