"""Receding-horizon FC output control (a future-work extension).

FC-DPM (Section 4) plans one slot at a time and pins the storage back to
``Cini(1)`` at every slot boundary -- simple, but conservative: charge
cannot be carried across slots even when the predictor foresees a heavy
slot coming.  This controller generalizes the idea with model-predictive
control: at each idle start it lays out the next ``horizon`` predicted
slots (the upcoming slot from the live predictions, the rest from the
predictors' stationary estimates), solves the multi-period problem
exactly with :func:`repro.core.optimizer.solve_horizon` (the taut string
through the storage tube), applies the first period's output, and
re-plans at the next boundary.

With ``horizon = 1`` it degenerates to FC-DPM's per-slot behaviour; the
ablation bench sweeps the horizon length and shows the (modest) fuel
headroom the paper's per-slot stability constraint leaves on the table.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, InfeasibleError
from ..fuelcell.efficiency import SystemEfficiencyModel
from ..prediction.base import Predictor
from ..prediction.exponential import ExponentialAveragePredictor
from .baselines import SegmentContext, SlotActuals, SlotStart, SourceController
from .optimizer import solve_horizon


class RecedingHorizonController(SourceController):
    """MPC-style FC output controller over predicted future slots.

    Parameters
    ----------
    model:
        System-efficiency model.
    horizon:
        Number of future task slots in each plan (>= 1).
    idle_length_predictor, active_length_predictor:
        Period-length predictors (paper's exponential filters by
        default).
    active_current_estimate:
        Fixed estimate of future active currents; None uses the running
        mean of observations.
    terminal_weight:
        How strongly the plan is pulled back to the run-start storage
        level at the horizon end (1.0 = hard equality, matching the
        FC-DPM stability idea at the *horizon* boundary instead of
        every slot boundary).
    """

    def __init__(
        self,
        model: SystemEfficiencyModel,
        horizon: int = 4,
        idle_length_predictor: Predictor | None = None,
        active_length_predictor: Predictor | None = None,
        active_current_estimate: float | None = None,
        i_idle_estimate: float = 0.2,
    ) -> None:
        super().__init__(model)
        if horizon < 1:
            raise ConfigurationError("horizon must be >= 1")
        self.horizon = horizon
        self.idle_length_predictor = (
            idle_length_predictor
            if idle_length_predictor is not None
            else ExponentialAveragePredictor(factor=0.5)
        )
        self.active_length_predictor = (
            active_length_predictor
            if active_length_predictor is not None
            else ExponentialAveragePredictor(factor=0.5)
        )
        self.active_current_estimate = active_current_estimate
        self.i_idle_estimate = i_idle_estimate
        #: Whether on_slot_end feeds the idle predictor (see FCDPMController).
        self.observes_idle = True

        self._c_target = 0.0
        self._c_max = float("inf")
        self._if_idle = model.if_min
        self._if_active = model.if_min
        self._active_planned = False
        self._i_active_sum = 0.0
        self._i_active_n = 0
        self.n_plans = 0
        self.n_fallbacks = 0

    # -- helpers -------------------------------------------------------------

    def _i_active(self) -> float:
        if self.active_current_estimate is not None:
            return self.active_current_estimate
        if self._i_active_n == 0:
            return self.model.if_max
        return self._i_active_sum / self._i_active_n

    def _build_horizon(self, t_i: float, i_idle: float):
        """Period durations/demands: the next slot plus stationary tail."""
        t_a = max(self.active_length_predictor.predict(), 1e-3)
        i_a = self._i_active()
        durations = [max(t_i, 1e-3), t_a]
        demands = [i_idle * max(t_i, 1e-3), i_a * t_a]
        tail_idle = max(self.idle_length_predictor.predict(), 1e-3)
        for _ in range(self.horizon - 1):
            durations += [tail_idle, t_a]
            demands += [self.i_idle_estimate * tail_idle, i_a * t_a]
        return np.asarray(durations), np.asarray(demands)

    def _plan(self, t_i: float, i_idle: float, c_now: float) -> None:
        durations, demands = self._build_horizon(t_i, i_idle)
        self.n_plans += 1
        try:
            outputs, _ = solve_horizon(
                durations,
                demands,
                self.model,
                c_ini=c_now,
                c_end=self._c_target,
                c_max=self._c_max,
            )
            self._if_idle = float(outputs[0])
            self._if_active = float(outputs[1])
        except InfeasibleError:
            # Fall back to the single-slot flat value (always realizable
            # after clamping) -- counted so tests can watch for it.
            self.n_fallbacks += 1
            flat = (demands[:2].sum() + self._c_target - c_now) / durations[
                :2
            ].sum()
            self._if_idle = self.model.clamp(flat)
            self._if_active = self._if_idle

    # -- SourceController protocol ------------------------------------------

    def start_run(self, storage_charge: float, storage_capacity: float) -> None:
        self._c_target = storage_charge
        self._c_max = storage_capacity

    def on_idle_start(self, start: SlotStart) -> None:
        t_i = self.idle_length_predictor.predict()
        self._plan(t_i, start.i_idle, start.storage_charge)
        self._active_planned = False

    def output(self, ctx: SegmentContext) -> float:
        if ctx.phase == "idle":
            return self._if_idle
        if not self._active_planned:
            # Re-anchor the active output on actuals, as FC-DPM does.
            if_a = (
                ctx.phase_demand + self._c_target - ctx.storage_charge
            ) / ctx.phase_duration
            blended = 0.5 * self._if_active + 0.5 * if_a
            self._if_active = self.model.clamp(blended)
            self._active_planned = True
        return self._if_active

    def on_slot_end(self, actuals: SlotActuals) -> None:
        if self.observes_idle:
            self.idle_length_predictor.observe(actuals.t_idle)
        self.active_length_predictor.observe(actuals.t_active)
        self._i_active_sum += actuals.i_active
        self._i_active_n += 1

    def reset(self) -> None:
        self.idle_length_predictor.reset()
        self.active_length_predictor.reset()
        self._i_active_sum = 0.0
        self._i_active_n = 0
        self._active_planned = False
        self.n_plans = 0
        self.n_fallbacks = 0
