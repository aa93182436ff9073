"""Algorithm FC-DPM: the paper's online fuel-efficient controller (Fig. 5).

At every idle-period start the controller:

1. takes the DPM decision (SLEEP vs STANDBY) made by the device policy
   -- whose predictor supplies ``T'_i`` (Eq. 14);
2. predicts the coming active period: length ``T'_a`` by the same
   exponential filter (Eq. 15) and current ``I'_ld,a`` as the running
   mean of past active currents (or a fixed estimate, as in Exp. 2);
3. solves the Section-3 slot problem with ``Cini`` = current storage
   charge and ``Cend`` = the storage level at the start of the run
   (``Cini(1)``, the paper's stability target), including the
   sleep-transition overheads when the device will sleep;
4. holds ``IF,i`` through the idle period.

When the active period actually starts, the controller re-solves for
``IF,a`` using the actual ``Ta`` and ``Ild,a`` (paper Section 4.2) and
the actual storage level, and holds that through the active period.
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError
from ..fuelcell.efficiency import SystemEfficiencyModel
from ..prediction.base import Predictor
from ..prediction.exponential import ExponentialAveragePredictor
from ..runtime.memo import solve_slot_memo
from .baselines import SegmentContext, SlotActuals, SlotStart, SourceController
from .setting import SlotProblem


class FCDPMController(SourceController):
    """The paper's fuel-efficient FC output controller.

    Parameters
    ----------
    model:
        System-efficiency model (fuel map + load-following range).
    active_length_predictor:
        Predictor for ``T'_a``; defaults to the paper's exponential
        average with ``sigma = 0.5``.
    idle_length_predictor:
        Predictor for ``T'_i`` used in the slot problem; defaults to the
        paper's exponential average with ``rho = 0.5``.  (The device's
        DPM policy keeps its own idle predictor for the sleep decision;
        sharing one instance between both is fine and what
        :class:`~repro.core.manager.PowerManager` does by default.)
    active_current_estimate:
        Fixed ``I'_ld,a`` estimate (Exp. 2 uses 1.2 A).  When ``None``
        (Exp. 1 behaviour) the running mean of observed active currents
        is used, falling back to ``fallback_active_current`` before any
        observation.
    device:
        Sleep-transition overheads (``tau_PD``, ``tau_WU``, ``IPD``,
        ``IWU``) for the Section-3.3.2 terms; pass the
        :class:`~repro.devices.device.DeviceParams` of the managed
        device.  ``None`` disables overhead modelling.
    """

    def __init__(
        self,
        model: SystemEfficiencyModel,
        active_length_predictor: Predictor | None = None,
        idle_length_predictor: Predictor | None = None,
        active_current_estimate: float | None = None,
        fallback_active_current: float | None = None,
        device=None,
    ) -> None:
        super().__init__(model)
        self.active_length_predictor = (
            active_length_predictor
            if active_length_predictor is not None
            else ExponentialAveragePredictor(factor=0.5)
        )
        self.idle_length_predictor = (
            idle_length_predictor
            if idle_length_predictor is not None
            else ExponentialAveragePredictor(factor=0.5)
        )
        if active_current_estimate is not None and not (
            0 <= active_current_estimate < math.inf
        ):
            raise ConfigurationError(
                "active-current estimate must be finite and non-negative, "
                f"got {active_current_estimate!r}"
            )
        self.active_current_estimate = active_current_estimate
        self.fallback_active_current = (
            fallback_active_current
            if fallback_active_current is not None
            else model.if_max
        )
        self.device = device
        #: Whether on_slot_end feeds the idle predictor.  Set False when
        #: the instance is shared with the device's DPM policy (which
        #: already observes every idle period) to avoid double updates.
        self.observes_idle = True

        self._c_target = 0.0
        self._c_max = float("inf")
        self._if_idle = model.if_min
        self._if_active = model.if_min
        self._active_planned = False
        self._active_current_sum = 0.0
        self._active_current_n = 0
        #: Per-slot solver records, for figures and diagnostics.
        self.solutions = []
        #: Times the storage-saturation guard overrode the idle plan.
        self.n_guard_activations = 0

    # -- helpers -----------------------------------------------------------

    def _estimated_active_current(self) -> float:
        if self.active_current_estimate is not None:
            return self.active_current_estimate
        if self._active_current_n == 0:
            return self.fallback_active_current
        return self._active_current_sum / self._active_current_n

    def _overheads(self, sleeping: bool) -> dict:
        if not sleeping or self.device is None:
            return {}
        return {
            "t_wu": self.device.t_wu,
            "t_pd": self.device.t_pd,
            "i_wu": self.device.i_wu,
            "i_pd": self.device.i_pd,
        }

    # -- SourceController protocol ------------------------------------------

    def start_run(self, storage_charge: float, storage_capacity: float) -> None:
        self._c_target = storage_charge
        self._c_max = storage_capacity

    def on_idle_start(self, start: SlotStart) -> None:
        t_i = max(self.idle_length_predictor.predict(), 1e-6)
        t_a = max(self.active_length_predictor.predict(), 1e-6)
        problem = SlotProblem(
            t_idle=t_i,
            t_active=t_a,
            i_idle=start.i_idle,
            i_active=self._estimated_active_current(),
            c_ini=start.storage_charge,
            c_end=self._c_target,
            c_max=self._c_max,
            sleeping=start.sleeping,
            **self._overheads(start.sleeping),
        )
        # Memoized: sweeps and Monte-Carlo runs re-pose identical slot
        # problems constantly, and the solver is pure (see runtime.memo).
        solution = solve_slot_memo(problem, self.model)
        self.solutions.append(solution)
        self._if_idle = solution.if_idle
        self._if_active = solution.if_active
        self._active_planned = False

    def output(self, ctx: SegmentContext) -> float:
        if ctx.phase == "idle":
            # Storage-saturation guard: when the idle ran far longer
            # than predicted the planned surplus has nowhere to go (the
            # storage is full and the bleeder would burn it) -- or, the
            # other way, a too-low plan has emptied the storage under a
            # higher-than-planned idle load.  Follow the load for the
            # rest of the period; on the paper's 8-20 s workloads the
            # guard fires rarely (a handful of slots per trace) with a
            # negligible fuel effect -- its purpose is heavy-tailed
            # workloads (see tests/workload/test_wlan.py).
            if (
                ctx.storage_charge >= 0.999 * ctx.storage_capacity
                and self._if_idle > ctx.i_load
            ):
                self.n_guard_activations += 1
                return self.model.clamp(ctx.i_load)
            if ctx.storage_charge <= 0.001 * ctx.storage_capacity and (
                self._if_idle < ctx.i_load
            ):
                self.n_guard_activations += 1
                return self.model.clamp(ctx.i_load)
            return self._if_idle
        if not self._active_planned:
            # Re-calculate IF,a from the actual active period (Section
            # 4.2): actual remaining demand and duration are known once
            # the task request arrives.
            if_a = (
                ctx.phase_demand + self._c_target - ctx.storage_charge
            ) / ctx.phase_duration
            self._if_active = self.model.clamp(if_a)
            self._active_planned = True
        return self._if_active

    def on_slot_end(self, actuals: SlotActuals) -> None:
        if self.observes_idle:
            self.idle_length_predictor.observe(actuals.t_idle)
        self.active_length_predictor.observe(actuals.t_active)
        self._active_current_sum += actuals.i_active
        self._active_current_n += 1

    def reset(self) -> None:
        self.idle_length_predictor.reset()
        self.active_length_predictor.reset()
        self._active_current_sum = 0.0
        self._active_current_n = 0
        self._if_idle = self.model.if_min
        self._if_active = self.model.if_min
        self._active_planned = False
        self.solutions.clear()
        self.n_guard_activations = 0

    def commit_kernel_run(
        self,
        n_slots: int,
        *,
        if_idle: float,
        if_active: float,
        active_planned: bool,
        active_current_sum: float,
        active_current_n: int,
        solutions,
        n_guards: int,
        active_commit: tuple,
        idle_commit: tuple | None,
        frozen_idle_estimate: float | None,
    ) -> None:
        """Commit the end state of a compiled kernel pass in one shot.

        The vectorized kernels (``sim.vectorized._run_fc`` per trace,
        ``sim.stacked._run_fc_stacked`` per batch row) integrate a whole
        run without touching the controller, then call this with exactly
        the values the sequential ``on_idle_start`` / ``output`` /
        ``on_slot_end`` protocol would have left behind.  ``*_commit``
        are ``(observations, predictions, final_estimate)`` triples for
        :meth:`~repro.prediction.exponential.ExponentialAveragePredictor
        .commit_scan`; ``idle_commit`` is None when this controller does
        not observe idle lengths, in which case a non-None
        ``frozen_idle_estimate`` replays the frozen predictor's last
        ``predict()`` bookkeeping (None when the device policy already
        feeds the shared predictor).
        """
        if n_slots:
            self._if_idle = if_idle
            self._if_active = if_active
            self._active_planned = active_planned
        self._active_current_sum = active_current_sum
        self._active_current_n = active_current_n
        self.solutions.extend(solutions)
        self.n_guard_activations += n_guards
        self.active_length_predictor.commit_scan(*active_commit)
        if idle_commit is not None:
            self.idle_length_predictor.commit_scan(*idle_commit)
        elif frozen_idle_estimate is not None and n_slots:
            # Frozen predictor: predict() still remembered its estimate.
            self.idle_length_predictor._remember(frozen_idle_estimate)
