"""DPM-enabled device model (paper Table 1 parameters).

:class:`DeviceParams` is the bundle of currents and transition overheads
the optimization framework consumes (Section 3.3.2); :class:`DPMDevice`
is the stateful device the simulator drives through RUN / STANDBY /
SLEEP, accounting for transition latency and charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import units
from ..errors import ConfigurationError
from .states import PowerState, PowerStateMachine, Transition, break_even_time


@dataclass(frozen=True)
class DeviceParams:
    """Electrical parameters of a three-state DPM device.

    All currents are on the regulated 12 V rail (amperes); times in
    seconds.  Matches paper Table 1.

    Attributes
    ----------
    i_run:
        Default RUN (active) current; task slots may override it.
    i_sdb, i_slp:
        STANDBY / SLEEP currents (``Isdb``, ``Islp``).
    t_pd, t_wu:
        SLEEP entry / exit latencies (``tau_PD``, ``tau_WU``).
    i_pd, i_wu:
        Currents during SLEEP entry / exit (``IPD``, ``IWU``).
    t_sdb_to_run, t_run_to_sdb:
        STANDBY <-> RUN latencies; the paper absorbs these into the
        active period (Section 3.3.2 assumption 2) with RUN current.
    t_be:
        DPM break-even time; if ``None`` it is derived with
        :func:`~repro.devices.states.break_even_time`.
    v_rail:
        Rail voltage used when constructing from powers.
    """

    i_run: float
    i_sdb: float
    i_slp: float
    t_pd: float = 0.0
    t_wu: float = 0.0
    i_pd: float = 0.0
    i_wu: float = 0.0
    t_sdb_to_run: float = 0.0
    t_run_to_sdb: float = 0.0
    t_be: float | None = None
    v_rail: float = 12.0

    def __post_init__(self) -> None:
        # ``not 0 <= x < inf`` also rejects NaN, which every ordered
        # comparison lets through.
        names = ("i_run", "i_sdb", "i_slp", "i_pd", "i_wu",
                 "t_pd", "t_wu", "t_sdb_to_run", "t_run_to_sdb")
        if self.t_be is not None:
            names += ("t_be",)
        for name in names:
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ConfigurationError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )
        if not 0 < self.v_rail < math.inf:
            raise ConfigurationError(
                f"v_rail must be finite and positive, got {self.v_rail!r}"
            )
        if self.i_slp > self.i_sdb:
            raise ConfigurationError("SLEEP must draw no more than STANDBY")

    @classmethod
    def from_powers(
        cls,
        p_run: float,
        p_sdb: float,
        p_slp: float,
        v_rail: float = 12.0,
        **kwargs,
    ) -> "DeviceParams":
        """Build from state powers (W) on a ``v_rail`` rail."""
        return cls(
            i_run=units.power_to_current(p_run, v_rail),
            i_sdb=units.power_to_current(p_sdb, v_rail),
            i_slp=units.power_to_current(p_slp, v_rail),
            v_rail=v_rail,
            **kwargs,
        )

    @property
    def break_even(self) -> float:
        """Effective break-even time ``Tbe`` (explicit or derived)."""
        if self.t_be is not None:
            return self.t_be
        if self.i_sdb == self.i_slp:
            return self.t_pd + self.t_wu
        return break_even_time(
            self.t_pd, self.t_wu, self.i_pd, self.i_wu, self.i_sdb, self.i_slp
        )

    @property
    def sleep_overhead_charge(self) -> float:
        """Charge of one full SLEEP round trip (A-s)."""
        return self.i_pd * self.t_pd + self.i_wu * self.t_wu

    def idle_charge(self, t_idle: float, sleep: bool) -> float:
        """Load charge (A-s) of an idle period of length ``t_idle``.

        With ``sleep=True`` the period hosts a SLEEP round trip: the
        power-down and wake-up intervals draw their own currents and the
        remainder sits at ``i_slp``.  Idle periods shorter than the
        transition latency cannot sleep.
        """
        if t_idle < 0:
            raise ConfigurationError("idle length cannot be negative")
        if not sleep:
            return self.i_sdb * t_idle
        overhead = self.t_pd + self.t_wu
        if t_idle < overhead:
            raise ConfigurationError(
                f"idle period {t_idle:.3f} s cannot host a "
                f"{overhead:.3f} s sleep transition"
            )
        return self.sleep_overhead_charge + self.i_slp * (t_idle - overhead)

    def state_machine(self) -> PowerStateMachine:
        """Materialize the Fig. 6 state machine for this parameter set."""
        return PowerStateMachine(
            state_currents={
                PowerState.RUN: self.i_run,
                PowerState.STANDBY: self.i_sdb,
                PowerState.SLEEP: self.i_slp,
            },
            transitions=[
                Transition(
                    PowerState.STANDBY, PowerState.RUN, self.t_sdb_to_run, self.i_run
                ),
                Transition(
                    PowerState.RUN, PowerState.STANDBY, self.t_run_to_sdb, self.i_run
                ),
                Transition(
                    PowerState.STANDBY, PowerState.SLEEP, self.t_pd, self.i_pd
                ),
                Transition(
                    PowerState.SLEEP, PowerState.STANDBY, self.t_wu, self.i_wu
                ),
            ],
            initial=PowerState.STANDBY,
        )


class DPMDevice:
    """Stateful three-state device driven by the simulator.

    Tracks cumulative load charge and time per state so simulations can
    report where the charge went.
    """

    def __init__(self, params: DeviceParams) -> None:
        self.params = params
        self.machine = params.state_machine()
        self.time_in_state: dict[PowerState, float] = {s: 0.0 for s in PowerState}
        self.charge_in_state: dict[PowerState, float] = {s: 0.0 for s in PowerState}
        self.transition_charge = 0.0
        self.transition_time = 0.0
        self.n_sleeps = 0

    @property
    def state(self) -> PowerState:
        """Present power state."""
        return self.machine.state

    def dwell(self, dt: float, current: float | None = None) -> float:
        """Stay in the present state for ``dt`` s; returns charge used.

        ``current`` overrides the state's default draw (RUN current is
        task dependent).
        """
        i = self.machine.current_of(self.state) if current is None else current
        self.time_in_state[self.state] += dt
        charge = i * dt
        self.charge_in_state[self.state] += charge
        return charge

    def move_to(self, target: PowerState) -> Transition:
        """Transition to ``target``, accounting overheads; returns the edge."""
        t = self.machine.move_to(target)
        self.transition_charge += t.charge
        self.transition_time += t.delay
        if target is PowerState.SLEEP:
            self.n_sleeps += 1
        return t

    @property
    def total_charge(self) -> float:
        """Total load charge so far, states + transitions (A-s)."""
        return sum(self.charge_in_state.values()) + self.transition_charge

    @property
    def total_time(self) -> float:
        """Total wall time so far, states + transitions (s)."""
        return sum(self.time_in_state.values()) + self.transition_time

    def reset(self) -> None:
        """Clear counters and return to the initial state."""
        self.machine.reset()
        self.time_in_state = {s: 0.0 for s in PowerState}
        self.charge_in_state = {s: 0.0 for s in PowerState}
        self.transition_charge = 0.0
        self.transition_time = 0.0
        self.n_sleeps = 0
