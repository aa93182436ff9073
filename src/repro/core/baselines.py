"""FC output controllers: the protocol and the paper's two baselines.

A :class:`SourceController` decides the FC system output current for
every constant-load segment the simulator executes.  The paper compares
three controllers (Section 5):

* **Conv-DPM** (:class:`ConvDPMController`) -- no fuel-flow control; the
  FC permanently delivers the top of the load-following range.
* **ASAP-DPM** (:class:`ASAPDPMController`) -- the FC follows the load
  as closely as the range allows; the storage covers peaks above the
  range and is recharged at full output whenever it drops below half
  capacity.
* **FC-DPM** (:class:`repro.core.fc_dpm.FCDPMController`) -- the paper's
  contribution, in its own module.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..fuelcell.efficiency import SystemEfficiencyModel


@dataclass(frozen=True)
class SlotStart:
    """Context handed to the controller when an idle period begins."""

    slot_index: int
    #: Whether the device will SLEEP this idle period.
    sleeping: bool
    #: Nominal idle load current ``Ild,i`` (Islp when sleeping else Isdb).
    i_idle: float
    #: Storage charge right now (A-s).
    storage_charge: float


@dataclass(frozen=True)
class SegmentContext:
    """Context for one constant-load segment about to execute."""

    slot_index: int
    #: 'idle' or 'active'.
    phase: str
    #: 'standby' | 'pd' | 'sleep' | 'wu' | 'run'.
    kind: str
    #: Segment length (s).
    duration: float
    #: Load current during the segment (A).
    i_load: float
    #: Storage charge at segment start (A-s).
    storage_charge: float
    #: Storage capacity (A-s).
    storage_capacity: float
    #: Remaining duration of the current phase including this segment (s).
    phase_duration: float
    #: Remaining load charge of the current phase (A-s).
    phase_demand: float


@dataclass(frozen=True)
class SlotActuals:
    """Observed slot outcome, fed back for learning."""

    slot_index: int
    t_idle: float
    t_active: float
    i_active: float


class SourceController(ABC):
    """Decides the FC output for every segment of a simulated trace."""

    def __init__(self, model: SystemEfficiencyModel) -> None:
        self.model = model

    def start_run(self, storage_charge: float, storage_capacity: float) -> None:
        """Called once before the trace starts (records ``Cini(1)``)."""

    def on_idle_start(self, start: SlotStart) -> None:
        """Called when an idle period begins (before its first segment)."""

    @abstractmethod
    def output(self, ctx: SegmentContext) -> float:
        """FC system output current (A) to hold during ``ctx``."""

    def on_slot_end(self, actuals: SlotActuals) -> None:
        """Called after each slot with the observed timings/currents."""

    def reset(self) -> None:
        """Forget run state (controllers with learning also reset it)."""


class ConvDPMController(SourceController):
    """Conv-DPM: the FC always delivers ``IF_max`` (paper Section 5).

    "We apply the conventional DPM policy on the FC powered system
    without fuel flow control" -- the stack constantly sources the
    current corresponding to the highest load, ``Ifc = 1.3 A``.
    """

    def output(self, ctx: SegmentContext) -> float:
        return self.model.if_max


class ASAPDPMController(SourceController):
    """ASAP-DPM: load following plus half-capacity recharge.

    The FC output matches the load current clamped into the
    load-following range.  When the storage drops below
    ``recharge_threshold`` of capacity, the controller switches to full
    output "in the successive task slots" until the storage is full
    again (paper Section 5).
    """

    def __init__(
        self,
        model: SystemEfficiencyModel,
        recharge_threshold: float = 0.5,
        full_level: float = 1.0,
    ) -> None:
        super().__init__(model)
        if not 0 <= recharge_threshold <= full_level <= 1:
            raise ConfigurationError(
                "need 0 <= recharge_threshold <= full_level <= 1"
            )
        self.recharge_threshold = recharge_threshold
        self.full_level = full_level
        self._recharging = False

    @property
    def recharging(self) -> bool:
        """True while the controller is in forced-recharge mode."""
        return self._recharging

    def output(self, ctx: SegmentContext) -> float:
        if ctx.storage_capacity > 0:
            soc = ctx.storage_charge / ctx.storage_capacity
            if soc < self.recharge_threshold:
                self._recharging = True
            elif soc >= self.full_level:
                self._recharging = False
        if self._recharging:
            return self.model.if_max
        return self.model.clamp(ctx.i_load)

    def reset(self) -> None:
        self._recharging = False


class StaticController(SourceController):
    """Holds one fixed output forever (parameter-sweep instrument)."""

    def __init__(self, model: SystemEfficiencyModel, i_f: float) -> None:
        super().__init__(model)
        if not model.in_range(i_f):
            raise ConfigurationError(
                f"static output {i_f} A outside the load-following range"
            )
        self.i_f = i_f

    def output(self, ctx: SegmentContext) -> float:
        return self.i_f
