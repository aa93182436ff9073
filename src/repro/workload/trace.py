"""Task-slot load traces (paper Section 3.1).

The paper describes the load timing profile as "a sequence of task
slots; each task slot consists of an idle period (no task request)
followed by an active period (with task request)".  :class:`TaskSlot`
captures one such slot -- idle length ``Ti``, active length ``Ta`` and
the active-period load current ``Ild,a``.  The *idle* current is not a
trace property: it depends on the DPM decision (STANDBY vs SLEEP) and
comes from the device model.

:class:`LoadTrace` is an immutable sequence of slots with summary
statistics.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from ..errors import TraceError


@dataclass(frozen=True)
class TaskSlot:
    """One idle-then-active task slot.

    Attributes
    ----------
    t_idle:
        Idle-period length ``Ti`` (s).
    t_active:
        Active-period length ``Ta`` (s).
    i_active:
        Load current during the active period ``Ild,a`` (A).
    """

    t_idle: float
    t_active: float
    i_active: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.t_idle):
            raise TraceError(f"non-finite t_idle: {self.t_idle}")
        if not math.isfinite(self.t_active):
            raise TraceError(f"non-finite t_active: {self.t_active}")
        if not math.isfinite(self.i_active):
            raise TraceError(f"non-finite i_active: {self.i_active}")
        if self.t_idle < 0:
            raise TraceError(f"negative idle length: {self.t_idle}")
        if self.t_active <= 0:
            raise TraceError(f"active length must be positive: {self.t_active}")
        if self.i_active < 0:
            raise TraceError(f"negative active current: {self.i_active}")

    @property
    def length(self) -> float:
        """Total slot length ``Ti + Ta`` (s)."""
        return self.t_idle + self.t_active

    @property
    def active_charge(self) -> float:
        """Active-period load charge ``Ild,a * Ta`` (A-s)."""
        return self.i_active * self.t_active


class LoadTrace(Sequence[TaskSlot]):
    """An immutable sequence of task slots with summary statistics."""

    def __init__(self, slots: Iterable[TaskSlot], name: str = "trace") -> None:
        self._slots = tuple(slots)
        if not self._slots:
            raise TraceError("a trace needs at least one slot")
        self.name = name

    # -- sequence protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[TaskSlot]:
        return iter(self._slots)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return LoadTrace(self._slots[index], name=f"{self.name}[{index}]")
        return self._slots[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LoadTrace) and self._slots == other._slots

    def __hash__(self) -> int:
        return hash(self._slots)

    def __repr__(self) -> str:
        return (
            f"LoadTrace({self.name!r}, {len(self)} slots, "
            f"{self.duration:.1f} s)"
        )

    # -- statistics ---------------------------------------------------------

    @property
    def duration(self) -> float:
        """Total trace length (s)."""
        return sum(s.length for s in self._slots)

    @property
    def idle_time(self) -> float:
        """Total idle time (s)."""
        return sum(s.t_idle for s in self._slots)

    @property
    def active_time(self) -> float:
        """Total active time (s)."""
        return sum(s.t_active for s in self._slots)

    @property
    def duty_cycle(self) -> float:
        """Fraction of time spent active."""
        return self.active_time / self.duration

    @property
    def peak_current(self) -> float:
        """Largest active-period current in the trace (A)."""
        return max(s.i_active for s in self._slots)

    def mean_idle(self) -> float:
        """Mean idle-period length (s)."""
        return statistics.fmean(s.t_idle for s in self._slots)

    def mean_active(self) -> float:
        """Mean active-period length (s)."""
        return statistics.fmean(s.t_active for s in self._slots)

    def mean_active_current(self) -> float:
        """Time-weighted mean active current (A)."""
        return sum(s.active_charge for s in self._slots) / self.active_time

    def average_current(self, i_idle: float) -> float:
        """Whole-trace average load current given a flat idle current (A).

        Useful for sizing: the paper notes the FC can be sized for the
        *average* load once a hybrid buffer absorbs the peaks.
        """
        if i_idle < 0:
            raise TraceError("idle current cannot be negative")
        charge = sum(s.active_charge for s in self._slots) + i_idle * self.idle_time
        return charge / self.duration
