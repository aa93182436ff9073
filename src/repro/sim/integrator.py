"""Shared segment layout and per-segment integration for every route.

The slot-level simulator (:mod:`repro.sim.slotsim`, the reference
oracle) and the array kernels (:mod:`repro.sim.vectorized`,
:mod:`repro.sim.stacked`) must not re-implement the ledger math.  This
module owns the single copy of

* the segment layout rules (how an idle period decomposes into
  standby / power-down / sleep / wake-up segments, and how STANDBY<->RUN
  overheads are absorbed into the active period -- the timeline
  convention documented in DESIGN.md), once per slot for the scalar
  simulator and once per slot *array* (:func:`plan_slot_arrays`) for
  the kernels, and
* the per-segment integration step (build the
  :class:`~repro.core.baselines.SegmentContext`, ask the controller for
  an output current, command the :class:`~repro.power.source.PowerSource`,
  integrate one interval, feed the recorder).

The simulator decides *when* a segment executes; the
:class:`SegmentIntegrator` decides what executing it means.  Because
every route shares these rules, the ledger property in
``tests/properties/test_property_sources.py`` checks the booked load
against device books computed from
:class:`~repro.devices.device.DeviceParams` alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..core.baselines import SegmentContext
from .recorder import Recorder, Sample

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.manager import PowerManager
    from ..devices.device import DeviceParams
    from ..power.source import SourceStep
    from ..workload.trace import TaskSlot


class Segment(NamedTuple):
    """One constant-load interval of the simulated timeline.

    A ``NamedTuple`` rather than a frozen dataclass: simulators create
    one per planned segment (hundreds per trace), and tuple construction
    is several times cheaper than ``object.__setattr__``-based frozen
    init -- it is the planners' hottest allocation.
    """

    #: Segment length (s).
    duration: float
    #: Load current during the segment (A).
    i_load: float
    #: 'standby' | 'pd' | 'sleep' | 'wu' | 'run'.
    kind: str


# -- segment layout ---------------------------------------------------------


def plan_idle_segments(
    device: "DeviceParams", t_idle: float, sleep: bool
) -> tuple[list[Segment], bool, bool]:
    """Lay out one idle period; returns ``(segments, slept, aborted)``.

    A sleeping idle period is ``[power-down][sleep][wake-up]`` summing
    to ``t_idle``; an idle period too short to host the committed sleep
    stays in STANDBY and counts as an aborted sleep.
    """
    if not sleep:
        return [Segment(t_idle, device.i_sdb, "standby")], False, False
    overhead = device.t_pd + device.t_wu
    if t_idle < overhead:
        # The idle period cannot host the committed sleep: the device
        # stays in STANDBY (counted as an aborted sleep).
        return [Segment(t_idle, device.i_sdb, "standby")], False, True
    segments = [Segment(device.t_pd, device.i_pd, "pd")]
    dwell = t_idle - overhead
    if dwell > 0:
        segments.append(Segment(dwell, device.i_slp, "sleep"))
    segments.append(Segment(device.t_wu, device.i_wu, "wu"))
    return segments, True, False


def plan_active_segments(device: "DeviceParams", slot: "TaskSlot") -> list[Segment]:
    """The active period with STANDBY<->RUN overheads absorbed.

    The transitions run at the slot's active current, as the paper does
    (Section 3.3.2, assumption 2).
    """
    duration = device.t_sdb_to_run + slot.t_active + device.t_run_to_sdb
    return [Segment(duration, slot.i_active, "run")]


def phase_totals(segments: list[Segment]) -> tuple[float, float]:
    """``(duration, load charge)`` of a phase -- the controller's lookahead."""
    return (
        sum(s.duration for s in segments),
        sum(s.duration * s.i_load for s in segments),
    )


def plan_slot_arrays(
    device: "DeviceParams",
    t_idle: np.ndarray,
    t_active: np.ndarray,
    i_active: np.ndarray,
    sleep: np.ndarray,
) -> dict[str, np.ndarray]:
    """Array-native segment layout: all slots at once, one device.

    The vectorized twin of :func:`plan_idle_segments` /
    :func:`plan_active_segments` -- the layout rules live here so the
    scalar planners above and every array planner stay single-sourced.
    Emits exactly the rows the scalar planners produce: per-slot segment
    counts give the bounds by cumsum, and each segment class (standby,
    pd, sleep dwell, wu, run) scatters into its column positions with
    one fancy assignment.

    The slots need not come from one trace: ``simulate_batch``'s stacked
    route concatenates every seed's slots and plans the whole batch in
    one call -- the layout is slot-local, so per-seed plans are slices
    of the returned columns.

    Returns a dict with keys ``duration``, ``i_load``, ``slot_bounds``,
    ``active_start``, ``slept``, ``aborted``.
    """
    n_slots = t_idle.shape[0]
    if n_slots == 0:
        empty = np.empty(0, dtype=float)
        return {
            "duration": empty,
            "i_load": empty.copy(),
            "slot_bounds": np.zeros(1, dtype=np.intp),
            "active_start": np.empty(0, dtype=np.intp),
            "slept": np.empty(0, dtype=bool),
            "aborted": np.empty(0, dtype=bool),
        }

    overhead = device.t_pd + device.t_wu
    aborted = sleep & (t_idle < overhead)
    slept = sleep & ~aborted
    dwell = t_idle - overhead
    has_dwell = slept & (dwell > 0)

    # Sleeping idle: [pd][sleep?][wu]; otherwise one standby.
    n_idle = np.where(slept, 2 + has_dwell.astype(np.intp), 1)
    slot_bounds = np.empty(n_slots + 1, dtype=np.intp)
    slot_bounds[0] = 0
    np.cumsum(n_idle + 1, out=slot_bounds[1:])
    starts = slot_bounds[:-1]
    active_start = starts + n_idle
    n_total = int(slot_bounds[-1])

    duration = np.empty(n_total, dtype=float)
    i_load = np.empty(n_total, dtype=float)

    standby = ~slept
    sb_idx = starts[standby]
    duration[sb_idx] = t_idle[standby]
    i_load[sb_idx] = device.i_sdb

    pd_idx = starts[slept]
    duration[pd_idx] = device.t_pd
    i_load[pd_idx] = device.i_pd

    dw_idx = (starts + 1)[has_dwell]
    duration[dw_idx] = dwell[has_dwell]
    i_load[dw_idx] = device.i_slp

    wu_idx = (active_start - 1)[slept]
    duration[wu_idx] = device.t_wu
    i_load[wu_idx] = device.i_wu

    duration[active_start] = (device.t_sdb_to_run + t_active) + device.t_run_to_sdb
    i_load[active_start] = i_active

    return {
        "duration": duration,
        "i_load": i_load,
        "slot_bounds": slot_bounds,
        "active_start": active_start,
        "slept": slept,
        "aborted": aborted,
    }


# -- integration ------------------------------------------------------------


class SegmentIntegrator:
    """Executes segments against one manager's controller + power source.

    Owns the simulation clock (``t_now``), the optional
    :class:`~repro.sim.recorder.Recorder`, and the one copy of the
    controller-query / source-step sequence.  Simulators call
    :meth:`integrate` per segment in whatever order their scheduling
    produces; :meth:`run_phase` is the convenience loop for schedulers
    that execute a whole phase back to back.
    """

    def __init__(self, manager: "PowerManager", recorder: Recorder | None = None) -> None:
        self.manager = manager
        self.recorder = recorder
        self.t_now = 0.0

    def start_run(self) -> None:
        """Announce the run to the controller (records ``Cini(1)``)."""
        source = self.manager.source
        self.manager.controller.start_run(
            source.storage.charge, source.storage.capacity
        )

    def integrate(
        self,
        slot_index: int,
        phase: str,
        segment: Segment,
        phase_duration: float,
        phase_demand: float,
    ) -> "SourceStep":
        """Execute one segment: query the controller, step the source.

        ``phase_duration`` / ``phase_demand`` are the remaining time and
        load charge of the current phase *including* this segment.
        """
        mgr = self.manager
        source = mgr.source
        ctx = SegmentContext(
            slot_index=slot_index,
            phase=phase,
            kind=segment.kind,
            duration=segment.duration,
            i_load=segment.i_load,
            storage_charge=source.storage.charge,
            storage_capacity=source.storage.capacity,
            phase_duration=phase_duration,
            phase_demand=phase_demand,
        )
        source.set_fc_output(mgr.controller.output(ctx))
        step = source.step(segment.i_load, segment.duration)
        if self.recorder is not None:
            self.recorder.add(
                Sample(
                    t=self.t_now,
                    dt=segment.duration,
                    i_load=segment.i_load,
                    i_f=step.i_f,
                    i_fc=step.i_fc,
                    storage_charge=source.storage.charge,
                    fuel_cumulative=source.total_fuel,
                    kind=segment.kind,
                    source_kind=step.source_kind,
                    stack_currents=step.stack_currents,
                )
            )
        self.t_now += segment.duration
        return step

    def run_phase(
        self, slot_index: int, phase: str, segments: list[Segment]
    ) -> list["SourceStep"]:
        """Execute a whole phase back to back; returns the step records."""
        remaining, demand = phase_totals(segments)
        steps = []
        for seg in segments:
            steps.append(self.integrate(slot_index, phase, seg, remaining, demand))
            remaining -= seg.duration
            demand -= seg.i_load * seg.duration
        return steps
