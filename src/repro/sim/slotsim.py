"""Slot-level trace simulator -- the paper's evaluation methodology.

Executes a :class:`~repro.workload.trace.LoadTrace` against a
:class:`~repro.core.manager.PowerManager`: for every task slot the
device-side DPM policy commits a sleep decision, the FC controller sets
the output current, and the power source integrates fuel and storage.

Timeline convention (documented in DESIGN.md): the trace's ``Ti`` is the
request-free interval.  A sleeping idle period is laid out as
``[power-down][sleep][wake-up]`` summing to ``Ti`` (the
device wakes exactly at the next request; the paper instead extends the
active period by ``tau_WU`` -- the charge accounting is identical, and
keeping slots equal-length lets all policies run the same wall clock).
The STANDBY<->RUN transitions are absorbed into the active period at the
slot's active current, as the paper does (Section 3.3.2, assumption 2).

:class:`SlotSimulator` is the repository's reference oracle: the array
kernels in :mod:`repro.sim.vectorized` must equal it bit for bit.  The
segment layout and integration math live in :mod:`repro.sim.integrator`;
this module only owns the closed-form slot scheduling.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat as _repeat
from typing import NamedTuple

import numpy as np

from ..core.baselines import SlotActuals, SlotStart
from ..core.manager import PowerManager
from ..errors import SimulationError
from ..obs import OBS
from ..workload.trace import LoadTrace
from .integrator import (
    SegmentIntegrator,
    plan_active_segments,
    plan_idle_segments,
)
from .metrics import RunMetrics
from .recorder import Recorder


class SlotResult(NamedTuple):
    """Outcome of one simulated task slot.

    A ``NamedTuple`` (not a frozen dataclass) because the scalar
    simulator creates one per task slot on every run.  The array kernels
    return :class:`SlotColumns` instead, which builds these rows only
    when a caller reads them.
    """

    index: int
    slept: bool
    aborted_sleep: bool
    fuel: float
    load_charge: float
    if_idle: float
    if_active: float
    storage_end: float


class SlotColumns(Sequence):
    """Read-only ``Sequence[SlotResult]`` over per-slot column arrays.

    The array kernels compute every per-slot field as a column over a
    whole batch.  A view holds those columns (``slept``,
    ``aborted_sleep``, ``fuel``, ``load_charge``, ``if_idle``,
    ``if_active``, ``storage_end``, in :class:`SlotResult` field order)
    plus the ``[lo, hi)`` row range of one run, so a batch of runs
    shares its columns instead of building one tuple per slot.  ``len``
    is O(1); the first index or iteration builds the run's
    ``SlotResult`` rows once through ``.tolist()`` (Python-native
    ``int`` / ``bool`` / ``float`` values, exactly as the scalar
    simulator reports them) and caches them.

    ``==`` compares column by column against another view and row by row
    against a ``list`` of ``SlotResult``, in either operand order, so a
    kernel result equals a ``SlotSimulator`` result.  Pickling ships only
    the view's own row range.  A view keeps its whole batch's columns
    alive for as long as it is referenced.
    """

    __slots__ = ("_columns", "_lo", "_hi", "_rows")

    def __init__(self, columns: tuple, lo: int, hi: int) -> None:
        self._columns = columns
        self._lo = lo
        self._hi = hi
        self._rows: list[SlotResult] | None = None

    def __len__(self) -> int:
        return self._hi - self._lo

    def _materialize(self) -> list[SlotResult]:
        rows = self._rows
        if rows is None:
            lo, hi = self._lo, self._hi
            # tuple.__new__ directly: SlotResult._make adds a Python
            # frame and a length check per row.  The zip of eight
            # equal-length columns makes the arity right by construction.
            rows = self._rows = list(
                map(
                    tuple.__new__,
                    _repeat(SlotResult),
                    zip(range(hi - lo), *(c[lo:hi].tolist() for c in self._columns)),
                )
            )
        return rows

    def __getitem__(self, index):
        return self._materialize()[index]

    def __iter__(self):
        return iter(self._materialize())

    def __eq__(self, other) -> bool:
        if isinstance(other, SlotColumns):
            if len(self) != len(other):
                return False
            return all(
                np.array_equal(a[self._lo : self._hi], b[other._lo : other._hi])
                for a, b in zip(self._columns, other._columns)
            )
        if isinstance(other, list):
            return len(self) == len(other) and self._materialize() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"SlotColumns(<{len(self)} slots>)"

    def __reduce__(self):
        lo, hi = self._lo, self._hi
        return (SlotColumns, (tuple(c[lo:hi] for c in self._columns), 0, hi - lo))


@dataclass
class SimulationResult:
    """Full outcome of one simulated trace."""

    name: str
    fuel: float
    load_charge: float
    delivered_charge: float
    duration: float
    bled: float
    deficit: float
    n_slots: int
    n_sleeps: int
    n_aborted_sleeps: int
    #: Total task-start delay from wake-up transitions (s).  Each slept
    #: idle period ends with a wake-on-request, so the task waits
    #: ``tau_WU``; DPM's energy/latency trade-off made explicit (the
    #: paper accounts the charge but not the delay).
    wakeup_latency: float = 0.0
    #: Per-slot outcomes: a list from the scalar simulator, a lazy
    #: :class:`SlotColumns` view from the array kernels (equal with ``==``).
    slots: Sequence[SlotResult] = field(default_factory=list)
    recorder: Recorder | None = None

    @property
    def mean_latency_per_request(self) -> float:
        """Average wake-up delay per task slot (s)."""
        if self.n_slots == 0:
            return 0.0
        return self.wakeup_latency / self.n_slots

    @property
    def metrics(self) -> RunMetrics:
        """Reduce to the comparison metrics used by Tables 2/3."""
        return RunMetrics(
            name=self.name,
            fuel=self.fuel,
            load_charge=self.load_charge,
            duration=self.duration,
            bled=self.bled,
            deficit=self.deficit,
        )

    @property
    def average_system_efficiency(self) -> float:
        """Delivered FC energy over Gibbs energy for the whole run."""
        if self.fuel == 0:
            return 0.0
        return self.delivered_charge / self.fuel  # both at 12 V & zeta folded


def check_run_limits(max_deficit_fraction: float) -> None:
    """Validate the deficit guard of a run.

    Written as ``not (x >= 0)`` so NaN fails too: a NaN guard would
    silently never fire.
    """
    if not max_deficit_fraction >= 0:
        raise SimulationError(
            f"max_deficit_fraction must be >= 0, got {max_deficit_fraction!r}"
        )


class SlotSimulator:
    """Runs task-slot traces against a power-manager configuration.

    Parameters
    ----------
    manager:
        Device parameters + DPM policy + FC controller + power source.
    record:
        Keep a :class:`~repro.sim.recorder.Recorder` time series
        (needed for Fig. 7; off by default to keep long sweeps cheap).
    max_deficit_fraction:
        Guardrail: raise :class:`~repro.errors.SimulationError` when the
        unserved load charge exceeds this fraction of the total load --
        it means the source is undersized for the workload and the
        resulting fuel numbers would be meaningless.
    """

    def __init__(
        self,
        manager: PowerManager,
        record: bool = False,
        max_deficit_fraction: float = 0.05,
    ) -> None:
        check_run_limits(max_deficit_fraction)
        self.manager = manager
        self.record = record
        self.max_deficit_fraction = max_deficit_fraction

    # -- execution ---------------------------------------------------------

    def run(self, trace: LoadTrace) -> SimulationResult:
        """Simulate the whole trace; returns the aggregated result."""
        mgr = self.manager
        source = mgr.source
        recorder = Recorder() if self.record else None
        if recorder is not None:
            # The recorder replays SourceStep entries into its time
            # series; history is otherwise off (see PowerSource).
            source.record_history = True
        integrator = SegmentIntegrator(mgr, recorder=recorder)

        integrator.start_run()

        n_sleeps = 0
        n_aborted = 0
        slot_results: list[SlotResult] = []
        # Hoisted once: enable state cannot change mid-run, and the
        # per-slot loop is the scalar path's hot loop.
        obs_on = OBS.enabled

        for index, slot in enumerate(trace):
            slot_span = (
                OBS.span("sim.slot", slot=index) if obs_on else None
            )
            t_sim_start = integrator.t_now
            idle_segments, slept, aborted = plan_idle_segments(
                mgr.device, slot.t_idle, mgr.policy.on_idle_start()
            )
            n_sleeps += slept
            n_aborted += aborted
            if obs_on:
                OBS.metrics.counter(
                    "dpm.decisions", slept="yes" if slept else "no"
                ).inc()
                if aborted:
                    OBS.metrics.counter("dpm.aborted_sleeps").inc()

            i_idle_nominal = mgr.device.i_slp if slept else mgr.device.i_sdb
            mgr.controller.on_idle_start(
                SlotStart(
                    slot_index=index,
                    sleeping=slept,
                    i_idle=i_idle_nominal,
                    storage_charge=source.storage.charge,
                )
            )

            slot_fuel = 0.0
            slot_load = 0.0
            if_idle_used = 0.0
            if_active_used = 0.0

            for phase, segments in (
                ("idle", idle_segments),
                ("active", plan_active_segments(mgr.device, slot)),
            ):
                steps = integrator.run_phase(index, phase, segments)
                for step in steps:
                    slot_fuel += step.fuel
                    slot_load += step.i_load * step.dt
                if steps:
                    if phase == "idle":
                        if_idle_used = steps[-1].i_f
                    else:
                        if_active_used = steps[-1].i_f

            mgr.policy.on_idle_end(slot.t_idle)
            mgr.controller.on_slot_end(
                SlotActuals(
                    slot_index=index,
                    t_idle=slot.t_idle,
                    t_active=slot.t_active,
                    i_active=slot.i_active,
                )
            )
            slot_results.append(
                SlotResult(
                    index=index,
                    slept=slept,
                    aborted_sleep=aborted,
                    fuel=slot_fuel,
                    load_charge=slot_load,
                    if_idle=if_idle_used,
                    if_active=if_active_used,
                    storage_end=source.storage.charge,
                )
            )
            if slot_span is not None:
                slot_span.set(
                    t_sim_start=t_sim_start,
                    t_sim_end=integrator.t_now,
                    slept=slept,
                    aborted=aborted,
                )
                slot_span.finish()

        threshold = source.total_load_charge * self.max_deficit_fraction
        if source.storage.deficit_charge > threshold:
            raise SimulationError(
                f"{mgr.name}: storage deficit "
                f"{source.storage.deficit_charge:.2f} A-s exceeds "
                f"{100 * self.max_deficit_fraction:.0f}% of load -- "
                "the source is undersized for this workload"
            )

        return SimulationResult(
            name=mgr.name,
            fuel=source.total_fuel,
            load_charge=source.total_load_charge,
            delivered_charge=source.total_delivered_charge,
            duration=integrator.t_now,
            bled=source.storage.bled_charge,
            deficit=source.storage.deficit_charge,
            n_slots=len(trace),
            n_sleeps=n_sleeps,
            n_aborted_sleeps=n_aborted,
            wakeup_latency=n_sleeps * mgr.device.t_wu,
            slots=slot_results,
            recorder=recorder,
        )


def simulate_policies(
    trace: LoadTrace,
    managers: list[PowerManager],
    record: bool = False,
) -> dict[str, SimulationResult]:
    """Run several manager configurations over the same trace.

    Each manager goes through :func:`repro.sim.vectorized.simulate_fast`,
    which uses the array kernel when the configuration is eligible and
    falls back to this scalar simulator otherwise (``record=True`` among
    them) -- the results equal a ``SlotSimulator`` run either way.
    """
    from .vectorized import simulate_fast

    return {mgr.name: simulate_fast(mgr, trace, record=record) for mgr in managers}
