"""The ``PowerSource`` protocol: pluggable plants behind the power manager.

The paper evaluates one fixed plant -- a single FC system plus one
charge-storage element (:class:`~repro.power.hybrid.HybridPowerSource`).
Everything downstream of the plant (controllers, the simulator, the
metrics layer) only ever needs four things:

* command an output current (``set_fc_output``),
* integrate one constant-load interval (``step``),
* read the storage state (``storage.charge`` / ``storage.capacity``),
* read the conservation ledger (``total_fuel`` / ``total_load_charge``
  / ``bled`` / ``deficit``).

:class:`PowerSource` names that seam.  Concrete plants -- the reference
hybrid, :class:`~repro.power.multistack.MultiStackHybrid`, and
:class:`~repro.power.battery_only.BatteryOnlySource` -- implement a
single hook (:meth:`PowerSource._generate`) describing how the plant
produces current and burns fuel for one interval; the base class owns
the storage bookkeeping and the ledger, so the conservation math exists
exactly once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..errors import RangeError
from ..obs import OBS
from .storage import ChargeStorage


@dataclass(frozen=True)
class SourceStep:
    """Record of one constant-current interval of source operation."""

    #: Interval length (s).
    dt: float
    #: Embedded-system load current (A).
    i_load: float
    #: Source output current delivered toward the rail (A).
    i_f: float
    #: Fuel-rate current (A) -- total stack current; 0 for fuel-free sources.
    i_fc: float
    #: Fuel consumed this interval (stack A-s).
    fuel: float
    #: Signed storage charge change actually applied (A-s).
    storage_delta: float
    #: Charge dissipated in the bleeder this interval (A-s).
    bled: float
    #: Unmet load charge this interval (A-s); nonzero means brown-out.
    deficit: float
    #: Storage charge after the interval (A-s).
    storage_charge: float
    #: Per-generator output currents (A); one entry per FC stack, empty
    #: for sources without stacks.
    stack_currents: tuple[float, ...] = ()
    #: Which kind of plant produced this step ('hybrid', 'multi-stack',
    #: 'battery', ...) -- threaded into recorder samples for plotting.
    source_kind: str = ""


class PowerSource(ABC):
    """Abstract plant: generator(s) + charge storage + conservation ledger.

    Subclasses implement :meth:`_generate` (how much current the plant
    sources and what fuel that costs over ``dt``) and
    :meth:`set_fc_output` (how a commanded output current is realised).
    The base class integrates the storage, maintains the ledger the
    paper tabulates, and keeps the optional step history.
    """

    #: Short identifier recorded on every :class:`SourceStep`.
    kind: str = "source"

    def __init__(self, storage: ChargeStorage) -> None:
        self.storage = storage
        self.total_fuel = 0.0
        self.total_load_charge = 0.0
        self.total_time = 0.0
        self.total_delivered_charge = 0.0
        self.history: list[SourceStep] = []
        # One SourceStep per segment is unbounded memory over long
        # sweeps; everything the metrics layer needs lives in the
        # running ledger, so history stays off unless a consumer that
        # actually replays steps (the Recorder) switches it on.
        self.record_history = False

    # -- plant hooks --------------------------------------------------------

    @property
    @abstractmethod
    def v_out(self) -> float:
        """Regulated rail voltage the load charge is delivered at (V)."""

    @abstractmethod
    def set_fc_output(self, i_f: float, *, clamp: bool = True) -> float:
        """Command the plant output current; returns the value realised."""

    @abstractmethod
    def _generate(
        self, dt: float, strict_fuel: bool
    ) -> tuple[float, float, float, tuple[float, ...]]:
        """Produce current for ``dt`` seconds at the commanded setting.

        Returns ``(i_f, i_fc, fuel, stack_currents)``: the output current
        actually sourced, the total stack (fuel-rate) current, the fuel
        consumed (stack A-s), and the per-stack output currents.
        """

    # -- dynamics ------------------------------------------------------------

    def step(self, i_load: float, dt: float, *, strict_fuel: bool = True) -> SourceStep:
        """Advance ``dt`` seconds with constant load ``i_load`` (A).

        The plant holds its commanded output; the storage absorbs or
        sources the difference.  Returns the step ledger entry.
        """
        if i_load < 0:
            raise RangeError("load current cannot be negative")
        if dt < 0:
            raise RangeError("dt cannot be negative")

        i_f, i_fc, fuel, stack_currents = self._generate(dt, strict_fuel)

        bled_before = self.storage.bled_charge
        deficit_before = self.storage.deficit_charge
        delta = self.storage.step(i_f - i_load, dt)
        bled = self.storage.bled_charge - bled_before
        deficit = self.storage.deficit_charge - deficit_before

        self.total_fuel += fuel
        self.total_load_charge += i_load * dt
        self.total_time += dt
        self.total_delivered_charge += i_f * dt
        if OBS.enabled:
            OBS.metrics.counter("power.source.steps", kind=self.kind).inc()
            OBS.metrics.counter("power.source.delivered_charge").inc(i_f * dt)
            OBS.metrics.counter("power.source.fuel").inc(fuel)

        record = SourceStep(
            dt=dt,
            i_load=i_load,
            i_f=i_f,
            i_fc=i_fc,
            fuel=fuel,
            storage_delta=delta,
            bled=bled,
            deficit=deficit,
            storage_charge=self.storage.charge,
            stack_currents=stack_currents,
            source_kind=self.kind,
        )
        if self.record_history:
            self.history.append(record)
        return record

    # -- reporting -----------------------------------------------------------

    @property
    def delivered_energy(self) -> float:
        """Energy delivered to the load so far (J) at the regulated rail."""
        return self.v_out * self.total_load_charge

    @property
    def average_fuel_rate(self) -> float:
        """Mean stack current over the run (A)."""
        if self.total_time == 0:
            return 0.0
        return self.total_fuel / self.total_time

    def reset(self, storage_charge: float = 0.0) -> None:
        """Reset ledgers and storage for a fresh run."""
        self.total_fuel = 0.0
        self.total_load_charge = 0.0
        self.total_time = 0.0
        self.total_delivered_charge = 0.0
        self.history.clear()
        self.storage.reset(storage_charge)
