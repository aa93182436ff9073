"""Declarative experiment scenarios: name -> full configuration.

A :class:`Scenario` is a frozen, serializable description of one
experimental setup -- workload, device, DPM+FC policy, power source and
the constants that tie them together.  It replaces the ad-hoc
"keyword soup" that analysis code used to thread through
:class:`~repro.core.manager.PowerManager` construction: every layer
(CLI, sweeps, Monte-Carlo, result cache) can now speak one vocabulary,
and a cache key can name the configuration instead of guessing it from
call-site arguments.

The builders delegate to the exact factory functions the table
reproductions use (``PowerManager.conv_dpm`` & co.,
``generate_mpeg_trace``, ``experiment2_trace``), so a scenario-built run
is bit-identical to the corresponding hand-built one -- asserted by the
golden tests.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace

from ..config import Experiment1Constants, Experiment2Constants, FCSystemConstants
from ..core.manager import PowerManager
from ..devices.camcorder import camcorder_device_params, randomized_device_params
from ..devices.device import DeviceParams
from ..errors import ConfigurationError
from ..fuelcell.efficiency import LinearSystemEfficiency
from ..fuelcell.fuel import FuelTank, GibbsFuelModel
from ..fuelcell.system import FCSystem
from ..power.battery_only import BatteryOnlySource
from ..power.multistack import EfficiencyProportional, EqualShare, MultiStackHybrid
from ..power.storage import ChargeStorage, LiIonBattery, SuperCapacitor
from ..workload.mpeg import generate_mpeg_trace
from ..workload.synthetic import (
    experiment2_slot_arrays,
    experiment2_trace,
    fleet_slot_arrays,
    fleet_trace,
)
from ..workload.trace import LoadTrace

_WORKLOAD_KINDS = ("mpeg", "experiment2", "fleet")
_DEVICE_KINDS = ("camcorder", "randomized")
_POLICY_KINDS = ("conv-dpm", "asap-dpm", "fc-dpm")
_SOURCE_KINDS = ("hybrid", "multi-stack", "battery")
_STORAGE_KINDS = ("supercap", "liion")
_SHARING_KINDS = ("equal", "efficiency")


# Each spec check's message starts with the field name, so
# Scenario.from_dict can prefix the dotted path (``device.i_pd ...``).
def _check(value: str, allowed: tuple[str, ...], name: str) -> None:
    if value not in allowed:
        raise ConfigurationError(f"{name} {value!r} is not one of {allowed}")


def _check_finite(spec, *names: str) -> None:
    """Reject NaN and infinity in optional numeric fields, naming the field."""
    for name in names:
        value = getattr(spec, name)
        if value is not None and not -math.inf < value < math.inf:
            raise ConfigurationError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class WorkloadSpec:
    """Which trace generator feeds the run."""

    #: 'mpeg' (Experiment 1), 'experiment2' (randomized synthetic) or
    #: 'fleet' (experiment2 with per-device seed-offset jitter).
    kind: str = "mpeg"
    #: Trace length override (s) for the MPEG workload; None = paper's 28 min.
    duration_s: float | None = None
    #: Slot-count override for the experiment2/fleet workloads; None = constants'.
    n_slots: int | None = None
    #: Per-device workload heterogeneity (fleet only): every range bound
    #: scales by a deterministic per-seed factor in ``[1-jitter, 1+jitter]``.
    jitter: float = 0.25

    def __post_init__(self) -> None:
        _check(self.kind, _WORKLOAD_KINDS, "kind")
        if self.duration_s is not None and not 0 < self.duration_s < math.inf:
            raise ConfigurationError(
                f"duration_s must be finite and positive, got {self.duration_s!r}"
            )
        if self.n_slots is not None and not (
            self.n_slots >= 1 and float(self.n_slots).is_integer()
        ):
            raise ConfigurationError(
                f"n_slots must be an integer >= 1, got {self.n_slots!r}"
            )
        if not 0 <= self.jitter < 1:
            raise ConfigurationError(f"jitter must be in [0, 1), got {self.jitter!r}")


@dataclass(frozen=True)
class DeviceSpec:
    """Which device parameter set the DPM policy manages."""

    #: 'camcorder' (Experiment 1) or 'randomized' (Experiment 2).
    kind: str = "camcorder"
    #: SLEEP-transition current overrides (A); None = the kind's default.
    i_pd: float | None = None
    i_wu: float | None = None

    def __post_init__(self) -> None:
        _check(self.kind, _DEVICE_KINDS, "kind")
        _check_finite(self, "i_pd", "i_wu")


@dataclass(frozen=True)
class PolicySpec:
    """Joint DPM + FC-output policy configuration."""

    #: 'conv-dpm', 'asap-dpm' or 'fc-dpm'.
    kind: str = "fc-dpm"
    #: Idle-period exponential-average factor (the paper's ``rho``).
    rho: float = 0.5
    #: Active-current exponential-average factor (FC-DPM only).
    sigma: float = 0.5
    #: Constant future-active-current estimate (A); None = adaptive.
    active_current_estimate: float | None = None
    #: ASAP-DPM recharge threshold (fraction of storage capacity).
    recharge_threshold: float = 0.5

    def __post_init__(self) -> None:
        _check(self.kind, _POLICY_KINDS, "kind")
        _check_finite(self, "active_current_estimate")
        # The predictors' smoothing range and the ASAP controller's
        # threshold range, checked for every kind so a value no run
        # would accept is refused whichever policy the spec names.
        for name in ("rho", "sigma"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise ConfigurationError(f"{name} must be in [0, 1), got {value!r}")
        if not 0 <= self.recharge_threshold <= 1:
            raise ConfigurationError(
                f"recharge_threshold must be in [0, 1], got {self.recharge_threshold!r}"
            )


@dataclass(frozen=True)
class SourceSpec:
    """Which power-source plant serves the load."""

    #: 'hybrid' (paper), 'multi-stack' or 'battery'.
    kind: str = "hybrid"
    #: 'supercap' or 'liion' charge storage.
    storage_kind: str = "supercap"
    #: Storage capacity / initial charge (A-s).
    storage_capacity: float = 6.0
    storage_initial: float = 0.0
    #: Number of ganged FC systems (multi-stack only).
    n_stacks: int = 2
    #: Load-sharing rule for multi-stack: 'equal' or 'efficiency'.
    sharing: str = "equal"

    def __post_init__(self) -> None:
        _check(self.kind, _SOURCE_KINDS, "kind")
        _check(self.storage_kind, _STORAGE_KINDS, "storage_kind")
        _check(self.sharing, _SHARING_KINDS, "sharing")
        if self.kind == "multi-stack" and self.n_stacks < 1:
            raise ConfigurationError(
                f"n_stacks must be >= 1 for a multi-stack source, got {self.n_stacks!r}"
            )
        # The storage element's own ranges, written so NaN fails too.
        if not self.storage_capacity > 0:
            raise ConfigurationError(
                f"storage_capacity must be positive, got {self.storage_capacity!r}"
            )
        if not 0 <= self.storage_initial <= self.storage_capacity:
            raise ConfigurationError(
                f"storage_initial must be in [0, storage_capacity], "
                f"got {self.storage_initial!r}"
            )

    def build_storage(self) -> ChargeStorage:
        """Instantiate the configured charge-storage element."""
        if self.storage_kind == "liion":
            return LiIonBattery(
                capacity=self.storage_capacity, initial_charge=self.storage_initial
            )
        return SuperCapacitor(
            capacity=self.storage_capacity, initial_charge=self.storage_initial
        )


#: The nested spec type behind each ``Scenario`` field of that name.
_SPEC_TYPES = {
    "workload": WorkloadSpec,
    "device": DeviceSpec,
    "policy": PolicySpec,
    "source": SourceSpec,
}


@dataclass(frozen=True)
class Scenario:
    """A named, fully-specified experimental configuration.

    ``build_trace`` / ``build_device`` / ``build_manager`` turn the
    declaration into live objects; ``to_dict`` / ``from_dict`` round-trip
    it through plain JSON-able data (used by the result cache to key
    entries on the *configuration*, not the call site).
    """

    name: str
    description: str = ""
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    device: DeviceSpec = field(default_factory=DeviceSpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    source: SourceSpec = field(default_factory=SourceSpec)
    #: Default RNG seed (the paper's publication year, as everywhere).
    seed: int = 2007

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data form (stable keys; JSON-serializable)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Rebuild from :meth:`to_dict` output.

        Raises :class:`~repro.errors.ConfigurationError` naming every key
        that is not a field -- top-level, or dotted (``source.x``) inside
        a nested spec -- rather than dropping or tripping over it, and
        naming a rejected value by its dotted path (``device.i_pd``).
        """
        parts = {name: data.get(name, {}) for name in _SPEC_TYPES}
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        for name, part in parts.items():
            known = {f.name for f in fields(_SPEC_TYPES[name])}
            unknown += sorted(f"{name}.{key}" for key in set(part) - known)
        if unknown:
            raise ConfigurationError(f"unknown scenario keys {unknown}")
        specs = {}
        for name, part in parts.items():
            try:
                specs[name] = _SPEC_TYPES[name](**part)
            except ConfigurationError as exc:
                raise ConfigurationError(f"{name}.{exc}") from None
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            seed=data.get("seed", 2007),
            **specs,
        )

    # -- builders ----------------------------------------------------------

    def build_trace(self, seed: int | None = None) -> LoadTrace:
        """Generate the workload trace (``seed`` overrides the default)."""
        seed = self.seed if seed is None else seed
        if self.workload.kind == "mpeg":
            c = Experiment1Constants()
            duration = (
                c.duration_s
                if self.workload.duration_s is None
                else self.workload.duration_s
            )
            return generate_mpeg_trace(duration_s=duration, seed=seed)
        e = Experiment2Constants()
        if self.workload.kind == "fleet":
            return fleet_trace(
                constants=e,
                seed=seed,
                n_slots=self.workload.n_slots,
                jitter=self.workload.jitter,
            )
        return experiment2_trace(constants=e, seed=seed, n_slots=self.workload.n_slots)

    def build_slot_arrays(self, seeds):
        """Batched slot synthesis: ``(t_idle, t_active, i_active)`` arrays.

        One ``(len(seeds), n_slots)`` row per seed, bit-identical to the
        slot values of ``build_trace(seed)`` -- the whole batch in one
        RNG pass per seed plus vectorized transforms (see
        :func:`~repro.workload.synthetic.uniform_slot_arrays`).  Returns
        ``None`` for workloads without an array builder (mpeg's frame
        loop is stateful); callers fall back to per-seed
        :meth:`build_trace`.  The stacked batch kernel consumes these
        arrays directly, skipping ``TaskSlot`` construction entirely.
        """
        w = self.workload
        if w.kind == "experiment2":
            return experiment2_slot_arrays(seeds, n_slots=w.n_slots)
        if w.kind == "fleet":
            return fleet_slot_arrays(seeds, n_slots=w.n_slots, jitter=w.jitter)
        return None

    def build_device(self) -> DeviceParams:
        """Instantiate the device parameter set."""
        if self.device.kind == "camcorder":
            c = Experiment1Constants()
            return camcorder_device_params(
                i_pd=c.i_pd if self.device.i_pd is None else self.device.i_pd,
                i_wu=c.i_wu if self.device.i_wu is None else self.device.i_wu,
            )
        e = Experiment2Constants()
        if self.device.i_pd is not None:
            e = replace(e, i_pd=self.device.i_pd)
        if self.device.i_wu is not None:
            e = replace(e, i_wu=self.device.i_wu)
        return randomized_device_params(e)

    def build_manager(self) -> PowerManager:
        """Assemble the full :class:`~repro.core.manager.PowerManager`.

        Delegates to the ``PowerManager`` factory for the policy+
        controller wiring (so scenario-built hybrids are bit-identical
        to hand-built ones), then swaps in the alternative plant when
        the source spec asks for one.
        """
        dev = self.build_device()
        p, s = self.policy, self.source
        # A supercap hybrid goes through the factory's own storage
        # construction (the paper-faithful, bit-identical path); any
        # other storage element is built here and handed over.
        storage = None if s.storage_kind == "supercap" else s.build_storage()
        if p.kind == "conv-dpm":
            mgr = PowerManager.conv_dpm(
                dev,
                storage=storage,
                storage_capacity=s.storage_capacity,
                storage_initial=s.storage_initial,
                rho=p.rho,
            )
        elif p.kind == "asap-dpm":
            mgr = PowerManager.asap_dpm(
                dev,
                storage=storage,
                storage_capacity=s.storage_capacity,
                storage_initial=s.storage_initial,
                rho=p.rho,
                recharge_threshold=p.recharge_threshold,
            )
        else:
            mgr = PowerManager.fc_dpm(
                dev,
                storage=storage,
                storage_capacity=s.storage_capacity,
                storage_initial=s.storage_initial,
                rho=p.rho,
                sigma=p.sigma,
                active_current_estimate=p.active_current_estimate,
            )
        if s.kind == "multi-stack":
            model = LinearSystemEfficiency.from_constants(FCSystemConstants())
            systems = [
                FCSystem(model, tank=FuelTank(model=GibbsFuelModel(zeta=model.zeta)))
                for _ in range(s.n_stacks)
            ]
            sharing = (
                EfficiencyProportional() if s.sharing == "efficiency" else EqualShare()
            )
            mgr.source = MultiStackHybrid(
                systems, storage=s.build_storage(), sharing=sharing
            )
        elif s.kind == "battery":
            mgr.source = BatteryOnlySource(s.build_storage())
        mgr.name = self.name
        return mgr
