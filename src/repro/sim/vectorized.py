"""Vectorized trace simulation: ``simulate_fast`` / ``simulate_batch``.

The scalar simulator executes one Python call chain per segment
(``SegmentIntegrator.integrate`` -> ``PowerSource.step`` ->
``ChargeStorage.step``), allocating a frozen ``SourceStep`` each time.
For the paper's piecewise-constant traces the whole run is really three
array computations -- the fuel integral ``sum Ifc(IF) * T`` over
segments (Eqs. 3-4), a clamped cumulative sum for the storage, and
per-slot reductions -- which is what this module does:

1. :func:`plan_trace_arrays` compiles a trace into structure-of-arrays
   form through :func:`~repro.sim.integrator.plan_slot_arrays`, the
   array twin of the scalar segment planners, so the timeline
   convention stays single-sourced;
2. :meth:`~repro.fuelcell.efficiency.SystemEfficiencyModel.fuel_map_array`
   evaluates the fuel map over the whole command array at once;
3. :func:`clamped_cumsum` reproduces the
   :meth:`~repro.power.storage.ChargeStorage.step` saturation / bleed /
   deficit semantics with O(#clamp-events) array rescans;
4. :func:`simulate_fast` assembles a
   :class:`~repro.sim.slotsim.SimulationResult` **bit-identical** to
   ``SlotSimulator.run`` -- every arithmetic step replicates the
   scalar's IEEE-754 operation sequence exactly (seeded ``cumsum`` for
   running ledgers, elementwise closed forms for the fuel map, a
   sequential tail for clamp-heavy storage stretches), so equality is
   ``==``, not ``approx``.

Eligibility is conservative: the kernel runs only for the reference
hybrid plant (``HybridPowerSource`` + ``FCSystem`` + supercap/ideal
storage) under one of the controller types in
``_KERNEL_CONTROLLERS``, each of which has a dedicated pass.
Conv-DPM and the static sweep instrument hold one constant command
(:func:`_run_from_plan`); ASAP-DPM's storage-coupled recharge
hysteresis plays out over precomputed per-mode arrays
(:func:`_run_asap`); FC-DPM's learned inputs (the Eq. 14/15
exponential filters and the active-current running mean) are
scan-compiled up front so only the storage-coupled slot solves run
sequentially (:func:`_run_fc`).  Everything else -- any other
controller type (subclasses included), exotic plants, finite fuel
tanks, recording runs, manual ``record_history`` -- runs the scalar
:class:`~repro.sim.slotsim.SlotSimulator`: never a wrong answer, only a
slower one.  The route is a function of the configuration alone,
decided before any manager state is touched, so a kernel pass always
finishes once it starts.

:func:`simulate_batch` runs a multi-seed batch whose every policy is
stacked-eligible as one 2D sweep (:mod:`repro.sim.stacked`); anything
else is a per-(seed, policy) loop of :func:`simulate_fast` calls, so the
eligibility checks and the scalar fallbacks above exist once.  It also
fans seeds out across processes (``workers=``): the coordinator gathers
every seed's slot columns once, ships them through
``multiprocessing.shared_memory`` (:mod:`repro.runtime.shm`), and each
worker runs the in-process router on one contiguous row shard.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ..core.baselines import ASAPDPMController, ConvDPMController, StaticController
from ..core.fc_dpm import FCDPMController
from ..core.setting import SlotProblem
from ..dpm.predictive import PredictiveShutdownPolicy
from ..errors import ConfigurationError, SimulationError
from ..fuelcell.efficiency import SystemEfficiencyModel
from ..fuelcell.fuel import FuelTank
from ..fuelcell.system import FCSystem
from ..obs import OBS
from ..power.hybrid import HybridPowerSource
from ..power.storage import IdealStorage, SuperCapacitor
from ..prediction.exponential import (
    ExponentialAveragePredictor,
    exponential_average_scan,
)
from ..runtime.memo import solve_slot_memo
from ..runtime.parallel import ParallelMap, _chunk_slices, get_shared, resolve_workers
from ..runtime.shm import SharedArrayStore, attach_group
from .integrator import plan_slot_arrays
from .slotsim import SimulationResult, SlotColumns, SlotSimulator, check_run_limits

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.manager import PowerManager
    from ..scenario.spec import Scenario
    from ..workload.trace import LoadTrace

#: After this many storage clamp events the kernel stops rescanning
#: arrays and finishes the stretch with a compiled-float sequential
#: loop -- cheaper than per-event numpy work on clamp-heavy runs
#: (conv-dpm saturates the storage on a large fraction of segments).
_MAX_RESCANS = 8


# -- trace compilation -------------------------------------------------------


@dataclass(frozen=True)
class TraceArrays:
    """A whole trace compiled to structure-of-arrays form.

    One row per executed segment, in execution order; slot boundaries
    and the idle/active split are kept as index arrays so the kernel
    passes and the per-slot reductions can address segments without
    re-planning.  No pass reads a segment's kind or a remaining-phase
    lookahead (FC-DPM sums its active phase inline, as ``run_phase``
    does), so the plan carries neither.
    """

    #: Segment length (s), one per segment.
    duration: np.ndarray
    #: Load current (A), one per segment.
    i_load: np.ndarray
    #: Segment index where each slot starts; length ``n_slots + 1``.
    slot_bounds: np.ndarray
    #: Segment index where each slot's active phase starts.
    active_start: np.ndarray
    #: Per-slot sleep decision outcome (bool).
    slept: np.ndarray
    #: Per-slot aborted-sleep flag (bool).
    aborted: np.ndarray

    @property
    def n_segments(self) -> int:
        return self.duration.shape[0]

    @property
    def n_slots(self) -> int:
        return self.slot_bounds.shape[0] - 1

    # Policy-independent per-plan invariants.  A batch runs several
    # policies over one plan, so these are computed once and cached on
    # the instance (``cached_property`` writes the instance ``__dict__``
    # directly, which a frozen dataclass permits).

    @cached_property
    def load_charge_seg(self) -> np.ndarray:
        """Per-segment load charge ``i_load * duration`` (A-s)."""
        return self.i_load * self.duration

    @cached_property
    def duration_total(self) -> float:
        """Sequential (seeded-cumsum) total of ``duration``."""
        return float(_running_sums(0.0, self.duration)[-1])

    @cached_property
    def load_charge_total(self) -> float:
        """Sequential total of ``load_charge_seg``."""
        return float(_running_sums(0.0, self.load_charge_seg)[-1])

    @cached_property
    def slot_load_charge(self) -> np.ndarray:
        """Per-slot load charge, summed in segment order."""
        return _slot_sums(self, self.load_charge_seg)

    @cached_property
    def slot_index(self) -> np.ndarray:
        """Owning slot of each segment (the ``np.add.at`` scatter index)."""
        return np.repeat(np.arange(self.n_slots), np.diff(self.slot_bounds))

    @cached_property
    def slot_starts(self) -> np.ndarray:
        """First segment index of each slot (``slot_bounds[:-1]``)."""
        return self.slot_bounds[:-1]

    @cached_property
    def slot_ends(self) -> np.ndarray:
        """One-past-last segment index of each slot (``slot_bounds[1:]``)."""
        return self.slot_bounds[1:]

    @cached_property
    def n_sleeps(self) -> int:
        """Number of slots whose sleep decision was taken."""
        return int(np.count_nonzero(self.slept))

    @cached_property
    def n_aborted(self) -> int:
        """Number of aborted sleeps."""
        return int(np.count_nonzero(self.aborted))


def _slot_sums(plan: "TraceArrays", values: np.ndarray) -> np.ndarray:
    """Per-slot sums of a per-segment array, in scalar accumulation order.

    ``np.add.at`` accumulates unbuffered, applying the adds in index
    order -- each slot's sum is built left to right exactly like the
    scalar's per-slot ``+=`` loop.  (``np.add.reduceat`` is *not* a
    substitute: it reorders even four-element blocks on current numpy,
    observed one ulp off the sequential sum.)  The property suite
    checks the equality on randomized traces.
    """
    out = np.zeros(plan.n_slots)
    if plan.n_slots and plan.n_segments:
        np.add.at(out, plan.slot_index, values)
    return out


def replay_policy(policy: PredictiveShutdownPolicy, trace: "LoadTrace") -> np.ndarray:
    """Collect the per-slot sleep decisions by replaying the policy.

    The device-side policy is a pure function of the observed idle
    history (it never sees the power source), so firing
    ``on_idle_start`` / ``on_idle_end`` in slot order yields exactly the
    decisions -- and the same policy end state -- the scalar simulator
    produces while interleaving integration in between.

    :meth:`~repro.dpm.predictive.PredictiveShutdownPolicy.decisions_array`
    (the exponential-average predictor scan) skips the per-slot loop
    entirely; it owns the exact end-state commit and returns None
    whenever it cannot guarantee bit-exactness, falling back to the
    replay.  Returns one bool per slot.
    """
    sleep = policy.decisions_array([slot.t_idle for slot in trace])
    if sleep is not None:
        return sleep
    sleep = np.empty(len(trace), dtype=bool)
    for k, slot in enumerate(trace):
        sleep[k] = policy.on_idle_start()
        policy.on_idle_end(slot.t_idle)
    return sleep


def plan_trace_arrays(device, trace: "LoadTrace", sleep) -> TraceArrays:
    """Compile ``trace`` + the per-slot ``sleep`` mask into :class:`TraceArrays`.

    Extracts the slot columns and hands them to
    :func:`repro.sim.integrator.plan_slot_arrays` -- the layout rules
    stay single-sourced in :mod:`repro.sim.integrator`, so the segment
    layout is the scalar simulator's, row for row.
    """
    slots = list(trace)
    sleep = np.asarray(sleep, dtype=bool)
    n_slots = len(slots)
    if sleep.shape != (n_slots,):
        raise ConfigurationError(
            f"got {sleep.size} decisions for {n_slots} slots"
        )
    t_idle = np.array([s.t_idle for s in slots], dtype=float)
    t_active = np.array([s.t_active for s in slots], dtype=float)
    i_active = np.array([s.i_active for s in slots], dtype=float)
    return TraceArrays(
        **plan_slot_arrays(device, t_idle, t_active, i_active, sleep)
    )


# -- exact array kernels -----------------------------------------------------


def _running_sums(initial: float, values: np.ndarray) -> np.ndarray:
    """Sequential running sums: ``out[k] = initial + values[0] + ... + values[k-1]``.

    ``np.cumsum`` accumulates strictly left to right (``out[i] =
    out[i-1] + in[i]``), so seeding the first element with ``initial``
    reproduces a scalar ``+=`` loop bit for bit.  ``np.sum`` would not
    (pairwise summation).
    """
    out = np.empty(values.shape[0] + 1, dtype=float)
    out[0] = initial
    if values.shape[0]:
        seg = values.astype(float, copy=True)
        seg[0] += initial
        np.cumsum(seg, out=seg)
        out[1:] = seg
    return out


def clamped_cumsum(
    deltas: np.ndarray,
    initial: float,
    capacity: float,
    bled: float = 0.0,
    deficit: float = 0.0,
    max_rescans: int = _MAX_RESCANS,
) -> tuple[np.ndarray, float, float]:
    """Bounded-bucket recurrence over ``deltas``, exactly as the scalar.

    Reproduces :meth:`ChargeStorage._apply` semantics: the charge
    accumulates sequentially; overflow above ``capacity`` is bled and
    the level pins to ``capacity``; underflow below zero is recorded as
    deficit and the level pins to ``0.0``.  Returns ``(charges, bled,
    deficit)`` with ``charges[0] == initial`` and one entry per delta.

    Strategy: a seeded cumulative sum is bit-identical to the scalar
    ``+=`` loop *between* clamp events, so cumsum to the first
    violation, apply the scalar clamp arithmetic there, and resume.
    After ``max_rescans`` violations the remaining stretch runs as a
    plain sequential float loop, which beats per-event array rescans on
    clamp-heavy runs.
    """
    n = deltas.shape[0]
    charges = np.empty(n + 1, dtype=float)
    charges[0] = initial
    cur = float(initial)
    start = 0
    rescans = 0
    scratch = None
    while start < n and rescans < max_rescans:
        if scratch is None:
            # One scratch buffer serves every rescan: each pass copies
            # the remaining suffix into it instead of allocating a
            # fresh array per clamp event (O(n * rescans) churn on
            # clamp-heavy traces).
            scratch = np.empty(n, dtype=float)
        seg = scratch[: n - start]
        np.copyto(seg, deltas[start:])
        seg[0] += cur
        np.cumsum(seg, out=seg)
        bad = (seg > capacity) | (seg < 0.0)
        nbad = int(np.count_nonzero(bad))
        if not nbad:
            charges[start + 1 :] = seg
            return charges, bled, deficit
        k = int(np.argmax(bad))
        if k:
            charges[start + 1 : start + k + 1] = seg[:k]
        new = float(seg[k])
        if new > capacity:
            bled += new - capacity
            cur = capacity
        else:
            deficit += -new
            cur = 0.0
        charges[start + k + 1] = cur
        start += k + 1
        if nbad > max_rescans - rescans:
            # The unclamped trajectory violates the bounds more times
            # than there are rescans left -- a clamp-dense stretch.
            # Skip straight to the sequential tail instead of paying
            # an array copy + cumsum per clamp event (a density
            # heuristic: it only changes speed, never values).
            break
        rescans += 1
    if start < n:
        # List-accumulate then bulk-assign: per-element ndarray stores
        # would dominate this clamp-dense tail.
        tail = []
        tail_append = tail.append
        for delta in deltas[start:].tolist():
            new = cur + delta
            if new > capacity:
                bled += new - capacity
                cur = capacity
            elif new < 0.0:
                deficit += -new
                cur = 0.0
            else:
                cur = new
            tail_append(cur)
        charges[start + 1 :] = tail
    return charges, bled, deficit


def _realize_commands(fc: FCSystem, commands: np.ndarray) -> np.ndarray:
    """Vectorized ``FCSystem.set_output(cmd, clamp=True)`` per segment."""
    model = fc.model
    realized = np.minimum(np.maximum(commands, model.if_min), model.if_max)
    if fc.allow_zero_output:
        realized = np.where(commands == 0.0, 0.0, realized)
    return realized


def _fuel_currents(fc: FCSystem, realized: np.ndarray) -> np.ndarray:
    """Vectorized ``FCSystem.fc_current()``: the zero shortcut + fuel map."""
    i_fc = fc.model.fuel_map_array(realized)
    # FCSystem.fc_current returns exactly 0.0 for a zero setting even
    # when the model itself would not (e.g. composed models with fan
    # standby draw) -- mask after the map to match.
    return np.where(realized == 0.0, 0.0, i_fc)


def _storage_deltas(
    storage, i_f: np.ndarray, i_load: np.ndarray, durations: np.ndarray
) -> np.ndarray:
    """Per-segment signed charge delta, exactly as ``storage.step``."""
    raw = (i_f - i_load) * durations
    if type(storage) is SuperCapacitor:
        delta = np.where(raw > 0, raw * storage.coulombic_efficiency, raw)
        return delta - storage.leakage_current * durations
    return raw  # IdealStorage: step() applies current * dt unmodified


# -- eligibility -------------------------------------------------------------


#: Controller types with a kernel pass (1D here, 2D in
#: :mod:`repro.sim.stacked`).  Exact types on purpose: a subclass may
#: override any of the semantics a pass replicates, so it routes to the
#: scalar simulator.  A new controller gets kernel support by adding its
#: type here together with a dedicated pass.
_KERNEL_CONTROLLERS = (
    ConvDPMController,
    StaticController,
    ASAPDPMController,
    FCDPMController,
)


class Ineligibility(str):
    """Why a configuration cannot take a kernel: message plus metric label.

    The string itself is the human-readable message; ``label`` is the
    short slug counted on ``sim.fast_ineligible{reason=...}`` and
    ``sim.batch_ineligible{reason=...}``.  Each check states both
    together, so no table has to track the message wording.
    """

    label: str

    def __new__(cls, label: str, message: str) -> "Ineligibility":
        reason = super().__new__(cls, message)
        reason.label = label
        return reason


def fast_path_ineligibility(
    manager: "PowerManager", *, record: bool = False
) -> Ineligibility | None:
    """Why this configuration cannot take the array kernel (None = it can).

    The checks are exact-type on purpose: a subclass may override any
    of the semantics the kernel replicates, so it routes to the scalar
    simulator instead.  The answer depends on the configuration alone,
    never on how a run plays out, so callers decide the route once, up
    front; any non-None reason means "run the scalar simulator".
    """
    if record:
        return Ineligibility("record", "recording requested (Recorder consumes per-segment steps)")
    source = manager.source
    if type(source) is not HybridPowerSource:
        name = type(source).__name__
        return Ineligibility("source-type", f"source type {name} has no array kernel")
    fc = source.fc
    if type(fc) is not FCSystem:
        name = type(fc).__name__
        return Ineligibility("fc-type", f"FC system type {name} has no array kernel")
    if type(fc.tank) is not FuelTank:
        name = type(fc.tank).__name__
        return Ineligibility("tank-type", f"fuel tank type {name} has no array kernel")
    if math.isfinite(fc.tank.capacity):
        # The passes carry no depletion check: only the scalar simulator
        # raises DepletedError, at the exact segment it happens.
        return Ineligibility("finite-tank", "finite fuel tank (the kernels never deplete a tank)")
    if type(fc.model).clamp is not SystemEfficiencyModel.clamp:
        return Ineligibility("model-clamp", "efficiency model overrides clamp()")
    if type(source.storage) not in (SuperCapacitor, IdealStorage):
        name = type(source.storage).__name__
        return Ineligibility("storage-type", f"storage type {name} has no array kernel")
    if source.record_history:
        return Ineligibility("record-history", "source.record_history is enabled")
    controller = manager.controller
    if type(controller) not in _KERNEL_CONTROLLERS:
        name = type(controller).__name__
        return Ineligibility("controller-adaptive", f"controller {name} has no kernel pass")
    if type(controller) is not FCDPMController:
        return None
    idle_pred = controller.idle_length_predictor
    active_pred = controller.active_length_predictor
    if {type(idle_pred), type(active_pred)} != {ExponentialAveragePredictor}:
        return Ineligibility(
            "controller-predictor",
            "controller predictors are not scan-compilable (FC-DPM's fast path "
            "needs exact ExponentialAveragePredictor instances)",
        )
    # The predictor scans assume each predictor sees exactly one
    # predict/observe pair per slot.  That holds for the standard
    # wirings -- the controller observing its own idle predictor, or
    # sharing one instance with the paper's predictive-shutdown policy
    # (which then owns the observations) -- but not for double-fed or
    # untrackable aliasing, which routes scalar.
    policy_predictor = getattr(manager.policy, "predictor", None)
    shares_idle = policy_predictor is idle_pred
    if idle_pred is active_pred:
        coupling = "FC-DPM's idle and active predictors are the same instance"
    elif policy_predictor is active_pred:
        coupling = "the DPM policy shares FC-DPM's active-length predictor"
    elif shares_idle and controller.observes_idle:
        coupling = "the idle predictor is shared while observes_idle is on (double-fed per slot)"
    elif shares_idle and type(manager.policy) is not PredictiveShutdownPolicy:
        coupling = (
            f"the idle predictor is shared but policy type {type(manager.policy).__name__} "
            "does not pin one observation per slot"
        )
    else:
        return None
    return Ineligibility(
        "controller-coupling", f"controller/policy coupling has no scan form: {coupling}"
    )


# -- kernel passes -----------------------------------------------------------


@dataclass(frozen=True)
class _KernelRun:
    """Raw per-segment outputs of one kernel pass.

    ``i_f`` / ``i_fc`` are plain floats when ``const_i_f`` is set (a
    constant-output run): every consumer broadcasts them.
    """

    i_f: np.ndarray | float
    i_fc: np.ndarray | float
    fuel: np.ndarray
    charges: np.ndarray
    bled: float
    deficit: float
    #: Final ASAP recharge flag, or None for non-ASAP controllers.
    recharging: bool | None
    #: When every segment realized the same output, that value --
    #: assembly then broadcasts the per-slot gathers instead of
    #: indexing (conv-dpm / static runs are always constant).
    const_i_f: float | None = None


def _constant_command(controller) -> float:
    """The one command a constant-output controller (conv-dpm, static) holds."""
    if type(controller) is ConvDPMController:
        return float(controller.model.if_max)
    return float(controller.i_f)


def _realize_constant(fc: FCSystem, cmd: float) -> tuple[float, float]:
    """``(realized output, fuel current)`` for one command, as the scalar.

    The exact ``FCSystem.set_output(cmd, clamp=True)`` /
    ``fc_current()`` expressions, evaluated once for a command every
    segment shares.
    """
    model = fc.model
    if fc.allow_zero_output and cmd == 0.0:
        realized = 0.0
    else:
        realized = min(max(cmd, model.if_min), model.if_max)
    return realized, 0.0 if realized == 0.0 else model.fc_current(realized)


def _run_from_plan(manager: "PowerManager", plan: TraceArrays) -> _KernelRun:
    """Array pass for constant-command controllers (conv-dpm, static).

    Realizes and maps the one command with the exact scalar expressions,
    then broadcasts it.
    """
    source = manager.source
    fc = source.fc
    storage = source.storage
    # Python floats, not np.full arrays: every downstream use is a
    # broadcasting numpy expression, and a scalar broadcast is the
    # identical elementwise operation without the allocation.
    realized, i_fc = _realize_constant(fc, _constant_command(manager.controller))
    fuel = i_fc * plan.duration
    deltas = _storage_deltas(storage, realized, plan.i_load, plan.duration)
    charges, bled, deficit = clamped_cumsum(
        deltas,
        storage.charge,
        storage.capacity,
        bled=storage.bled_charge,
        deficit=storage.deficit_charge,
    )
    return _KernelRun(realized, i_fc, fuel, charges, bled, deficit, None, realized)


def _run_asap(manager: "PowerManager", plan: TraceArrays) -> _KernelRun:
    """Native pass for ASAP-DPM's storage-coupled recharge hysteresis.

    Both candidate modes (load-follow, full-output recharge) are
    precomputed as arrays; one sequential float pass then plays the
    scalar hysteresis -- per-segment ``soc = charge / capacity``
    compared against the thresholds *before* the segment integrates,
    exactly as ``ASAPDPMController.output`` does -- while applying the
    storage clamp arithmetic inline.
    """
    controller = manager.controller
    source = manager.source
    fc = source.fc
    storage = source.storage
    model = fc.model

    cmd_follow = np.minimum(np.maximum(plan.i_load, model.if_min), model.if_max)
    real_follow = _realize_commands(fc, cmd_follow)
    ifc_follow = _fuel_currents(fc, real_follow)
    fuel_follow = ifc_follow * plan.duration
    delta_follow = _storage_deltas(storage, real_follow, plan.i_load, plan.duration)

    real_re, ifc_re = _realize_constant(fc, model.if_max)
    # Scalars broadcast through every expression below -- same
    # elementwise arithmetic as materialized np.full columns.
    fuel_re = ifc_re * plan.duration
    delta_re = _storage_deltas(storage, real_re, plan.i_load, plan.duration)

    threshold = controller.recharge_threshold
    full_level = controller.full_level
    recharging = controller.recharging
    cap = storage.capacity
    cur = storage.charge
    bled = storage.bled_charge
    deficit = storage.deficit_charge

    # Plain Python lists in the loop: per-element ndarray writes cost
    # ~5x a list append, and this sequential pass is the asap kernel's
    # entire critical path.
    charge_l = [cur]
    charge_append = charge_l.append
    mode_l = []
    mode_append = mode_l.append
    d_fo = delta_follow.tolist()
    d_re = delta_re.tolist()
    has_cap = cap > 0
    for delta_fo, delta in zip(d_fo, d_re):
        if has_cap:
            soc = cur / cap
            if soc < threshold:
                recharging = True
            elif soc >= full_level:
                recharging = False
        if not recharging:
            delta = delta_fo
        new = cur + delta
        if new > cap:
            bled += new - cap
            cur = cap
        elif new < 0.0:
            deficit += -new
            cur = 0.0
        else:
            cur = new
        charge_append(cur)
        mode_append(recharging)

    charges = np.asarray(charge_l)
    mode = np.asarray(mode_l, dtype=bool)
    i_f = np.where(mode, real_re, real_follow)
    i_fc = np.where(mode, ifc_re, ifc_follow)
    fuel = np.where(mode, fuel_re, fuel_follow)
    return _KernelRun(i_f, i_fc, fuel, charges, bled, deficit, recharging)


def _fc_scan_seeds(manager: "PowerManager") -> tuple[float, float] | None:
    """Pre-replay predictor estimates for the FC-DPM pass, or None.

    Must be captured *before* :func:`replay_policy` runs: the default
    wiring shares one idle predictor between the device policy and the
    controller, and the replay advances it to its end state.  The
    controller's scans re-derive the per-slot predictions from these
    seeds instead.
    """
    controller = manager.controller
    if type(controller) is not FCDPMController:
        return None
    return (
        controller.idle_length_predictor.estimate,
        controller.active_length_predictor.estimate,
    )


def _run_fc(
    manager: "PowerManager",
    plan: TraceArrays,
    trace: "LoadTrace",
    seeds: tuple[float, float],
) -> _KernelRun:
    """Native pass for FC-DPM: scan-compiled predictors + live slot solver.

    The controller's only learned inputs -- the Hwang-Wu exponential
    filters (Eq. 14/15) and the active-current running mean -- depend on
    the trace alone, so both predictor series are compiled up front with
    :func:`~repro.prediction.exponential.exponential_average_scan`
    (bit-exact against the sequential predict/observe protocol).  What
    cannot be precomputed is the Section-3 slot solve: its ``c_ini`` is
    the live storage level, so one sequential pass per slot poses the
    exact :class:`~repro.core.setting.SlotProblem` the scalar controller
    poses -- hitting the same :func:`~repro.runtime.memo.solve_slot_memo`
    entries byte for byte -- and integrates the slot's segments with the
    storage-saturation guard, fuel draw, and clamp ledger inlined as
    compiled-float arithmetic.  Controller and predictor end state are
    committed in one shot after the walk.
    """
    controller = manager.controller
    source = manager.source
    fc = source.fc
    storage = source.storage
    fc_model = fc.model
    device = manager.device
    n_slots = plan.n_slots

    t_idles = [slot.t_idle for slot in trace]
    t_actives = [slot.t_active for slot in trace]
    i_actives = [slot.i_active for slot in trace]

    idle_pred = controller.idle_length_predictor
    active_pred = controller.active_length_predictor
    est_idle0, est_active0 = seeds
    policy_feeds_idle = getattr(manager.policy, "predictor", None) is idle_pred
    if controller.observes_idle or policy_feeds_idle:
        idle_preds, idle_final = exponential_average_scan(
            idle_pred.factor, est_idle0, t_idles
        )
    else:
        # Nobody observes the controller's idle predictor during the
        # run: it predicts its frozen pre-run estimate every slot.
        idle_preds = None
        idle_final = None
    active_preds, active_final = exponential_average_scan(
        active_pred.factor, est_active0, t_actives
    )
    # Problem columns, floored array-natively (np.maximum matches the
    # scalar max() bitwise here: no signed-zero tie against 1e-6).  A
    # frozen idle predictor contributes one constant, not a list.
    if idle_preds is None:
        ti_l = None
        ti_const = max(est_idle0, 1e-6)
    else:
        ti_l = np.maximum(idle_preds, 1e-6).tolist()
        ti_const = 0.0
    ta_l = np.maximum(active_preds, 1e-6).tolist()

    durs = plan.duration.tolist()
    loads = plan.i_load.tolist()
    bounds = plan.slot_bounds.tolist()
    astart = plan.active_start.tolist()
    slept_l = plan.slept.tolist()

    # Per-segment outputs accumulate in plain lists (the pass walks
    # segments strictly in order); bulk-converted to arrays at the end.
    if_l: list[float] = []
    ifc_l: list[float] = []
    fuel_l: list[float] = []
    if_append = if_l.append
    ifc_append = ifc_l.append
    fuel_append = fuel_l.append

    cap = storage.capacity
    hi_guard = 0.999 * cap
    lo_guard = 0.001 * cap
    cur = storage.charge
    charge_l = [cur]
    charge_append = charge_l.append
    bled = storage.bled_charge
    deficit = storage.deficit_charge

    allow_zero = fc.allow_zero_output
    if_min = fc_model.if_min
    if_max = fc_model.if_max
    fc_current = fc_model.fc_current
    model = controller.model
    clamp = model.clamp
    is_supercap = type(storage) is SuperCapacitor
    if is_supercap:
        ce = storage.coulombic_efficiency
        leak = storage.leakage_current

    c_target = controller._c_target  # set by start_run just before this pass
    c_max = controller._c_max
    est_fixed = controller.active_current_estimate
    fallback = controller.fallback_active_current
    acs = controller._active_current_sum
    acn = controller._active_current_n
    overheads = controller._overheads(True)
    i_sdb = device.i_sdb
    i_slp = device.i_slp

    # The active-current running mean (i_est at slot k uses the sum over
    # slots < k) depends on the trace alone: precompute the whole series
    # with a seeded cumsum that replays the scalar ``+=`` fold bit for bit.
    if n_slots:
        sums = _running_sums(acs, np.asarray(i_actives, dtype=float))
        acs_final = float(sums[-1])
    else:
        sums = None
        acs_final = acs
    if est_fixed is not None:
        est_l = None
    elif n_slots:
        counts = acn + np.arange(n_slots)
        with np.errstate(divide="ignore", invalid="ignore"):
            means = sums[:-1] / counts
        est_l = np.where(counts == 0, fallback, means).tolist()
    else:
        est_l = []

    solutions = []
    guards = 0
    if_idle_last = controller._if_idle
    if_active_last = controller._if_active
    last_planned = controller._active_planned

    for k in range(n_slots):
        sleeping = slept_l[k]
        problem = SlotProblem(
            t_idle=ti_const if ti_l is None else ti_l[k],
            t_active=ta_l[k],
            i_idle=i_slp if sleeping else i_sdb,
            i_active=est_fixed if est_l is None else est_l[k],
            c_ini=cur,
            c_end=c_target,
            c_max=c_max,
            sleeping=sleeping,
            **(overheads if sleeping else {}),
        )
        solution = solve_slot_memo(problem, model)
        solutions.append(solution)
        if_idle = solution.if_idle
        if_idle_last = if_idle
        if_active_last = solution.if_active
        last_planned = False

        for j in range(bounds[k], astart[k]):
            d = durs[j]
            i_l = loads[j]
            # Storage-saturation guard, exactly as FCDPMController.output.
            if (cur >= hi_guard and if_idle > i_l) or (
                cur <= lo_guard and if_idle < i_l
            ):
                guards += 1
                cmd = clamp(i_l)
            else:
                cmd = if_idle
            if allow_zero and cmd == 0.0:
                r = 0.0
                ifc_v = 0.0
            else:
                r = min(max(cmd, if_min), if_max)
                ifc_v = 0.0 if r == 0.0 else fc_current(r)
            fuel_j = ifc_v * d
            raw = (r - i_l) * d
            if is_supercap:
                delta = (raw * ce if raw > 0 else raw) - leak * d
            else:
                delta = raw
            new = cur + delta
            if new > cap:
                bled += new - cap
                cur = cap
            elif new < 0.0:
                deficit += -new
                cur = 0.0
            else:
                cur = new
            if_append(r)
            ifc_append(ifc_v)
            fuel_append(fuel_j)
            charge_append(cur)

        lo = astart[k]
        hi = bounds[k + 1]
        if lo < hi:
            # Sequential phase totals, as run_phase derives them.
            rem = 0.0
            dem = 0.0
            for j in range(lo, hi):
                rem += durs[j]
                dem += durs[j] * loads[j]
            # Section-4.2 re-plan from the actual active period; held
            # (constant command) for the rest of the phase.
            if_a = (dem + c_target - cur) / rem
            if_active_last = clamp(if_a)
            last_planned = True
            cmd = if_active_last
            if allow_zero and cmd == 0.0:
                r = 0.0
                ifc_v = 0.0
            else:
                r = min(max(cmd, if_min), if_max)
                ifc_v = 0.0 if r == 0.0 else fc_current(r)
            for j in range(lo, hi):
                d = durs[j]
                i_l = loads[j]
                fuel_j = ifc_v * d
                raw = (r - i_l) * d
                if is_supercap:
                    delta = (raw * ce if raw > 0 else raw) - leak * d
                else:
                    delta = raw
                new = cur + delta
                if new > cap:
                    bled += new - cap
                    cur = cap
                elif new < 0.0:
                    deficit += -new
                    cur = 0.0
                else:
                    cur = new
                if_append(r)
                ifc_append(ifc_v)
                fuel_append(fuel_j)
                charge_append(cur)

    # Commit the exact sequential end state in one shot.
    controller.commit_kernel_run(
        n_slots,
        if_idle=if_idle_last,
        if_active=if_active_last,
        active_planned=last_planned,
        active_current_sum=acs_final,
        active_current_n=acn + n_slots,
        solutions=solutions,
        n_guards=guards,
        active_commit=(t_actives, active_preds, active_final),
        idle_commit=(
            (t_idles, idle_preds, idle_final)
            if controller.observes_idle
            else None
        ),
        frozen_idle_estimate=None if policy_feeds_idle else est_idle0,
    )
    # (Shared-predictor wiring: replay_policy already committed it.)
    return _KernelRun(
        np.asarray(if_l),
        np.asarray(ifc_l),
        np.asarray(fuel_l),
        np.asarray(charge_l),
        bled,
        deficit,
        None,
    )


# -- result assembly ---------------------------------------------------------


def _assemble_result(
    manager: "PowerManager",
    plan: TraceArrays,
    run: _KernelRun,
    max_deficit_fraction: float,
) -> SimulationResult:
    """Reduce kernel arrays to a ``SimulationResult`` and commit end state.

    Every ledger is a *sequential* float reduction (seeded cumsum or a
    per-slot Python loop) so each total equals the scalar simulator's
    accumulated value bit for bit.  The manager is left in exactly the
    state ``SlotSimulator.run`` leaves it in -- including when the
    deficit guard fires, which the scalar raises only after the whole
    trace has integrated.
    """
    source = manager.source
    fc = source.fc
    storage = source.storage
    n = plan.n_segments
    n_slots = plan.n_slots

    load_seg = plan.load_charge_seg
    delivered_seg = run.i_f * plan.duration

    total_fuel = float(_running_sums(source.total_fuel, run.fuel)[-1])
    total_delivered = float(
        _running_sums(source.total_delivered_charge, delivered_seg)[-1]
    )
    # Equal starting ledgers accumulate identical sequences, so the
    # totals can be shared instead of re-summed (fresh managers always
    # start every ledger at 0.0 -- the common case; the plan caches the
    # zero-seeded totals across a batch's policies).
    duration = plan.duration_total
    if source.total_time == 0.0:
        total_time = duration
    else:
        total_time = float(_running_sums(source.total_time, plan.duration)[-1])
    if source.total_load_charge == 0.0:
        total_load = plan.load_charge_total
    else:
        total_load = float(
            _running_sums(source.total_load_charge, load_seg)[-1]
        )
    if fc.tank.consumed == source.total_fuel:
        consumed = total_fuel
    else:
        consumed = float(_running_sums(fc.tank.consumed, run.fuel)[-1])

    starts = plan.slot_starts
    ends = plan.slot_ends
    astart = plan.active_start
    # Per-slot sums accumulate in segment order exactly like the
    # scalar's += loop (see _slot_sums); the property suite checks the
    # equality on randomized traces.
    slot_fuel = _slot_sums(plan, run.fuel)
    if n == 0:
        if_idle = np.zeros(n_slots)
        if_active = if_idle
    elif run.const_i_f is not None:
        # Idle and active phases are both non-empty by construction,
        # so a constant-output run reports that output everywhere.
        if_idle = np.full(n_slots, run.const_i_f)
        if_active = if_idle
    else:
        # Idle phase is [start, astart), active is [astart, end); both
        # are non-empty by construction, but mirror the scalar's
        # "last executed segment, else 0.0" guards all the same.
        if_idle = np.where(astart > starts, run.i_f[np.maximum(astart - 1, 0)], 0.0)
        if_active = np.where(ends > astart, run.i_f[ends - 1], 0.0)
    slots = SlotColumns(
        (
            plan.slept,
            plan.aborted,
            slot_fuel,
            plan.slot_load_charge,
            if_idle,
            if_active,
            run.charges[ends],
        ),
        0,
        n_slots,
    )
    n_sleeps = plan.n_sleeps
    n_aborted = plan.n_aborted

    # Commit the manager end state before the deficit guard can raise,
    # mirroring the scalar path (which mutates throughout the run).
    if n:
        fc._i_f = (
            run.const_i_f if run.const_i_f is not None else float(run.i_f[-1])
        )
    fc.tank._consumed = consumed
    storage._charge = float(run.charges[-1])
    storage.bled_charge = run.bled
    storage.deficit_charge = run.deficit
    source.total_fuel = total_fuel
    source.total_load_charge = total_load
    source.total_time = total_time
    source.total_delivered_charge = total_delivered
    if run.recharging is not None:
        manager.controller._recharging = run.recharging

    threshold = source.total_load_charge * max_deficit_fraction
    if storage.deficit_charge > threshold:
        raise SimulationError(
            f"{manager.name}: storage deficit "
            f"{storage.deficit_charge:.2f} A-s exceeds "
            f"{100 * max_deficit_fraction:.0f}% of load -- "
            "the source is undersized for this workload"
        )

    return SimulationResult(
        name=manager.name,
        fuel=total_fuel,
        load_charge=total_load,
        delivered_charge=total_delivered,
        duration=duration,
        bled=run.bled,
        deficit=run.deficit,
        n_slots=plan.n_slots,
        n_sleeps=n_sleeps,
        n_aborted_sleeps=n_aborted,
        wakeup_latency=n_sleeps * manager.device.t_wu,
        slots=slots,
        recorder=None,
    )


def _simulate_fast_planned(
    manager: "PowerManager",
    trace: "LoadTrace",
    plan: TraceArrays,
    max_deficit_fraction: float,
    fc_seeds: tuple[float, float] | None = None,
) -> SimulationResult:
    """Kernel + assembly for an already-compiled plan (no eligibility).

    ``fc_seeds`` carries the FC-DPM predictor estimates captured before
    the policy replay (see :func:`_fc_scan_seeds`); required when the
    controller is an ``FCDPMController``.
    """
    source = manager.source
    controller = manager.controller
    controller.start_run(source.storage.charge, source.storage.capacity)
    controller_type = type(controller)
    if controller_type is ASAPDPMController:
        run = _run_asap(manager, plan)
    elif controller_type is FCDPMController:
        run = _run_fc(manager, plan, trace, fc_seeds)
    else:
        run = _run_from_plan(manager, plan)
    return _assemble_result(manager, plan, run, max_deficit_fraction)


# -- public API --------------------------------------------------------------


def simulate_fast(
    manager: "PowerManager",
    trace: "LoadTrace",
    *,
    record: bool = False,
    max_deficit_fraction: float = 0.05,
) -> SimulationResult:
    """Simulate ``trace`` under ``manager``: the vectorized drop-in.

    Returns a :class:`~repro.sim.slotsim.SimulationResult` equal (``==``,
    every field) to ``SlotSimulator(manager, ...).run(trace)`` and
    leaves the manager in the same end state.  Configurations the array
    kernel cannot represent -- controllers without a kernel pass,
    non-reference plants, finite fuel tanks, recording runs (see
    :func:`fast_path_ineligibility`) -- run the scalar simulator:
    never a wrong answer, only a slower one.  Re-decision chunking is a
    :class:`~repro.sim.slotsim.SlotSimulator` option only.
    """
    check_run_limits(max_deficit_fraction)
    reason = fast_path_ineligibility(manager, record=record)
    if reason is not None:
        if OBS.enabled:
            OBS.metrics.counter("sim.route", path="scalar").inc()
            OBS.metrics.counter("sim.fast_ineligible", reason=reason.label).inc()
        with OBS.span("sim.simulate", manager=manager.name, route="scalar"):
            return SlotSimulator(
                manager, record=record, max_deficit_fraction=max_deficit_fraction
            ).run(trace)
    with OBS.span("sim.simulate", manager=manager.name, route="fast"):
        fc_seeds = _fc_scan_seeds(manager)
        sleep = replay_policy(manager.policy, trace)
        plan = plan_trace_arrays(manager.device, trace, sleep)
        result = _simulate_fast_planned(
            manager, trace, plan, max_deficit_fraction, fc_seeds=fc_seeds
        )
        if OBS.enabled:
            OBS.metrics.counter("sim.route", path="fast").inc()
        return result


def check_policy_spec(spec) -> None:
    """Validate a ``simulate_batch`` policy spec; raises ``ConfigurationError``."""
    from ..scenario.spec import _POLICY_KINDS

    if not isinstance(spec, str):
        raise ConfigurationError(
            f"policy spec must be a string, got {type(spec).__name__}"
        )
    if spec.startswith("static:"):
        try:
            float(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigurationError(
                f"bad static policy spec {spec!r}; expected 'static:<IF amps>'"
            ) from None
        return
    if spec not in _POLICY_KINDS:
        raise ConfigurationError(
            f"unknown policy {spec!r}; expected one of {_POLICY_KINDS} "
            "or 'static:<IF amps>'"
        )


def _policy_manager(scenario: "Scenario", spec: str) -> "PowerManager":
    """Build the scenario's manager with its policy swapped to ``spec``.

    ``spec`` is a registered policy kind (``conv-dpm`` / ``asap-dpm`` /
    ``fc-dpm``) or ``static:<IF>`` -- a fixed FC setting riding on the
    conv-dpm device policy.  The manager is renamed to the spec so batch
    results key on the policy, not the scenario.
    """
    from dataclasses import replace

    check_policy_spec(spec)
    if spec.startswith("static:"):
        i_f = float(spec.split(":", 1)[1])
        base = replace(scenario, policy=replace(scenario.policy, kind="conv-dpm"))
        mgr = base.build_manager()
        # StaticController validates the range (ConfigurationError if not).
        mgr.controller = StaticController(mgr.controller.model, i_f)
    else:
        mgr = replace(
            scenario, policy=replace(scenario.policy, kind=spec)
        ).build_manager()
    mgr.name = spec
    return mgr


# -- parallel batch ----------------------------------------------------------


def _batch_shard_worker(
    rows: tuple[int, int],
) -> dict[int, dict[str, SimulationResult]]:
    """One contiguous row shard of a batch, through the in-process router.

    Module-level so the process pool can pickle it.  Slices the shard's
    rows out of the slot columns the coordinator shipped in shared
    memory and hands them to :func:`_route_batch` as they are: the same
    stacked-or-loop routing a serial batch of these seeds takes, with
    no trace rebuilt for the stacked route.
    """
    from .stacked import _BatchSlots

    payload = get_shared()
    cols = attach_group(payload["slots"])
    lo, hi = rows
    offsets = cols["offsets"][lo : hi + 1]
    first, last = int(offsets[0]), int(offsets[-1])
    slots = _BatchSlots.from_flat(
        offsets - first,
        cols["t_idle"][first:last],
        cols["t_active"][first:last],
        cols["i_active"][first:last],
    )
    return _route_batch(
        payload["scenario"],
        payload["seeds"][lo:hi],
        payload["specs"],
        max_deficit_fraction=payload["max_deficit_fraction"],
        slots=slots,
    )


def _simulate_batch_parallel(
    scenario: "Scenario",
    seed_list: list[int],
    specs: list[str],
    *,
    traces: dict | None,
    max_deficit_fraction: float,
    workers: int,
) -> dict[int, dict[str, SimulationResult]]:
    """Run one batch as contiguous row shards, one per worker.

    The coordinator gathers every seed's slot columns once (batched
    synthesis, or the caller's ``traces`` with the missing seeds
    synthesized; see :func:`~repro.sim.stacked._gather_batch_slots`)
    and packs them into one shared-memory group.  Workers receive the
    scenario, the specs and a small array handle, and each runs
    :func:`_batch_shard_worker` on its shard.  Shards merge in row
    order, and a raised error surfaces from the earliest failing shard,
    so results and errors equal a ``workers=1`` run.
    :class:`~repro.runtime.shm.SharedArrayStore` falls back to inline
    pickling where shared memory is unavailable, and
    :class:`~repro.runtime.parallel.ParallelMap` falls back to serial
    execution on pool failures.  The segment is unlinked in a
    ``finally``, so no ``/dev/shm`` entry outlives the call.
    """
    from .stacked import _gather_batch_slots

    slots = _gather_batch_slots(scenario, seed_list, traces)
    store = SharedArrayStore.create(
        {
            "slots": {
                "offsets": slots.offsets,
                "t_idle": slots.t_idle,
                "t_active": slots.t_active,
                "i_active": slots.i_active,
            }
        }
    )
    payload = {
        "scenario": scenario,
        "seeds": seed_list,
        "specs": specs,
        "max_deficit_fraction": max_deficit_fraction,
        "slots": store.handles["slots"],
    }
    shards = _chunk_slices(len(seed_list), workers)
    try:
        parts = ParallelMap(workers=len(shards)).map(
            _batch_shard_worker, shards, shared=payload
        )
    finally:
        store.dispose()
    results: dict[int, dict[str, SimulationResult]] = {}
    for part in parts:
        results.update(part)
    return results


def _seed_list(seeds) -> list[int]:
    """The batch's seeds as ints; ``ConfigurationError`` names a bad one.

    A seed must be a non-negative integer (NumPy integers included).
    Floats, strings and negative values are refused rather than
    truncated or left to the RNG to reject.
    """
    out = []
    for seed in seeds:
        try:
            value = operator.index(seed)
        except TypeError:
            value = None
        if value is None or value < 0:
            raise ConfigurationError(
                f"simulate_batch seeds must be non-negative integers, "
                f"got {seed!r}"
            )
        out.append(value)
    return out


def _reject_duplicates(values: list, plural: str, key: str) -> None:
    """Raise ``ConfigurationError`` naming any repeated batch key."""
    if len(set(values)) != len(values):
        dupes = sorted({v for v in values if values.count(v) > 1})
        raise ConfigurationError(
            f"simulate_batch got duplicate {plural} {dupes}: results are "
            f"keyed by {key}, so repeated {plural} would silently collapse"
        )


def simulate_batch(
    scenario: "Scenario | str",
    seeds,
    policies=None,
    *,
    traces: dict | None = None,
    max_deficit_fraction: float = 0.05,
    workers: int | None = 1,
) -> dict[int, dict[str, SimulationResult]]:
    """Monte-Carlo sweep: every (seed, policy) run of one scenario.

    Parameters
    ----------
    scenario:
        A :class:`~repro.scenario.spec.Scenario` or a registered name.
    seeds:
        Trace seeds: non-negative integers, non-empty and free of
        duplicates (results are keyed by seed, so a repeated seed would
        silently collapse).
    policies:
        A list of policy specs (see :func:`_policy_manager`), free of
        duplicates for the same reason as ``seeds``; defaults to the
        scenario's own policy kind.  A bare string is rejected rather
        than iterated character by character.
    traces:
        Optional pre-built ``{seed: LoadTrace}``; seeds not present are
        generated from the scenario.  Lets callers amortize trace
        synthesis (the dominant per-seed cost) across both paths.
    max_deficit_fraction:
        Deficit guard, as in :class:`~repro.sim.slotsim.SlotSimulator`.
    workers:
        Process fan-out over seeds.  The default ``1`` runs in-process;
        ``None``/``0`` uses every available core.  With more than one
        worker (and seed) the batch splits into one contiguous row
        shard per worker (:func:`_simulate_batch_parallel`): the slot
        columns ride shared memory to the workers, and each worker
        routes its shard exactly as an in-process batch would.

    Routing is the code's choice, never the caller's.  A multi-seed
    batch whose every spec is stacked-eligible runs as one sweep of the
    stacked 2D kernel (:mod:`~repro.sim.stacked`).  A single seed, or a
    batch with an ineligible spec (counted per spec under
    ``sim.batch_ineligible``), takes the per-seed loop: one
    :func:`simulate_fast` call per (seed, policy) on a freshly built
    manager, which picks the kernel or
    :class:`~repro.sim.slotsim.SlotSimulator` for that cell.

    Returns ``{seed: {policy_spec: SimulationResult}}``.  Results, and
    the ``SimulationError`` a too-small plant raises, equal a fresh
    ``SlotSimulator`` run per (seed, policy), seed-major, at any worker
    count.
    """
    from ..scenario import get_scenario

    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    seed_list = _seed_list(seeds)
    if not seed_list:
        raise ConfigurationError("simulate_batch needs at least one seed")
    _reject_duplicates(seed_list, "seeds", "seed")
    if isinstance(policies, str):
        raise ConfigurationError(
            f"simulate_batch policies must be a list of policy specs, got the "
            f"bare string {policies!r}; pass [{policies!r}]"
        )
    specs = list(policies) if policies is not None else [scenario.policy.kind]
    if not specs:
        raise ConfigurationError("simulate_batch needs at least one policy")
    for spec in specs:
        check_policy_spec(spec)
    _reject_duplicates(specs, "policies", "policy")
    check_run_limits(max_deficit_fraction)
    n_workers = resolve_workers(workers)
    if n_workers > 1 and len(seed_list) > 1:
        with OBS.span(
            "sim.batch",
            scenario=scenario.name,
            n_seeds=len(seed_list),
            n_policies=len(specs),
            workers=n_workers,
            route="parallel",
        ):
            if OBS.enabled:
                OBS.metrics.counter("sim.batch_route", path="parallel").inc()
            return _simulate_batch_parallel(
                scenario,
                seed_list,
                specs,
                traces=traces,
                max_deficit_fraction=max_deficit_fraction,
                workers=n_workers,
            )

    return _route_batch(
        scenario,
        seed_list,
        specs,
        max_deficit_fraction=max_deficit_fraction,
        traces=traces,
    )


def _route_batch(
    scenario: "Scenario",
    seed_list: list[int],
    specs: list[str],
    *,
    max_deficit_fraction: float,
    traces: dict | None = None,
    slots=None,
) -> dict[int, dict[str, SimulationResult]]:
    """The in-process batch router behind :func:`simulate_batch`.

    Takes validated arguments.  The seeds' slots come from ``slots`` (a
    parallel shard's gathered ``_BatchSlots``) when given, otherwise
    from ``traces`` and the scenario.
    """
    results: dict[int, dict[str, SimulationResult]] = {}
    with OBS.span(
        "sim.batch",
        scenario=scenario.name,
        n_seeds=len(seed_list),
        n_policies=len(specs),
    ) as span:
        if len(seed_list) > 1:
            # Stacked 2D route: one kernel sweep over the whole batch.
            # Imported lazily -- sim.stacked imports this module.
            from .stacked import simulate_batch_stacked, stacked_batch_ineligibility

            managers = {spec: _policy_manager(scenario, spec) for spec in specs}
            reasons = {}
            for spec in specs:
                reason = stacked_batch_ineligibility(managers[spec])
                if reason is not None:
                    reasons[spec] = reason
            if not reasons:
                return simulate_batch_stacked(
                    scenario,
                    seed_list,
                    specs,
                    managers,
                    max_deficit_fraction=max_deficit_fraction,
                    traces=traces,
                    span=span,
                    slots=slots,
                )
            # Fall back to the per-seed loop, one reason count per
            # ineligible spec plus the rows that fell back.
            span.set(route="loop", fallback_rows=len(seed_list))
            if OBS.enabled:
                OBS.metrics.counter("sim.batch_route", path="loop").inc()
                for reason in reasons.values():
                    OBS.metrics.counter(
                        "sim.batch_ineligible", reason=reason.label
                    ).inc()
                OBS.metrics.counter("sim.batch_fallback_rows").inc(
                    len(seed_list)
                )
        for row, seed in enumerate(seed_list):
            if slots is not None:
                trace = slots.trace(row)
            else:
                trace = None if traces is None else traces.get(seed)
                if trace is None:
                    trace = scenario.build_trace(seed)
            results[seed] = {
                spec: simulate_fast(
                    _policy_manager(scenario, spec),
                    trace,
                    max_deficit_fraction=max_deficit_fraction,
                )
                for spec in specs
            }
            if OBS.enabled:
                OBS.metrics.counter("sim.batch_rows_completed").inc()
    return results
