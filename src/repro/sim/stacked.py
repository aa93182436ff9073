"""Stacked batch kernel: one 2D sweep across a whole multi-seed batch.

``simulate_batch``'s serial loop calls ``simulate_fast`` once per
(seed, policy).  For fleet-scale sweeps the per-seed work is itself
mostly vectorizable *across seeds*: every row of the batch shares the
device, the plant, and the policy configuration, differing only in its
trace.  This module packs the per-seed plans into padded 2D arrays
(``seeds x segments``, zero padding for ragged rows) and runs each
controller type of the kernel table
(``repro.sim.vectorized._KERNEL_CONTROLLERS``) in single vectorized
sweeps:

- :func:`clamped_cumsum_batch` replays the
  :meth:`~repro.power.storage.ChargeStorage` clamp / bleed / deficit
  recurrence along axis 1 of every row at once, bit-identically to
  :func:`~repro.sim.vectorized.clamped_cumsum` per row;
- conv-dpm and static controllers reduce to one constant realized
  output per batch (:func:`_run_const_stacked`);
- ASAP-DPM's storage-coupled hysteresis runs as one column loop over
  all rows (:func:`_run_asap_stacked`) instead of a Python loop per
  segment per seed;
- FC-DPM's Eq. 14/15 predictor scans batch across rows
  (:func:`~repro.prediction.exponential.exponential_average_scan_batch`)
  and its storage-coupled per-slot solves advance all rows in lockstep,
  one :func:`~repro.core.optimizer_array.solve_slot_array` call per
  slot column (:func:`_run_fc_stacked`).

Planning is batched too: all rows' slots concatenate into one
:func:`~repro.sim.integrator.plan_slot_arrays` call (every layout rule
is slot-local, so the concatenated plan equals the per-seed plans row
for row), and the device-side sleep mask comes from one batched
predictor scan fed through the policy's own sleep rule
(``PredictiveShutdownPolicy.sleeps``), as
``PredictiveShutdownPolicy.decisions_array`` does per row.

Exactness contract: for every seed, every ``SimulationResult`` field
equals the scalar :class:`~repro.sim.slotsim.SlotSimulator`'s bit for
bit, and when the deficit guard fires the batch raises the same
``SimulationError`` (type and message, first failing row, first failing
spec within it) that the per-seed loop raises.  The managers this
module runs are built privately by ``simulate_batch``, which returns
only results, so no manager, controller or policy end state is
committed here.  A caller who needs end state owns the manager and runs
:func:`~repro.sim.vectorized.simulate_fast` on it.

Results are lazy: each (row, policy) ``SimulationResult`` holds a
:class:`~repro.sim.slotsim.SlotColumns` view of the batch's per-slot
columns instead of one ``SlotResult`` tuple per slot.

Telemetry: the stacked route runs with or without ``OBS`` enabled and
reports batch-level attributes (rows, padded fraction, and the
plan-stack / passes / assemble stage seconds) on the ``sim.batch`` span
plus ``sim.batch_*`` metrics.  The
per-slot ``dpm.*`` counters of the sequential policy replay are *not*
emitted on this route -- the batched decision scan never visits slots
individually (see docs/observability.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.baselines import ASAPDPMController
from ..core.fc_dpm import FCDPMController
from ..core.optimizer_array import SlotProblemColumns, solve_slot_array
from ..dpm.predictive import PredictiveShutdownPolicy
from ..errors import SimulationError
from ..obs import OBS
from ..prediction.exponential import (
    ExponentialAveragePredictor,
    exponential_average_scan_batch,
)
from ..workload.trace import LoadTrace, TaskSlot
from .integrator import plan_slot_arrays
from .slotsim import SimulationResult, SlotColumns
from .vectorized import (
    _MAX_RESCANS,
    Ineligibility,
    TraceArrays,
    _constant_command,
    _fc_scan_seeds,
    _fuel_currents,
    _realize_commands,
    _realize_constant,
    _slot_sums,
    _storage_deltas,
    fast_path_ineligibility,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.manager import PowerManager
    from ..scenario.spec import Scenario

def stacked_batch_ineligibility(manager: "PowerManager") -> Ineligibility | None:
    """Why this spec cannot ride the stacked batch kernel (None = it can).

    Strictly stronger than :func:`~repro.sim.vectorized
    .fast_path_ineligibility`, whose exact-type controller table covers
    both kernels (every controller with a 1D pass has a 2D pass) and
    whose plant checks (a bottomless tank included) bind both: the
    stacked passes additionally require a device policy whose sleep
    decisions compile to the batched predictor scan.
    """
    reason = fast_path_ineligibility(manager)
    if reason is not None:
        return reason
    policy = manager.policy
    if type(policy) is not PredictiveShutdownPolicy or type(
        getattr(policy, "predictor", None)
    ) is not ExponentialAveragePredictor:
        return Ineligibility(
            "stacked-policy",
            f"policy type {type(policy).__name__} has no batched decision scan",
        )
    return None


# -- batched slot synthesis ---------------------------------------------------


@dataclass(frozen=True)
class _BatchSlots:
    """All rows' task slots, flat (concatenated) and padded-2D."""

    counts: np.ndarray  #: (R,) slots per row
    offsets: np.ndarray  #: (R+1,) flat slot offsets
    t_idle: np.ndarray  #: flat, row-major
    t_active: np.ndarray
    i_active: np.ndarray
    t_idle2d: np.ndarray  #: (R, W) zero-padded
    t_active2d: np.ndarray
    valid: np.ndarray  #: (R, W) bool

    @classmethod
    def from_flat(
        cls,
        offsets: np.ndarray,
        t_idle: np.ndarray,
        t_active: np.ndarray,
        i_active: np.ndarray,
    ) -> "_BatchSlots":
        """Ragged rows from flat row-major columns and ``(R+1,)`` offsets."""
        counts = np.diff(offsets)
        width = int(counts.max()) if counts.size else 0
        valid = np.arange(width)[None, :] < counts[:, None]
        return cls(
            counts=counts,
            offsets=offsets,
            t_idle=t_idle,
            t_active=t_active,
            i_active=i_active,
            t_idle2d=_pad_rows(t_idle, valid),
            t_active2d=_pad_rows(t_active, valid),
            valid=valid,
        )

    def trace(self, row: int) -> LoadTrace:
        """Row ``row``'s slots as a :class:`~repro.workload.trace.LoadTrace`."""
        lo, hi = int(self.offsets[row]), int(self.offsets[row + 1])
        return LoadTrace(
            map(
                TaskSlot,
                self.t_idle[lo:hi].tolist(),
                self.t_active[lo:hi].tolist(),
                self.i_active[lo:hi].tolist(),
            )
        )


def _pad_rows(flat: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Scatter a row-major flat column into a zero-padded 2D array."""
    out = np.zeros(valid.shape, dtype=float)
    out[valid] = flat
    return out


def _gather_batch_slots(
    scenario: "Scenario", seed_list: list[int], traces: dict | None
) -> _BatchSlots:
    """Every seed's slot columns, via the batched synthesizer when possible.

    ``Scenario.build_slot_arrays`` produces the whole batch in one RNG
    pass per seed (bit-identical to per-seed ``build_trace`` slots);
    workloads without an array builder -- or pre-built ``traces`` --
    extract columns per trace instead.
    """
    arrays = None if traces else scenario.build_slot_arrays(seed_list)
    if arrays is not None:
        rows, width = arrays[0].shape
        offsets = np.arange(rows + 1, dtype=np.intp) * width
        return _BatchSlots.from_flat(offsets, *(a.ravel() for a in arrays))
    cols_i: list[np.ndarray] = []
    cols_a: list[np.ndarray] = []
    cols_c: list[np.ndarray] = []
    for seed in seed_list:
        trace = None if traces is None else traces.get(seed)
        if trace is None:
            trace = scenario.build_trace(seed)
        slots = list(trace)
        cols_i.append(np.array([s.t_idle for s in slots], dtype=float))
        cols_a.append(np.array([s.t_active for s in slots], dtype=float))
        cols_c.append(np.array([s.i_active for s in slots], dtype=float))
    counts = [c.shape[0] for c in cols_i]
    return _BatchSlots.from_flat(
        np.concatenate(([0], np.cumsum(counts))).astype(np.intp),
        np.concatenate(cols_i),
        np.concatenate(cols_a),
        np.concatenate(cols_c),
    )


# -- stacked plans ------------------------------------------------------------


@dataclass(frozen=True)
class StackedPlans:
    """Per-seed :class:`~repro.sim.vectorized.TraceArrays` stacked on axis 0.

    ``flat`` is the whole batch as one plan over the concatenated slot
    sequence (its ``slot_bounds`` / ``active_start`` hold *global*
    segment indices); row ``r`` owns segments ``seg_offsets[r]`` up to
    ``seg_offsets[r + 1]``.  ``duration`` / ``i_load`` are the
    zero-padded 2D forms the stacked kernels sweep (zero padding is
    bit-neutral in every reduction the kernels perform).
    """

    flat: TraceArrays
    seg_offsets: np.ndarray  #: (R+1,) flat segment offset per row
    slot_offsets: np.ndarray  #: (R+1,) flat slot offset per row
    n_seg: np.ndarray  #: (R,) segments per row
    duration: np.ndarray  #: (R, S) zero-padded
    i_load: np.ndarray  #: (R, S) zero-padded
    valid_seg: np.ndarray  #: (R, S) bool

    @property
    def n_rows(self) -> int:
        return self.n_seg.shape[0]

    @property
    def width(self) -> int:
        return self.duration.shape[1]


def _stack_from_flat(flat: TraceArrays, counts: np.ndarray) -> StackedPlans:
    """Carve one concatenated plan into row offsets + padded 2D columns."""
    slot_offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
    seg_offsets = flat.slot_bounds[slot_offsets]
    n_seg = np.diff(seg_offsets)
    width = int(n_seg.max()) if n_seg.size else 0
    valid = np.arange(width)[None, :] < n_seg[:, None]
    return StackedPlans(
        flat=flat,
        seg_offsets=seg_offsets,
        slot_offsets=slot_offsets,
        n_seg=n_seg,
        duration=_pad_rows(flat.duration, valid),
        i_load=_pad_rows(flat.i_load, valid),
        valid_seg=valid,
    )


# -- batched storage recurrence ----------------------------------------------


def clamped_cumsum_batch(
    deltas: np.ndarray,
    n_valid: np.ndarray,
    initial: float,
    capacity: float,
    bled: float = 0.0,
    deficit: float = 0.0,
    max_rescans: int = _MAX_RESCANS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-stacked :func:`~repro.sim.vectorized.clamped_cumsum`.

    ``deltas`` is ``(rows, segments)`` with ragged rows zero-padded past
    ``n_valid[row]``; every row starts from the same ``initial`` level
    and clamp ledgers (a batch of freshly reset storages).  Returns
    ``(charges, bled, deficit)`` where ``charges[r, :n_valid[r] + 1]``
    and the per-row ledgers are bit-identical to the 1D recurrence on
    row ``r``'s valid prefix.  Charge columns past ``n_valid[row]`` are
    unspecified.

    Strategy mirrors the 1D kernel: whole-row seeded cumsums between
    clamp events (``axis=1`` cumsum is strictly sequential per row, and
    the zero prefix before each row's resume column is bit-neutral),
    the scalar clamp arithmetic applied at each row's first violation,
    and a density heuristic -- rows whose unclamped trajectory violates
    the bounds more times than the rescan budget, or that exhaust it,
    finish in a column-sequential tail vectorized *across* rows.  The
    heuristic only changes speed, never values.
    """
    deltas = np.asarray(deltas, dtype=float)
    rows, width = deltas.shape
    n_valid = np.asarray(n_valid, dtype=np.intp)
    charges = np.empty((rows, width + 1), dtype=float)
    charges[:, 0] = initial
    cur = np.full(rows, float(initial))
    bled_a = np.full(rows, float(bled))
    deficit_a = np.full(rows, float(deficit))
    start = np.zeros(rows, dtype=np.intp)
    pending = n_valid > 0
    cols = np.arange(width)
    rescans = 0
    while rescans < max_rescans:
        idx = np.flatnonzero(pending)
        if not idx.size:
            break
        st = start[idx]
        nv = n_valid[idx]
        live = (cols[None, :] >= st[:, None]) & (cols[None, :] < nv[:, None])
        work = np.where(live, deltas[idx], 0.0)
        # Seed each row's resume column with its carried level: the
        # zero prefix then contributes exact +0.0 terms, so the row
        # cumsum replays the scalar += sequence bit for bit.
        work[np.arange(idx.size), st] += cur[idx]
        np.cumsum(work, axis=1, out=work)
        bad = ((work > capacity) | (work < 0.0)) & live
        has_bad = bad.any(axis=1)
        nbad = np.count_nonzero(bad, axis=1)
        # First violating column per row (nv for clean rows): commit
        # the clean prefix [st, k) for every row in one masked store.
        k = np.where(has_bad, np.argmax(bad, axis=1), nv)
        ch = charges[idx]
        ch1 = ch[:, 1:]
        commit = live & (cols[None, :] < k[:, None])
        ch1[commit] = work[commit]
        if np.any(has_bad):
            sub = np.flatnonzero(has_bad)
            kb = k[sub]
            newv = work[sub, kb]
            over = newv > capacity
            # The scalar applies exactly one branch; the masked adds
            # contribute exact +0.0 on the other (ledgers are >= 0).
            bled_a[idx[sub]] += np.where(over, newv - capacity, 0.0)
            deficit_a[idx[sub]] += np.where(over, 0.0, -newv)
            pinned = np.where(over, capacity, 0.0)
            cur[idx[sub]] = pinned
            ch1[sub, kb] = pinned
            start[idx[sub]] = kb + 1
        charges[idx] = ch
        done = idx[~has_bad]
        pending[done] = False
        pending[idx] &= start[idx] < n_valid[idx]
        # Clamp-dense rows (more violations left than rescan budget)
        # drop straight to the sequential tail, as the 1D kernel does.
        dense = nbad > max_rescans - rescans
        pending_now = pending[idx] & ~dense
        if not np.any(pending_now):
            pending[idx] = pending[idx] & dense & (start[idx] < n_valid[idx])
            if np.any(dense):
                break
        rescans += 1
    idx = np.flatnonzero(pending & (start < n_valid))
    if idx.size:
        st = start[idx]
        nv = n_valid[idx]
        d_sub = deltas[idx]
        ch = charges[idx]
        cur_t = cur[idx]
        bl = bled_a[idx]
        df = deficit_a[idx]
        for j in range(int(st.min()), int(nv.max())):
            act = (j >= st) & (j < nv)
            new = cur_t + d_sub[:, j]
            over = act & (new > capacity)
            under = act & (new < 0.0)
            ok = act & ~over & ~under
            bl += np.where(over, new - capacity, 0.0)
            df += np.where(under, -new, 0.0)
            cur_t = np.where(
                over, capacity, np.where(under, 0.0, np.where(ok, new, cur_t))
            )
            ch[:, j + 1] = np.where(act, cur_t, ch[:, j + 1])
        charges[idx] = ch
        bled_a[idx] = bl
        deficit_a[idx] = df
    return charges, bled_a, deficit_a


# -- stacked kernel passes ----------------------------------------------------


@dataclass(frozen=True)
class _StackedRun:
    """Raw outputs of one stacked pass, flat + per-row reductions."""

    fuel_flat: np.ndarray  #: per-segment fuel, row-major flat
    delivered_flat: np.ndarray  #: per-segment delivered charge, flat
    i_f_flat: np.ndarray | None  #: realized output per segment (None = const)
    charges: np.ndarray  #: (R, S+1), padded past each row's last segment
    bled: np.ndarray  #: (R,)
    deficit: np.ndarray  #: (R,)
    recharging: np.ndarray | None  #: (R,) final ASAP mode, or None
    const_i_f: float | None = None


def _run_const_stacked(manager: "PowerManager", sp: StackedPlans) -> _StackedRun:
    """Stacked pass for constant-command controllers (conv-dpm, static).

    Exactly ``_run_from_plan``, broadcast across rows: one realize +
    fuel-map evaluation, elementwise deltas, and the batched storage
    recurrence.
    """
    source = manager.source
    storage = source.storage
    r0, i_fc = _realize_constant(source.fc, _constant_command(manager.controller))
    fuel_flat = i_fc * sp.flat.duration
    delivered_flat = r0 * sp.flat.duration
    deltas = _storage_deltas(storage, r0, sp.i_load, sp.duration)
    charges, bled, deficit = clamped_cumsum_batch(
        deltas,
        sp.n_seg,
        storage.charge,
        storage.capacity,
        bled=storage.bled_charge,
        deficit=storage.deficit_charge,
    )
    return _StackedRun(
        fuel_flat=fuel_flat,
        delivered_flat=delivered_flat,
        i_f_flat=None,
        charges=charges,
        bled=bled,
        deficit=deficit,
        recharging=None,
        const_i_f=r0,
    )


def _run_asap_stacked(manager: "PowerManager", sp: StackedPlans) -> _StackedRun:
    """Stacked pass for ASAP-DPM's storage-coupled recharge hysteresis.

    Both candidate modes precompute elementwise (on the flat columns for
    assembly, padded 2D for integration); one column loop then plays the
    per-segment hysteresis and the storage clamp for every row at once
    -- the same ``soc``-before-integration ordering and clamp arithmetic
    as the scalar controller, with ``np.where`` selecting each row's
    branch.
    """
    controller = manager.controller
    source = manager.source
    fc = source.fc
    storage = source.storage
    model = fc.model
    flat = sp.flat

    cmd_follow = np.minimum(np.maximum(flat.i_load, model.if_min), model.if_max)
    real_follow = _realize_commands(fc, cmd_follow)
    ifc_follow = _fuel_currents(fc, real_follow)
    fuel_follow = ifc_follow * flat.duration
    real_follow2d = _pad_rows(real_follow, sp.valid_seg)
    delta_follow2d = _storage_deltas(storage, real_follow2d, sp.i_load, sp.duration)

    real_re, ifc_re = _realize_constant(fc, model.if_max)
    fuel_re = ifc_re * flat.duration
    delta_re2d = _storage_deltas(storage, real_re, sp.i_load, sp.duration)

    rows, width = sp.duration.shape
    threshold = controller.recharge_threshold
    full_level = controller.full_level
    cap = storage.capacity
    has_cap = cap > 0
    recharging = np.full(rows, controller.recharging, dtype=bool)
    cur = np.full(rows, storage.charge)
    bled = np.full(rows, storage.bled_charge)
    deficit = np.full(rows, storage.deficit_charge)
    charges = np.empty((rows, width + 1), dtype=float)
    charges[:, 0] = cur
    mode2d = np.empty((rows, width), dtype=bool)
    valid = sp.valid_seg

    for j in range(width):
        act = valid[:, j]
        if has_cap:
            # Hysteresis *before* the segment integrates, exactly as
            # ASAPDPMController.output reads the pre-step soc.
            soc = cur / cap
            rech = np.where(soc < threshold, True, np.where(soc >= full_level, False, recharging))
            recharging = np.where(act, rech, recharging)
        delta = np.where(recharging, delta_re2d[:, j], delta_follow2d[:, j])
        new = cur + delta
        over = act & (new > cap)
        under = act & (new < 0.0)
        ok = act & ~over & ~under
        bled += np.where(over, new - cap, 0.0)
        deficit += np.where(under, -new, 0.0)
        cur = np.where(over, cap, np.where(under, 0.0, np.where(ok, new, cur)))
        charges[:, j + 1] = cur
        mode2d[:, j] = recharging

    mode_flat = mode2d[valid]
    i_f_flat = np.where(mode_flat, real_re, real_follow)
    fuel_flat = np.where(mode_flat, fuel_re, fuel_follow)
    delivered_flat = i_f_flat * flat.duration
    return _StackedRun(
        fuel_flat=fuel_flat,
        delivered_flat=delivered_flat,
        i_f_flat=i_f_flat,
        charges=charges,
        bled=bled,
        deficit=deficit,
        recharging=recharging,
    )


def _run_fc_stacked(
    manager: "PowerManager",
    sp: StackedPlans,
    slots: _BatchSlots,
    seeds: tuple[float, float],
    idle_preds: np.ndarray | None,
    active_preds: np.ndarray,
) -> _StackedRun:
    """Lockstep stacked pass for FC-DPM's storage-coupled slot solves.

    The per-row sequential loop (``vectorized._run_fc``) cannot batch
    along the segment axis -- each slot's ``SlotProblem`` takes the live
    storage level as ``c_ini`` -- but it *can* batch across rows: every
    row poses its slot-``k`` problem from state that only depends on its
    own first ``k`` slots.  So this pass transposes the iteration:
    advance all rows in lockstep, one slot column at a time.  At step
    ``k`` it assembles per-row problem columns (predictor columns from
    the batched Eq. 14/15 scans, the active-current running mean as a
    masked fold, ``c_ini`` live from the previous step's storage
    integration), solves them in a single
    :func:`~repro.core.optimizer_array.solve_slot_array` call, and
    integrates the column's idle/active segments with the
    storage-saturation guard, clamp ledger, and Section-4.2 active
    re-plan as vectorized mask arithmetic over all rows.

    ``idle_preds`` / ``active_preds`` are the ``(rows, slots)``
    prediction columns of the batched Eq. 14/15 scans; ``idle_preds``
    is None when nobody observes the idle predictor, which then
    predicts its frozen pre-run estimate every slot.

    Bit-exactness: every expression replays ``_run_fc``'s scalar op
    order (the solver by construction; the guard/realize/fuel/delta
    arithmetic via the shared ``_realize_commands`` /
    ``_fuel_currents`` / ``_storage_deltas`` helpers; phase folds as
    masked sequential accumulation), so per-segment outputs and ledgers
    equal the per-row pass bit for bit.
    Rows shorter than the batch width go inert past their last slot:
    their lanes still compute (the scan columns hold each row's frozen
    estimate, so the dead solves stay in-range) but every commit is
    masked by validity.  Requires stacked eligibility (exact
    controller/model types).
    """
    controller = manager.controller
    source = manager.source
    fc = source.fc
    storage = source.storage
    model = controller.model
    device = manager.device
    flat = sp.flat

    rows_n = sp.n_rows
    valid = slots.valid
    width_s = valid.shape[1]
    rows_idx = np.arange(rows_n)

    est_idle0, est_active0 = seeds
    # Problem columns, floored exactly as the scalar pass floors them.
    if idle_preds is None:
        ti2d = None
        ti_const = np.full(rows_n, max(est_idle0, 1e-6))
    else:
        ti2d = np.maximum(idle_preds, 1e-6)
        ti_const = None
    ta2d = np.maximum(active_preds, 1e-6)

    slept2d = _pad_rows(flat.slept, valid).astype(bool)
    i_idle2d = np.where(slept2d, device.i_slp, device.i_sdb)
    ov = controller._overheads(True)
    t_wu2d = np.where(slept2d, ov.get("t_wu", 0.0), 0.0)
    t_pd2d = np.where(slept2d, ov.get("t_pd", 0.0), 0.0)
    i_wu2d = np.where(slept2d, ov.get("i_wu", 0.0), 0.0)
    i_pd2d = np.where(slept2d, ov.get("i_pd", 0.0), 0.0)
    i_active2d = _pad_rows(slots.i_active, valid)

    # What start_run would set, read from the fresh manager's storage
    # state without mutating anything.
    c_target = storage.charge
    c_max_col = np.full(rows_n, storage.capacity)
    c_end_col = np.full(rows_n, c_target)
    est_fixed = controller.active_current_estimate
    fallback = controller.fallback_active_current
    acn0 = controller._active_current_n

    cap = storage.capacity
    hi_guard = 0.999 * cap
    lo_guard = 0.001 * cap
    if_min = model.if_min
    if_max = model.if_max

    # Global segment indices of each (row, slot): idle spans
    # [bstart, astart), active spans [astart, end).
    g_bounds = flat.slot_bounds
    bstart2d = np.zeros((rows_n, width_s), dtype=np.intp)
    astart2d = np.zeros((rows_n, width_s), dtype=np.intp)
    end2d = np.zeros((rows_n, width_s), dtype=np.intp)
    bstart2d[valid] = g_bounds[:-1]
    astart2d[valid] = flat.active_start
    end2d[valid] = g_bounds[1:]
    icnt2d = astart2d - bstart2d
    acnt2d = end2d - astart2d
    seg_base = sp.seg_offsets[:-1]

    durs = flat.duration
    loads = flat.i_load
    i_f_flat = np.zeros(durs.shape[0])
    fuel_flat = np.zeros(durs.shape[0])
    charges = np.zeros((rows_n, sp.width + 1))
    cur = np.full(rows_n, storage.charge)
    charges[:, 0] = cur
    bled = np.full(rows_n, storage.bled_charge)
    deficit = np.full(rows_n, storage.deficit_charge)

    acs = np.full(rows_n, controller._active_current_sum)

    def integrate(active_mask, g_idx, r_vals, ifc_vals):
        """One segment column: fuel, storage clamp, per-segment scatter."""
        nonlocal cur, bled, deficit
        gs = np.where(active_mask, g_idx, 0)
        d = durs[gs]
        i_l = loads[gs]
        fuel_j = ifc_vals * d
        delta = _storage_deltas(storage, r_vals, i_l, d)
        new = cur + delta
        over = active_mask & (new > cap)
        under = active_mask & (new < 0.0)
        ok = active_mask & ~over & ~under
        bled = bled + np.where(over, new - cap, 0.0)
        deficit = deficit + np.where(under, -new, 0.0)
        cur = np.where(over, cap, np.where(under, 0.0, np.where(ok, new, cur)))
        g_act = g_idx[active_mask]
        i_f_flat[g_act] = r_vals[active_mask]
        fuel_flat[g_act] = fuel_j[active_mask]
        charges[rows_idx[active_mask], g_act - seg_base[active_mask] + 1] = cur[
            active_mask
        ]

    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(width_s):
            vk = valid[:, k]
            # Active-current estimate: est / fallback / running mean,
            # exactly the scalar priority (acn0 + k is the same python
            # int the scalar divides by).
            if est_fixed is not None:
                i_est = np.full(rows_n, est_fixed)
            elif acn0 + k == 0:
                i_est = np.full(rows_n, fallback)
            else:
                i_est = acs / (acn0 + k)
            probs = SlotProblemColumns(
                t_idle=ti_const if ti2d is None else ti2d[:, k],
                t_active=ta2d[:, k],
                i_idle=i_idle2d[:, k],
                i_active=i_est,
                c_ini=cur,
                c_end=c_end_col,
                c_max=c_max_col,
                sleeping=slept2d[:, k],
                t_wu=t_wu2d[:, k],
                t_pd=t_pd2d[:, k],
                i_wu=i_wu2d[:, k],
                i_pd=i_pd2d[:, k],
            )
            if_idle = solve_slot_array(probs, model).if_idle

            # Idle segments: guard + realize per segment column.
            icnt = icnt2d[:, k]
            for j in range(int(icnt[vk].max(initial=0))):
                act = vk & (j < icnt)
                gs = np.where(act, bstart2d[:, k] + j, 0)
                i_l = loads[gs]
                guard = ((cur >= hi_guard) & (if_idle > i_l)) | (
                    (cur <= lo_guard) & (if_idle < i_l)
                )
                cmd = np.where(
                    guard,
                    np.minimum(np.maximum(i_l, if_min), if_max),
                    if_idle,
                )
                r = _realize_commands(fc, cmd)
                integrate(act, bstart2d[:, k] + j, r, _fuel_currents(fc, r))

            # Active phase: sequential rem/dem folds, one held command.
            acnt = acnt2d[:, k]
            n_active = int(acnt[vk].max(initial=0))
            rem = np.zeros(rows_n)
            dem = np.zeros(rows_n)
            for j in range(n_active):
                aj = vk & (j < acnt)
                gs = np.where(aj, astart2d[:, k] + j, 0)
                d = durs[gs]
                rem = np.where(aj, rem + d, rem)
                dem = np.where(aj, dem + d * loads[gs], dem)
            has_a = vk & (acnt > 0)
            if_a = np.where(has_a, (dem + c_target - cur) / rem, if_min)
            cmd_a = np.minimum(np.maximum(if_a, if_min), if_max)
            r_a = _realize_commands(fc, cmd_a)
            ifc_a = _fuel_currents(fc, r_a)
            for j in range(n_active):
                aj = vk & (j < acnt)
                integrate(aj, astart2d[:, k] + j, r_a, ifc_a)

            acs = np.where(vk, acs + i_active2d[:, k], acs)

    return _StackedRun(
        fuel_flat=fuel_flat,
        delivered_flat=i_f_flat * durs,
        i_f_flat=i_f_flat,
        charges=charges,
        bled=bled,
        deficit=deficit,
        recharging=None,
    )


# -- batch driver -------------------------------------------------------------


def _row_totals(flat_values: np.ndarray, sp: StackedPlans) -> np.ndarray:
    """Per-row sequential totals of a flat per-segment column.

    Pads into the 2D layout and cumsums along axis 1: the zero padding
    contributes exact ``+0.0`` terms (all integrated quantities are
    non-negative), so each row total equals the 1D seeded cumsum.
    """
    if not sp.width:
        return np.zeros(sp.n_rows)
    return np.cumsum(_pad_rows(flat_values, sp.valid_seg), axis=1)[:, -1]


def simulate_batch_stacked(
    scenario: "Scenario",
    seed_list: list[int],
    specs: list[str],
    managers: dict[str, "PowerManager"],
    *,
    max_deficit_fraction: float,
    traces: dict | None,
    span,
    slots: _BatchSlots | None = None,
) -> dict[int, dict[str, SimulationResult]]:
    """Run a whole (seeds x policies) batch through the stacked kernel.

    Every spec in ``managers`` must already have passed
    :func:`stacked_batch_ineligibility`.  ``slots`` are the batch's
    already-gathered slot columns (a parallel shard's); without them the
    columns are gathered here from ``traces`` and the scenario.  Results
    and the raised ``SimulationError`` are bit-identical to
    ``simulate_batch``'s per-seed loop over the same seeds and specs;
    the managers are only read, never advanced (see the module
    docstring).
    """
    t_plan0 = time.perf_counter()
    rows_n = len(seed_list)
    if slots is None:
        slots = _gather_batch_slots(scenario, seed_list, traces)

    # Device-side sleep mask: one batched predictor scan through the
    # policy's sleep rule, exactly PredictiveShutdownPolicy.decisions_array
    # per row.  As in the serial loop, the first spec's (fresh) policy
    # is the probe whose decisions every spec shares.
    probe = managers[specs[0]]
    policy = probe.policy
    predictor = policy.predictor
    preds2d, _ = exponential_average_scan_batch(
        predictor.factor, predictor.estimate, slots.t_idle2d, slots.counts
    )
    sleep_flat = policy.sleeps(preds2d[slots.valid])

    # One planner call over the concatenated slots: every layout rule in
    # plan_slot_arrays is slot-local, so carving the result back into
    # rows reproduces per-seed planning bit for bit.
    flat = TraceArrays(
        **plan_slot_arrays(
            probe.device,
            slots.t_idle,
            slots.t_active,
            slots.i_active,
            sleep_flat,
        )
    )
    sp = _stack_from_flat(flat, slots.counts)
    t_passes0 = time.perf_counter()
    plan_seconds = t_passes0 - t_plan0

    # Per-spec stacked passes.  FC-DPM batches its predictor scans and
    # then sweeps all rows in lockstep, one slot column per step.
    runs: dict[str, _StackedRun] = {}
    for spec in specs:
        mgr = managers[spec]
        controller = mgr.controller
        ctype = type(controller)
        if ctype is ASAPDPMController:
            runs[spec] = _run_asap_stacked(mgr, sp)
        elif ctype is FCDPMController:
            seeds0 = _fc_scan_seeds(mgr)
            feeds = getattr(mgr.policy, "predictor", None) is (
                controller.idle_length_predictor
            )
            idle_preds = None
            if controller.observes_idle or feeds:
                ipred = controller.idle_length_predictor
                if (
                    ipred.factor == predictor.factor
                    and ipred.estimate == predictor.estimate
                ):
                    # Standard wiring shares the probe policy's filter
                    # configuration -- reuse the decision scan rows.
                    idle_preds = preds2d
                else:
                    idle_preds, _ = exponential_average_scan_batch(
                        ipred.factor, ipred.estimate, slots.t_idle2d, slots.counts
                    )
            apred = controller.active_length_predictor
            active_preds, _ = exponential_average_scan_batch(
                apred.factor, seeds0[1], slots.t_active2d, slots.counts
            )
            runs[spec] = _run_fc_stacked(
                mgr, sp, slots, seeds0, idle_preds, active_preds
            )
        else:
            runs[spec] = _run_const_stacked(mgr, sp)
    t_assemble0 = time.perf_counter()
    passes_seconds = t_assemble0 - t_passes0

    # Shared per-row reductions (policy-independent, zero-seeded --
    # fresh managers start every ledger at 0.0).
    dur_rows = _row_totals(flat.duration, sp).tolist()
    load_rows = _row_totals(flat.load_charge_seg, sp).tolist()
    slot_row_idx = np.repeat(np.arange(rows_n), slots.counts)
    sleeps_rows = np.bincount(
        slot_row_idx, weights=flat.slept, minlength=rows_n
    ).astype(np.intp).tolist()
    aborted_rows = np.bincount(
        slot_row_idx, weights=flat.aborted, minlength=rows_n
    ).astype(np.intp).tolist()
    # Flat gather indices: each slot's last charge column per row.
    g_bounds = flat.slot_bounds
    seg_base = np.repeat(sp.seg_offsets[:-1], slots.counts)
    ends_local = g_bounds[1:] - seg_base
    astart_local = flat.active_start - seg_base
    flat_end_idx = slot_row_idx * (sp.width + 1) + ends_local

    # One tuple of whole-batch slot columns per spec; every (row, spec)
    # result views its row range of them (no per-slot objects).
    columns: dict[str, tuple] = {}
    for spec, run in runs.items():
        if run.i_f_flat is None:
            if_idle = if_active = np.full(flat.n_slots, run.const_i_f)
        else:
            g_starts = g_bounds[:-1] - seg_base
            if_idle = np.where(
                astart_local > g_starts,
                run.i_f_flat[np.maximum(flat.active_start - 1, 0)],
                0.0,
            )
            if_active = np.where(
                ends_local > astart_local, run.i_f_flat[g_bounds[1:] - 1], 0.0
            )
        columns[spec] = (
            flat.slept,
            flat.aborted,
            _slot_sums(flat, run.fuel_flat),
            flat.slot_load_charge,
            if_idle,
            if_active,
            run.charges.ravel()[flat_end_idx],
        )
    totals = {
        spec: (
            _row_totals(run.fuel_flat, sp).tolist(),
            _row_totals(run.delivered_flat, sp).tolist(),
            run.bled.tolist(),
            run.deficit.tolist(),
        )
        for spec, run in runs.items()
    }

    if OBS.enabled:
        OBS.metrics.counter("sim.route", path="fast").inc(rows_n * len(specs))
        OBS.metrics.counter("sim.batch_rows_completed").inc(rows_n)
    if span is not None:
        total_cells = rows_n * sp.width if sp.width else 0
        padded = 1.0 - (int(sp.n_seg.sum()) / total_cells) if total_cells else 0.0
        span.set(
            route="stacked",
            rows=rows_n,
            padded_fraction=round(padded, 4),
            plan_stack_seconds=round(plan_seconds, 6),
            passes_seconds=round(passes_seconds, 6),
            fallback_rows=0,
        )
        if OBS.enabled:
            OBS.metrics.counter("sim.batch_route", path="stacked").inc()
            OBS.metrics.gauge("sim.batch_padded_fraction").set(padded)
            OBS.metrics.histogram("sim.batch_plan_stack_s").observe(plan_seconds)
            OBS.metrics.histogram("sim.batch_passes_s").observe(passes_seconds)

    mdf = max_deficit_fraction
    counts_l = slots.counts.tolist()
    slot_off_l = sp.slot_offsets.tolist()
    results: dict[int, dict[str, SimulationResult]] = {}
    for r, seed in enumerate(seed_list):
        per_policy: dict[str, SimulationResult] = {}
        n_slots_r = counts_l[r]
        slo = slot_off_l[r]
        load_r = load_rows[r]
        for spec in specs:
            mgr = managers[spec]
            fuel_rows, delivered_rows, bled_rows, deficit_rows = totals[spec]
            deficit_r = deficit_rows[r]
            if deficit_r > load_r * mdf:
                raise SimulationError(
                    f"{mgr.name}: storage deficit "
                    f"{deficit_r:.2f} A-s exceeds "
                    f"{100 * mdf:.0f}% of load -- "
                    "the source is undersized for this workload"
                )
            per_policy[mgr.name] = SimulationResult(
                name=mgr.name,
                fuel=fuel_rows[r],
                load_charge=load_r,
                delivered_charge=delivered_rows[r],
                duration=dur_rows[r],
                bled=bled_rows[r],
                deficit=deficit_r,
                n_slots=n_slots_r,
                n_sleeps=sleeps_rows[r],
                n_aborted_sleeps=aborted_rows[r],
                wakeup_latency=sleeps_rows[r] * mgr.device.t_wu,
                slots=SlotColumns(columns[spec], slo, slo + n_slots_r),
                recorder=None,
            )
        results[seed] = per_policy
    assemble_seconds = time.perf_counter() - t_assemble0
    if span is not None:
        span.set(assemble_seconds=round(assemble_seconds, 6))
        if OBS.enabled:
            OBS.metrics.histogram("sim.batch_assemble_s").observe(assemble_seconds)
    return results
