"""Array-native Section-3.3 slot solver: ``solve_slot`` over columns.

:func:`solve_slot_array` evaluates the full closed-form decision
procedure of :func:`repro.core.optimizer.solve_slot` -- Eq. 11/13 flat
optimum, range clamp, both ``Cmax``/empty corrections with the ``IF,a``
re-derivation, bleeder/deficit residue accounting -- over a
structure-of-arrays batch of :class:`~repro.core.setting.SlotProblem`
rows in one set of NumPy passes.  The contract is *bit-exactness*: for
every row, every :class:`~repro.core.setting.SlotSolution` field equals
the scalar solver's output bit for bit.

Two rules make that hold:

* every arithmetic expression replays the scalar op order exactly
  (elementwise IEEE-754 ops are identical to their scalar forms when
  the association matches), and
* scalar ``min``/``max`` are replayed through :func:`_pymin` /
  :func:`_pymax` -- ``np.where`` forms that keep Python's
  return-the-first-argument-on-ties semantics.  ``np.maximum(-0.0,
  0.0)`` is ``+0.0`` but ``max(-0.0, 0.0)`` is ``-0.0``; the residue
  accounting (``max(-c_mid, 0.0)``) can hit exactly that case.

Both sides of every branch are computed for all rows and merged with
masks; divisions that are dead on a row (``t_idle == 0``) are discarded
by the mask, so the whole solve runs under ``np.errstate`` suppression.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ..fuelcell.efficiency import SystemEfficiencyModel
from .optimizer import _EPS
from .setting import SlotProblem


def _pymax(a, b):
    """Python ``max(a, b)`` over arrays: returns ``a`` on ties (signed zeros)."""
    return np.where(b > a, b, a)


def _pymin(a, b):
    """Python ``min(a, b)`` over arrays: returns ``a`` on ties (signed zeros)."""
    return np.where(b < a, b, a)


@dataclass(frozen=True)
class SlotProblemColumns:
    """A batch of :class:`SlotProblem` rows in structure-of-arrays form.

    Field semantics (and the derived-quantity op order) mirror
    :class:`SlotProblem` exactly; validation is the caller's problem --
    rows are assumed to satisfy the scalar constructor's invariants.
    """

    t_idle: np.ndarray
    t_active: np.ndarray
    i_idle: np.ndarray
    i_active: np.ndarray
    c_ini: np.ndarray
    c_end: np.ndarray
    c_max: np.ndarray
    sleeping: np.ndarray
    t_wu: np.ndarray
    t_pd: np.ndarray
    i_wu: np.ndarray
    i_pd: np.ndarray

    @classmethod
    def from_problems(cls, problems: Sequence[SlotProblem]) -> SlotProblemColumns:
        """Pack scalar problems into columns (float64 / bool)."""

        def col(name):
            return np.array([getattr(p, name) for p in problems], dtype=float)

        return cls(
            t_idle=col("t_idle"),
            t_active=col("t_active"),
            i_idle=col("i_idle"),
            i_active=col("i_active"),
            c_ini=col("c_ini"),
            c_end=col("c_end"),
            c_max=col("c_max"),
            sleeping=np.array([p.sleeping for p in problems], dtype=bool),
            t_wu=col("t_wu"),
            t_pd=col("t_pd"),
            i_wu=col("i_wu"),
            i_pd=col("i_pd"),
        )

    def __len__(self) -> int:
        return len(self.t_idle)

    # -- derived columns (SlotProblem property op order) --------------------

    @cached_property
    def t_active_eff(self) -> np.ndarray:
        return np.where(
            self.sleeping, self.t_active + self.t_wu + self.t_pd, self.t_active
        )

    @cached_property
    def active_demand(self) -> np.ndarray:
        base = self.i_active * self.t_active
        return np.where(
            self.sleeping, base + self.i_wu * self.t_wu + self.i_pd * self.t_pd, base
        )

    @cached_property
    def idle_demand(self) -> np.ndarray:
        return self.i_idle * self.t_idle

    @cached_property
    def total_demand(self) -> np.ndarray:
        return self.idle_demand + self.active_demand

    @cached_property
    def total_time(self) -> np.ndarray:
        return self.t_idle + self.t_active_eff


@dataclass(frozen=True)
class SlotSolutionColumns:
    """Batch solver output: one array per :class:`SlotSolution` field."""

    if_idle: np.ndarray
    if_active: np.ndarray
    ifc_idle: np.ndarray
    ifc_active: np.ndarray
    fuel: np.ndarray
    c_after_idle: np.ndarray
    c_after_slot: np.ndarray
    range_clamped: np.ndarray
    capacity_limited: np.ndarray
    bled: np.ndarray
    deficit: np.ndarray

    def __len__(self) -> int:
        return len(self.if_idle)


def solve_slot_array(
    cols: SlotProblemColumns, model: SystemEfficiencyModel
) -> SlotSolutionColumns:
    """Closed-form Section-3.3 solve of every row at once.

    Bit-exact against :func:`repro.core.optimizer.solve_slot` row for
    row on every solution field -- the scalar procedure's branches are
    computed on all rows and merged by mask, with every expression in
    the scalar op order (see the module docstring for the ``min``/``max``
    subtlety).  Rows must be valid :class:`SlotProblem` instances; the
    solver itself never leaves ``[if_min, if_max]``, so the fuel map is
    always evaluated in range.
    """
    lo, hi = model.if_min, model.if_max
    t_i = cols.t_idle
    t_a = cols.t_active_eff
    c_ini, c_end, c_max = cols.c_ini, cols.c_end, cols.c_max
    i_idle = cols.i_idle
    active_demand = cols.active_demand

    with np.errstate(divide="ignore", invalid="ignore"):
        # 1. flat optimum (Eq. 11/13) and range clamp.
        flat = _pymax((cols.total_demand + c_end - c_ini) / cols.total_time, 0.0)
        clamped_pos = ~((flat >= lo - _EPS) & (flat <= hi + _EPS))
        if_flat = _pymin(_pymax(flat, lo), hi)

        t_pos = t_i > 0.0

        # 2. t_idle > 0: Eq. 12 capacity check at the idle/active boundary.
        c_mid0 = c_ini + (if_flat - i_idle) * t_i
        over = t_pos & (c_mid0 > c_max + _EPS)
        if_over = (c_max - c_ini) / t_i + i_idle
        if_over = np.where(if_over < lo, lo, if_over)  # floor-overflow bleed
        under = t_pos & ~over & (c_mid0 < -_EPS)
        if_under = i_idle - c_ini / t_i
        if_under = np.where(if_under > hi, hi, if_under)
        capacity_limited = over | under
        if_i_pos = np.where(over, if_over, np.where(under, if_under, if_flat))

        # 3. re-derive IF,a from the charge balance where any constraint
        #    bit; elsewhere IF,a = IF,i stays flat.  The recompute of
        #    c_mid with an unchanged IF,i is bitwise the original.
        redo = t_pos & (capacity_limited | clamped_pos)
        c_mid_pos = c_ini + (if_i_pos - i_idle) * t_i
        bled_idle_pos = np.where(redo, _pymax(c_mid_pos - c_max, 0.0), 0.0)
        deficit_idle_pos = np.where(redo, _pymax(-c_mid_pos, 0.0), 0.0)
        c_mid_pos = np.where(redo, _pymin(_pymax(c_mid_pos, 0.0), c_max), c_mid_pos)
        if_a_redo = _pymin(
            _pymax((active_demand + c_end - c_mid_pos) / t_a, lo), hi
        )
        if_a_pos = np.where(redo, if_a_redo, if_i_pos)

        # 4. t_idle == 0: only the active output is free.
        if_a_free = (active_demand + c_end - c_ini) / t_a
        clamped_z = ~((if_a_free >= lo - _EPS) & (if_a_free <= hi + _EPS))
        if_a_z = _pymin(_pymax(if_a_free, lo), hi)

        # 5. merge the two top-level branches.
        if_i = np.where(t_pos, if_i_pos, if_a_z)
        if_a = np.where(t_pos, if_a_pos, if_a_z)
        c_mid = np.where(t_pos, c_mid_pos, c_ini)
        clamped = np.where(t_pos, clamped_pos, clamped_z)
        bled_idle = np.where(t_pos, bled_idle_pos, 0.0)
        deficit_idle = np.where(t_pos, deficit_idle_pos, 0.0)

        # 6. slot-end storage with range-limited IF,a; clip + residue.
        c_after = c_mid + if_a * t_a - active_demand
        bled_active = _pymax(c_after - c_max, 0.0)
        deficit_active = _pymax(-c_after, 0.0)
        c_after = _pymin(_pymax(c_after, 0.0), c_max)

    ifc_idle = model.fuel_map_array(if_i)
    ifc_active = model.fuel_map_array(if_a)
    return SlotSolutionColumns(
        if_idle=if_i,
        if_active=if_a,
        ifc_idle=ifc_idle,
        ifc_active=ifc_active,
        fuel=ifc_idle * cols.t_idle + ifc_active * t_a,
        c_after_idle=c_mid,
        c_after_slot=c_after,
        range_clamped=clamped,
        capacity_limited=capacity_limited,
        bled=bled_idle + bled_active,
        deficit=deficit_idle + deficit_active,
    )
