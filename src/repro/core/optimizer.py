"""The Section-3 optimization framework: fuel-optimal FC output setting.

For one task slot the problem is

    min   Ifc(IF,i) * Ti + Ifc(IF,a) * Ta_eff                     (Eq. 5)
    s.t.  Cini + (IF,i - Ild,i) * Ti = Cend + demand_a - IF,a * Ta_eff
                                                                   (Eq. 6/13)
          IF,i, IF,a in [IF_min, IF_max]
          0 <= storage <= Cmax throughout

With the paper's linear efficiency law the fuel map
``Ifc = k*IF/(alpha - beta*IF)`` is strictly convex and increasing, so
the Lagrange conditions (Eq. 8-10) force ``IF,i = IF,a``: the optimal
unconstrained output is **flat** at the charge-weighted average load

    IF* = (demand_total + Cend - Cini) / (Ti + Ta_eff)             (Eq. 11)

:func:`solve_slot` implements the paper's full decision procedure --
Eq. 11, range clamping, the ``Cmax`` correction, ``Cend != Cini``
(Eq. 13) and the Section-3.3.2 transition overheads -- entirely in
closed form.  :func:`solve_slot_numeric` cross-checks it with a generic
convex solver (and supports non-linear efficiency models for the
ablation benches).  :func:`solve_horizon` extends the argument to a
whole trace -- exactly, as the taut string through the storage tube --
giving the offline optimum used as a lower bound.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from ..errors import InfeasibleError, RangeError
from ..fuelcell.efficiency import SystemEfficiencyModel
from .setting import SlotProblem, SlotSolution

#: Numerical slack used when testing constraint activity.
_EPS = 1e-9


def optimal_flat_current(problem: SlotProblem) -> float:
    """The unconstrained optimum of Eq. 11 / Eq. 13 (A).

    ``IF,i = IF,a = (demand_total + Cend - Cini) / (Ti + Ta_eff)``.
    Transition overheads are included through ``demand`` and ``Ta_eff``
    exactly as in Section 3.3.2.
    """
    flat = (problem.total_demand + problem.c_end - problem.c_ini) / problem.total_time
    return max(flat, 0.0)


def _fuel(model: SystemEfficiencyModel, problem: SlotProblem, if_i: float, if_a: float) -> float:
    return model.fc_current(if_i) * problem.t_idle + model.fc_current(
        if_a
    ) * problem.t_active_eff


def solve_slot(problem: SlotProblem, model: SystemEfficiencyModel) -> SlotSolution:
    """Closed-form solution of the single-slot problem (paper Section 3.3).

    Follows the paper's procedure:

    1. compute the flat optimum (Eq. 11/13);
    2. clamp into the load-following range;
    3. check the storage-capacity constraint at the idle/active boundary
       (Eq. 12); if violated, lower ``IF,i`` to just fill the storage
       and re-derive ``IF,a`` from the charge balance;
    4. symmetrically, raise ``IF,i`` if the storage would be driven
       below empty during the idle period;
    5. account any residual overflow (bleeder by-pass) or shortfall
       (deficit) forced by the range limits.

    The returned solution always describes *physically realizable*
    behaviour: storage endpoints are clipped to ``[0, Cmax]`` with the
    clipped charge reported in ``bled`` / ``deficit``.
    """
    lo, hi = model.if_min, model.if_max
    t_i, t_a = problem.t_idle, problem.t_active_eff

    flat = optimal_flat_current(problem)
    clamped = not (lo - _EPS <= flat <= hi + _EPS)
    if_i = min(max(flat, lo), hi)
    if_a = if_i
    capacity_limited = False

    if t_i > 0:
        # Storage level at the idle/active boundary (Eq. 12 check).
        c_mid = problem.c_ini + (if_i - problem.i_idle) * t_i
        if c_mid > problem.c_max + _EPS:
            # Idle surplus would overflow: lower IF,i to just fill it.
            capacity_limited = True
            if_i = (problem.c_max - problem.c_ini) / t_i + problem.i_idle
            if if_i < lo:
                # Extreme case: even the range floor overflows; the
                # excess goes through the bleeder by-pass.
                if_i = lo
        elif c_mid < -_EPS:
            # Idle shortfall would empty the storage: raise IF,i.
            capacity_limited = True
            if_i = problem.i_idle - problem.c_ini / t_i
            if if_i > hi:
                if_i = hi
        if capacity_limited or clamped:
            # Re-derive IF,a from the charge balance (Eq. 6/13) given the
            # realizable c_mid, then clamp.
            c_mid = problem.c_ini + (if_i - problem.i_idle) * t_i
            bled_idle = max(c_mid - problem.c_max, 0.0)
            deficit_idle = max(-c_mid, 0.0)
            c_mid = min(max(c_mid, 0.0), problem.c_max)
            if_a = (problem.active_demand + problem.c_end - c_mid) / t_a
            if_a = min(max(if_a, lo), hi)
        else:
            bled_idle = 0.0
            deficit_idle = 0.0
    else:
        # No idle period: only the active output is free.
        if_a = (problem.active_demand + problem.c_end - problem.c_ini) / t_a
        clamped = not (lo - _EPS <= if_a <= hi + _EPS)
        if_a = min(max(if_a, lo), hi)
        if_i = if_a
        c_mid = problem.c_ini
        bled_idle = 0.0
        deficit_idle = 0.0

    if t_i > 0 and not (capacity_limited or clamped):
        c_mid = problem.c_ini + (if_i - problem.i_idle) * t_i

    # Slot-end storage with range-limited IF,a; clip and account residue.
    c_after = c_mid + if_a * t_a - problem.active_demand
    bled_active = max(c_after - problem.c_max, 0.0)
    deficit_active = max(-c_after, 0.0)
    c_after = min(max(c_after, 0.0), problem.c_max)

    return SlotSolution(
        if_idle=if_i,
        if_active=if_a,
        ifc_idle=model.fc_current(if_i),
        ifc_active=model.fc_current(if_a),
        fuel=_fuel(model, problem, if_i, if_a),
        c_after_idle=c_mid,
        c_after_slot=c_after,
        range_clamped=clamped,
        capacity_limited=capacity_limited,
        bled=bled_idle + bled_active,
        deficit=deficit_idle + deficit_active,
    )


def solve_slot_numeric(
    problem: SlotProblem, model: SystemEfficiencyModel
) -> SlotSolution:
    """Generic convex solve of the single-slot problem (SLSQP).

    Works with *any* efficiency model (the ablation benches use the
    physically composed one).  For the linear law it must agree with
    :func:`solve_slot` wherever the charge balance is feasible -- that
    agreement is asserted by the test suite.
    """
    lo, hi = model.if_min, model.if_max
    t_i, t_a = problem.t_idle, problem.t_active_eff

    if t_i == 0:
        return solve_slot(problem, model)

    def objective(x: np.ndarray) -> float:
        return model.fc_current(float(x[0])) * t_i + model.fc_current(
            float(x[1])
        ) * t_a

    def balance(x: np.ndarray) -> float:
        c_after = (
            problem.c_ini
            + (x[0] - problem.i_idle) * t_i
            + x[1] * t_a
            - problem.active_demand
        )
        return c_after - problem.c_end

    def headroom(x: np.ndarray) -> float:
        c_mid = problem.c_ini + (x[0] - problem.i_idle) * t_i
        return problem.c_max - c_mid if np.isfinite(problem.c_max) else 1.0

    def floor(x: np.ndarray) -> float:
        return problem.c_ini + (x[0] - problem.i_idle) * t_i

    x0 = np.full(2, min(max(optimal_flat_current(problem), lo), hi))
    result = optimize.minimize(
        objective,
        x0,
        method="SLSQP",
        bounds=[(lo, hi), (lo, hi)],
        constraints=[
            {"type": "eq", "fun": balance},
            {"type": "ineq", "fun": headroom},
            {"type": "ineq", "fun": floor},
        ],
        options={"maxiter": 200, "ftol": 1e-12},
    )
    if not result.success:
        # The equality constraint can be infeasible within the range box
        # (e.g. load demand beyond what IF_max + storage covers); the
        # closed-form solver handles those by reporting deficits.
        raise InfeasibleError(f"numeric slot solve failed: {result.message}")
    if_i, if_a = float(result.x[0]), float(result.x[1])
    c_mid = problem.c_ini + (if_i - problem.i_idle) * t_i
    c_after = c_mid + if_a * t_a - problem.active_demand
    return SlotSolution(
        if_idle=if_i,
        if_active=if_a,
        ifc_idle=model.fc_current(if_i),
        ifc_active=model.fc_current(if_a),
        fuel=float(result.fun),
        c_after_idle=c_mid,
        c_after_slot=c_after,
        range_clamped=bool(
            abs(if_i - lo) < 1e-7
            or abs(if_i - hi) < 1e-7
            or abs(if_a - lo) < 1e-7
            or abs(if_a - hi) < 1e-7
        ),
        capacity_limited=bool(
            np.isfinite(problem.c_max) and abs(c_mid - problem.c_max) < 1e-6
        ),
    )


def solve_horizon(
    durations,
    demands,
    model: SystemEfficiencyModel,
    c_ini: float = 0.0,
    c_end: float | None = None,
    c_max: float = float("inf"),
):
    """Offline fuel-optimal flat-where-possible schedule over many periods.

    This extends the paper's single-slot Lagrange argument to a whole
    horizon (an explicit "future work" direction of the paper): given
    period ``durations`` (s) and load-charge ``demands`` (A-s), choose a
    per-period FC output minimizing total fuel subject to the storage
    staying in ``[0, c_max]`` and finishing at ``c_end``.

    In cumulative FC charge ``F`` at the period ends the storage bounds
    form a tube ``Q_k - c_ini <= F_k <= Q_k - c_ini + c_max`` (``Q_k`` the
    cumulative demand) with the last knot pinned to
    ``Q_n + c_end - c_ini``.  The shortest path through that tube -- the
    taut string -- minimizes ``sum(t_k * f(x_k))`` for every convex ``f``
    at once, so it is exact for any convex fuel map: outputs are flat
    wherever storage allows and bend only where the storage touches a
    bound.  The ``[IF_min, IF_max]`` box is convex too, so the taut string
    stays inside it whenever any feasible schedule exists; otherwise
    :class:`InfeasibleError` is raised.  Returns ``(outputs, fuel)``.
    """
    t = np.asarray(durations, dtype=float)
    q = np.asarray(demands, dtype=float)
    if t.ndim != 1 or t.shape != q.shape or t.size == 0:
        raise RangeError("durations and demands must be matching 1-D arrays")
    if np.any(t <= 0) or np.any(q < 0):
        raise RangeError("durations must be positive and demands non-negative")
    target = c_ini if c_end is None else c_end
    if not 0.0 <= target <= c_max:
        raise InfeasibleError(
            f"horizon end charge {target} outside the storage range [0, {c_max}]"
        )
    lo, hi = model.if_min, model.if_max

    n = t.size
    knots = np.concatenate(([0.0], np.cumsum(t))).tolist()
    lower = np.concatenate(([0.0], np.cumsum(q) - c_ini)).tolist()
    upper = [b + c_max for b in lower]
    # The pinned end is summed as the flat level of Eq. 11/13 is, so an
    # unconstrained horizon returns exactly that level.
    knots[n] = float(t.sum())
    lower[n] = upper[n] = float(q.sum() + target - c_ini)

    # Funnel walk: from the current vertex keep the steepest slope to a
    # lower bound and the shallowest slope to an upper bound; when one
    # side's new bound crosses the other side's tightest slope, the string
    # bends at the knot that set that slope.
    outputs = [0.0] * n
    start, f0 = 0, 0.0
    while start < n:
        lo_slope, up_slope = -np.inf, np.inf
        lo_knot = up_knot = start + 1
        for k in range(start + 1, n + 1):
            span = knots[k] - knots[start]
            s_lo = (lower[k] - f0) / span
            s_up = (upper[k] - f0) / span
            if s_lo > up_slope:
                end, f_end = up_knot, upper[up_knot]
                break
            if s_up < lo_slope:
                end, f_end = lo_knot, lower[lo_knot]
                break
            if s_lo > lo_slope:
                lo_slope, lo_knot = s_lo, k
            if s_up < up_slope:
                up_slope, up_knot = s_up, k
        else:
            end, f_end = n, lower[n]
        slope = (f_end - f0) / (knots[end] - knots[start])
        outputs[start:end] = [slope] * (end - start)
        start, f0 = end, f_end

    x = np.asarray(outputs)
    if x.min() < lo - _EPS or x.max() > hi + _EPS:
        raise InfeasibleError(
            f"horizon needs outputs in [{x.min():.6g}, {x.max():.6g}] A, "
            f"outside the load-following range [{lo}, {hi}]"
        )
    fuel = sum(model.fc_current(float(v)) * ti for v, ti in zip(x, t))
    return x, float(fuel)
