"""PEM fuel-cell polarization (I-V) physics.

A proton-exchange-membrane cell under load sees three loss mechanisms on
top of its open-circuit voltage (Larminie & Dicks, paper ref [12]):

* **activation** loss  -- Tafel kinetics at the electrodes,
  ``A * ln(1 + i / i0)``;
* **ohmic** loss       -- membrane + contact resistance, ``R * i``;
* **concentration** loss -- reactant starvation near the limiting
  current, ``m * (exp(n * i) - 1)``.

The stack in the paper (BCS 20 W, 20 cells, room-temperature hydrogen at
2 psig) is only published as a measured curve (Fig. 2).  We substitute a
physics model whose parameters are calibrated so the *anchor points* the
paper actually uses survive: open-circuit voltage 18.2 V, a maximum power
of ~20 W near 1.4-1.5 A, and a monotonically falling V(I) over the
load-following range.  Everything downstream (efficiency shape, the
linear ``eta_s`` fit) follows from those anchors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, RangeError


@dataclass(frozen=True)
class PolarizationParams:
    """Per-cell polarization parameters.

    Attributes
    ----------
    e0:
        Open-circuit cell voltage (V).
    tafel_a:
        Tafel slope ``A`` (V).
    i0:
        Exchange current (A) -- sets where activation loss saturates.
    r_ohm:
        Area-lumped ohmic resistance (ohm).
    m, n:
        Concentration-loss coefficients: ``m * (exp(n * i) - 1)`` (V, 1/A).
    i_limit:
        Hard limiting current (A); the model is undefined beyond it.
    """

    e0: float
    tafel_a: float
    i0: float
    r_ohm: float
    m: float
    n: float
    i_limit: float

    def __post_init__(self) -> None:
        if self.e0 <= 0:
            raise ConfigurationError("open-circuit voltage must be positive")
        if min(self.tafel_a, self.i0, self.r_ohm, self.m, self.n) < 0:
            raise ConfigurationError("loss coefficients must be non-negative")
        if self.i_limit <= 0:
            raise ConfigurationError("limiting current must be positive")


class PolarizationCurve:
    """Evaluate cell/stack voltage and power as a function of current.

    Parameters
    ----------
    params:
        Per-cell loss parameters.
    n_cells:
        Number of series cells in the stack.
    """

    def __init__(self, params: PolarizationParams, n_cells: int = 1) -> None:
        if n_cells < 1:
            raise ConfigurationError("a stack needs at least one cell")
        self.params = params
        self.n_cells = n_cells
        self._mpp: tuple[float, float] | None = None

    # -- scalar / vector evaluation ---------------------------------------

    def cell_voltage(self, current: float | np.ndarray) -> float | np.ndarray:
        """Single-cell voltage (V) at ``current`` (A).

        Raises :class:`RangeError` for negative currents or currents at or
        beyond the limiting current.
        """
        i = np.asarray(current, dtype=float)
        if np.any(i < 0):
            raise RangeError("fuel-cell current cannot be negative")
        if np.any(i >= self.params.i_limit):
            raise RangeError(
                f"current {float(np.max(i)):.3f} A reaches the limiting "
                f"current {self.params.i_limit:.3f} A"
            )
        p = self.params
        activation = p.tafel_a * np.log1p(i / p.i0)
        ohmic = p.r_ohm * i
        concentration = p.m * np.expm1(p.n * i)
        v = p.e0 - activation - ohmic - concentration
        v = np.maximum(v, 0.0)
        return float(v) if np.isscalar(current) else v

    def stack_voltage(self, current: float | np.ndarray) -> float | np.ndarray:
        """Stack voltage (V): ``n_cells`` series cells at ``current`` (A)."""
        return self.cell_voltage(current) * self.n_cells

    def stack_power(self, current: float | np.ndarray) -> float | np.ndarray:
        """Stack output power (W) at ``current`` (A)."""
        return self.stack_voltage(current) * np.asarray(current, dtype=float)

    # -- derived characteristics -------------------------------------------

    def max_power_point(self) -> tuple[float, float]:
        """Locate the maximum power point (searched once per curve).

        Returns ``(current_A, power_W)``.  Uses a dense grid search over
        ``[0, i_limit)`` followed by a parabolic refinement; the curve is
        smooth and unimodal in practice so this is robust and fast.
        """
        if self._mpp is None:
            self._mpp = self._search_max_power()
        return self._mpp

    def _search_max_power(self) -> tuple[float, float]:
        resolution = 20_001
        grid = np.linspace(0.0, self.params.i_limit * (1 - 1e-6), resolution)
        power = self.stack_power(grid)
        k = int(np.argmax(power))
        if 0 < k < resolution - 1:
            # Parabolic interpolation through the three best samples.
            x0, x1, x2 = grid[k - 1 : k + 2]
            y0, y1, y2 = power[k - 1 : k + 2]
            denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
            if denom != 0:
                a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
                b = (
                    x2 * x2 * (y0 - y1)
                    + x1 * x1 * (y2 - y0)
                    + x0 * x0 * (y1 - y2)
                ) / denom
                if a < 0:
                    x_star = -b / (2 * a)
                    if x0 <= x_star <= x2:
                        return x_star, float(self.stack_power(x_star))
        return float(grid[k]), float(power[k])

    def current_for_power(
        self, power_w: float | np.ndarray, tol: float = 1e-9
    ) -> float | np.ndarray:
        """Smallest stack current that delivers ``power_w`` (W).

        The stack power rises from 0 to its maximum-power point; on that
        rising branch the map is invertible by bisection.  ``power_w`` may
        be a float or an array: every element bisects the same
        ``[0, i_mpp]`` bracket in lockstep and freezes at the step where
        its own bracket narrows to ``tol``, so each result is exactly
        what a lone call for that element returns.  A zero demand maps
        to 0 A.  Any negative demand, or one above the maximum power,
        raises :class:`RangeError`.
        """
        power = np.asarray(power_w, dtype=float)
        if np.any(power < 0):
            raise RangeError("power demand cannot be negative")
        i_mpp, p_max = self.max_power_point()
        if np.any(power > p_max):
            raise RangeError(
                f"demand {float(np.max(power)):.2f} W exceeds stack "
                f"capacity {p_max:.2f} W"
            )
        lo = np.zeros(power.shape)
        hi = np.full(power.shape, i_mpp)
        live = hi - lo > tol
        while np.any(live):
            mid = 0.5 * (lo + hi)
            below = self.stack_power(mid) < power
            lo = np.where(live & below, mid, lo)
            hi = np.where(live & ~below, mid, hi)
            live = hi - lo > tol
        current = np.where(power == 0, 0.0, 0.5 * (lo + hi))
        return float(current) if current.ndim == 0 else current

    def sweep(self, n_points: int = 200, i_max: float | None = None):
        """Sample the curve for plotting (regenerates paper Fig. 2).

        Returns ``(current, voltage, power)`` arrays.
        """
        top = self.params.i_limit * (1 - 1e-6) if i_max is None else i_max
        i = np.linspace(0.0, top, n_points)
        v = self.stack_voltage(i)
        return i, v, v * i


# ---------------------------------------------------------------------------
# BCS 20 W calibration
# ---------------------------------------------------------------------------

#: Per-cell parameters calibrated against the paper's Fig. 2 anchors:
#: open-circuit 18.2 V (0.91 V/cell), ~20 W maximum power near 1.45 A,
#: and a gently falling voltage over the 0.1-1.2 A load-following range.
BCS_20W_CELL = PolarizationParams(
    e0=0.91,
    tafel_a=0.022,
    i0=0.015,
    r_ohm=0.045,
    m=3.0e-5,
    n=5.2,
    i_limit=1.9,
)
