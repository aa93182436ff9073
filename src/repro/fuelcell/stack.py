"""FC stack model: the paper's Fig. 2 object.

Wraps a :class:`~repro.fuelcell.polarization.PolarizationCurve` with the
stack-level quantities the paper uses: output characteristics
``Vfc(Ifc)`` / ``P(Ifc)``, the maximum power capacity, and the
load-following range derived from it.
"""

from __future__ import annotations

import numpy as np

from ..config import FCSystemConstants
from ..errors import ConfigurationError
from .polarization import BCS_20W_CELL, PolarizationCurve, PolarizationParams


class FCStack:
    """A series stack of PEM cells.

    Parameters
    ----------
    params:
        Per-cell polarization parameters (defaults to the BCS 20 W
        calibration).
    n_cells:
        Series cell count (paper: 20).
    """

    def __init__(
        self,
        params: PolarizationParams = BCS_20W_CELL,
        n_cells: int = 20,
    ) -> None:
        self.curve = PolarizationCurve(params, n_cells=n_cells)
        self.n_cells = n_cells

    @classmethod
    def bcs_20w(cls) -> "FCStack":
        """The paper's BCS 20 W, 20-cell stack."""
        return cls(BCS_20W_CELL, n_cells=20)

    # -- electrical characteristics ----------------------------------------

    @property
    def open_circuit_voltage(self) -> float:
        """Stack voltage at zero current (paper: Vo = 18.2 V)."""
        return float(self.curve.stack_voltage(0.0))

    def voltage(self, i_fc: float | np.ndarray) -> float | np.ndarray:
        """Stack voltage ``Vfc`` (V) at stack current ``Ifc`` (A)."""
        return self.curve.stack_voltage(i_fc)

    def power(self, i_fc: float | np.ndarray) -> float | np.ndarray:
        """Stack output power (W) at stack current ``Ifc`` (A)."""
        return self.curve.stack_power(i_fc)

    @property
    def max_power_point(self) -> tuple[float, float]:
        """``(Ifc_A, P_W)`` at maximum output power (cached on the curve)."""
        return self.curve.max_power_point()

    @property
    def power_capacity(self) -> float:
        """Maximum deliverable power (W); determines load-following extent."""
        return self.max_power_point[1]

    def current_for_power(
        self, power_w: float | np.ndarray
    ) -> float | np.ndarray:
        """Stack current needed to source ``power_w`` on the rising branch."""
        return self.curve.current_for_power(power_w)

    # -- efficiency ----------------------------------------------------------

    def stack_efficiency(
        self, i_fc: float | np.ndarray, zeta: float = FCSystemConstants().zeta
    ) -> float | np.ndarray:
        """Stack efficiency ``Vfc / zeta`` (paper Section 2.3).

        The paper defines stack efficiency as stack power over Gibbs power
        ``zeta * Ifc``; the ``Ifc`` cancels, leaving ``Vfc / zeta`` -- the
        efficiency tracks the polarization voltage.
        """
        if zeta <= 0:
            raise ConfigurationError("zeta must be positive")
        return self.voltage(i_fc) / zeta

    def sweep(self, n_points: int = 200, i_max: float | None = None):
        """``(Ifc, Vfc, P)`` arrays for plotting Fig. 2."""
        return self.curve.sweep(n_points=n_points, i_max=i_max)
