"""Fuel-cell substrate: stack physics, efficiency models, fuel accounting.

The paper characterizes a BCS 20 W, 20-cell room-temperature hydrogen PEM
stack (Fig. 2 / Fig. 3) and reduces its *system* efficiency to a linear
law ``eta_s = alpha - beta * IF`` used by the optimization framework.
This subpackage provides both layers:

* a physics-based polarization model calibrated to the paper's anchor
  points, used to regenerate Fig. 2 and Fig. 3, and
* the calibrated linear efficiency law plus the ``Ifc(IF)`` fuel map
  (Eq. 3/4) that the FC-DPM policy math builds on.
"""

from .polarization import PolarizationCurve, PolarizationParams, BCS_20W_CELL
from .stack import FCStack
from .efficiency import (
    SystemEfficiencyModel,
    LinearSystemEfficiency,
    ConstantSystemEfficiency,
    TabulatedSystemEfficiency,
    ComposedSystemEfficiency,
    StackEfficiency,
)
from .fuel import FuelTank, GibbsFuelModel
from .controller import FanController, OnOffFanController, ProportionalFanController
from .system import FCSystem
from .purge import PurgeModel, PurgedFuelModel, calibrated_purge_model, ideal_zeta
from .sizing import SizingResult, required_fc_output, downsizing_curve

__all__ = [
    "PolarizationCurve",
    "PolarizationParams",
    "BCS_20W_CELL",
    "FCStack",
    "SystemEfficiencyModel",
    "LinearSystemEfficiency",
    "ConstantSystemEfficiency",
    "TabulatedSystemEfficiency",
    "ComposedSystemEfficiency",
    "StackEfficiency",
    "FuelTank",
    "GibbsFuelModel",
    "FanController",
    "OnOffFanController",
    "ProportionalFanController",
    "FCSystem",
    "PurgeModel",
    "PurgedFuelModel",
    "calibrated_purge_model",
    "ideal_zeta",
    "SizingResult",
    "required_fc_output",
    "downsizing_curve",
]
