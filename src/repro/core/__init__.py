"""The paper's contribution: fuel-optimal FC output setting and FC-DPM.

* :mod:`repro.core.optimizer` -- the Section-3 optimization framework
  (unconstrained, range-clamped, capacity-limited, ``Cend != Cini`` and
  transition-overhead variants, plus a multi-slot offline extension);
* :mod:`repro.core.fc_dpm` -- Algorithm FC-DPM (Fig. 5), the online
  controller built on prediction;
* :mod:`repro.core.baselines` -- the paper's competing controllers
  Conv-DPM and ASAP-DPM;
* :mod:`repro.core.manager` -- the joint device + source power manager.
"""

from .setting import SlotProblem, SlotSolution, FCOutputPlan, PlanSegment
from .optimizer import (
    optimal_flat_current,
    solve_slot,
    solve_slot_numeric,
    solve_horizon,
)
from .baselines import (
    SourceController,
    SegmentContext,
    ConvDPMController,
    ASAPDPMController,
    StaticController,
)
from .fc_dpm import FCDPMController
from .receding import RecedingHorizonController
from .oracle_controller import OracleFCDPMController
from .manager import PowerManager

__all__ = [
    "SlotProblem",
    "SlotSolution",
    "FCOutputPlan",
    "PlanSegment",
    "optimal_flat_current",
    "solve_slot",
    "solve_slot_numeric",
    "solve_horizon",
    "SourceController",
    "SegmentContext",
    "ConvDPMController",
    "ASAPDPMController",
    "StaticController",
    "FCDPMController",
    "RecedingHorizonController",
    "OracleFCDPMController",
    "PowerManager",
]
