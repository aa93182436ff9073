"""repro: fuel-cell-aware dynamic power management (FC-DPM).

A complete, from-scratch reproduction of

    Jianli Zhuo, Chaitali Chakrabarti, Kyungsoo Lee, Naehyuck Chang,
    "Dynamic Power Management with Hybrid Power Sources", DAC 2007.

The package provides the fuel-cell hybrid power source substrate
(:mod:`repro.fuelcell`, :mod:`repro.power`), embedded-device and
workload models (:mod:`repro.devices`, :mod:`repro.workload`), DPM
policies and predictors (:mod:`repro.dpm`, :mod:`repro.prediction`),
the paper's optimization framework and FC-DPM algorithm
(:mod:`repro.core`), simulators (:mod:`repro.sim`), declarative
experiment scenarios (:mod:`repro.scenario`) and experiment
regeneration (:mod:`repro.analysis`).

Quickstart::

    from repro import table2
    result = table2()
    print(result.normalized)   # {'conv-dpm': 1.0, 'asap-dpm': ~0.40, ...}
"""

from .config import PAPER, PaperConstants, FCSystemConstants
from .errors import ReproError
from .fuelcell import (
    FCStack,
    FCSystem,
    FuelTank,
    LinearSystemEfficiency,
    ConstantSystemEfficiency,
    ComposedSystemEfficiency,
)
from .power import (
    BatteryOnlySource,
    HybridPowerSource,
    LiIonBattery,
    MultiStackHybrid,
    PowerSource,
    SuperCapacitor,
)
from .devices import (
    DeviceParams,
    camcorder_device_params,
    randomized_device_params,
)
from .workload import LoadTrace, TaskSlot, generate_mpeg_trace, experiment2_trace
from .prediction import ExponentialAveragePredictor
from .dpm import PredictiveShutdownPolicy
from .core import (
    SlotProblem,
    SlotSolution,
    solve_slot,
    optimal_flat_current,
    FCDPMController,
    ConvDPMController,
    ASAPDPMController,
    PowerManager,
)
from .sim import SlotSimulator, simulate_policies
from .scenario import Scenario, get_scenario, scenario_names
from .analysis import table2, table3, fig4_motivational

__version__ = "1.0.0"

__all__ = [
    "PAPER",
    "PaperConstants",
    "FCSystemConstants",
    "ReproError",
    "FCStack",
    "FCSystem",
    "FuelTank",
    "LinearSystemEfficiency",
    "ConstantSystemEfficiency",
    "ComposedSystemEfficiency",
    "PowerSource",
    "HybridPowerSource",
    "MultiStackHybrid",
    "BatteryOnlySource",
    "SuperCapacitor",
    "LiIonBattery",
    "DeviceParams",
    "camcorder_device_params",
    "randomized_device_params",
    "LoadTrace",
    "TaskSlot",
    "generate_mpeg_trace",
    "experiment2_trace",
    "ExponentialAveragePredictor",
    "PredictiveShutdownPolicy",
    "SlotProblem",
    "SlotSolution",
    "solve_slot",
    "optimal_flat_current",
    "FCDPMController",
    "ConvDPMController",
    "ASAPDPMController",
    "PowerManager",
    "SlotSimulator",
    "simulate_policies",
    "Scenario",
    "get_scenario",
    "scenario_names",
    "table2",
    "table3",
    "fig4_motivational",
    "__version__",
]
