"""Parameter sweeps for the ablation studies called out in DESIGN.md.

Each sweep runs the full Experiment-1 style simulation while varying a
single design knob, returning plain result dictionaries the ablation
benches print.

Every public sweep is a *thin client* of the experiment orchestration
layer: it builds a declarative
:func:`~repro.exp.spec.sweep_spec`, runs it ephemerally through
:func:`~repro.exp.runner.run_experiment` (no state file, no cache
writes), and reduces the per-cell values with
:meth:`~repro.exp.results.ExperimentResults.by_knob` -- byte-identical
to the historical direct ``ParallelMap`` fan-out, including under
``workers>1``.  The per-point task functions below stay here; the
``sweep.*`` task kinds in :mod:`repro.exp.tasks` call back into them.
"""

from __future__ import annotations

from ..core.fc_dpm import FCDPMController
from ..core.manager import PowerManager
from ..devices.camcorder import camcorder_device_params
from ..devices.device import DeviceParams
from ..dpm.predictive import PredictiveShutdownPolicy
from ..errors import ConfigurationError
from ..fuelcell.efficiency import LinearSystemEfficiency
from ..prediction.base import LastValuePredictor
from ..prediction.exponential import ExponentialAveragePredictor
from ..prediction.learning_tree import LearningTreePredictor
from ..prediction.regression import RegressionPredictor
from ..sim.slotsim import simulate_policies
from ..workload.mpeg import generate_mpeg_trace
from ..workload.trace import LoadTrace


def _exp1_trace(seed: int) -> LoadTrace:
    return generate_mpeg_trace(seed=seed)


def _sweep_base(scenario, seed: int) -> tuple[LoadTrace, DeviceParams]:
    """Workload + device for a sweep: Experiment 1 or a named scenario.

    ``scenario`` is a registry name or a
    :class:`~repro.scenario.spec.Scenario`; ``None`` keeps the historical
    Experiment-1 default bit-identically.  Only the scenario's workload
    and device are used -- the swept knob itself overrides the rest.
    """
    if scenario is None:
        return _exp1_trace(seed), camcorder_device_params()
    from ..scenario import Scenario, get_scenario

    sc = scenario if isinstance(scenario, Scenario) else get_scenario(scenario)
    return sc.build_trace(seed), sc.build_device()


# -- per-point task functions (module-level so they pickle) -----------------


def _storage_capacity_point(
    trace: LoadTrace, dev: DeviceParams, cap: float
) -> dict[str, float]:
    managers = [
        PowerManager.conv_dpm(dev, storage_capacity=cap, storage_initial=cap / 2),
        PowerManager.asap_dpm(dev, storage_capacity=cap, storage_initial=cap / 2),
        PowerManager.fc_dpm(dev, storage_capacity=cap, storage_initial=cap / 2),
    ]
    results = simulate_policies(trace, managers)
    conv = results["conv-dpm"].fuel
    return {name: r.fuel / conv for name, r in results.items()}


def _efficiency_slope_point(
    trace: LoadTrace, dev: DeviceParams, beta: float
) -> float:
    model = LinearSystemEfficiency(alpha=0.45, beta=beta)
    managers = [
        PowerManager.asap_dpm(
            dev, model=model, storage_capacity=6.0, storage_initial=3.0
        ),
        PowerManager.fc_dpm(
            dev, model=model, storage_capacity=6.0, storage_initial=3.0
        ),
    ]
    results = simulate_policies(trace, managers)
    return 1.0 - results["fc-dpm"].fuel / results["asap-dpm"].fuel


def _recharge_threshold_point(
    trace: LoadTrace, dev: DeviceParams, th: float
) -> float:
    managers = [
        PowerManager.conv_dpm(dev, storage_capacity=6.0, storage_initial=3.0),
        PowerManager.asap_dpm(
            dev,
            storage_capacity=6.0,
            storage_initial=3.0,
            recharge_threshold=th,
        ),
    ]
    results = simulate_policies(trace, managers)
    return results["asap-dpm"].fuel / results["conv-dpm"].fuel


#: Idle-period predictor menu for :func:`predictor_sweep`.  Factories
#: live in this table (not in closures) so the parallel task only ships
#: the *name* to the worker.
_PREDICTOR_FACTORIES = {
    "fc-exponential": lambda: ExponentialAveragePredictor(factor=0.5),
    "fc-lastvalue": lambda: LastValuePredictor(initial=10.0),
    "fc-regression": lambda: RegressionPredictor(order=2, window=24),
    "fc-learningtree": lambda: LearningTreePredictor(
        bin_edges=[9.0, 11.0, 13.0, 15.0, 17.0], depth=2, initial=12.0
    ),
}


def _predictor_point(
    trace: LoadTrace, dev: DeviceParams, name: str
) -> float:
    model = LinearSystemEfficiency()
    idle_predictor = _PREDICTOR_FACTORIES[name]()
    policy = PredictiveShutdownPolicy(dev, idle_predictor)
    controller = FCDPMController(
        model,
        active_length_predictor=ExponentialAveragePredictor(factor=0.5),
        idle_length_predictor=idle_predictor,
        device=dev,
    )
    controller.observes_idle = False
    mgr = PowerManager.fc_dpm(dev, storage_capacity=6.0, storage_initial=3.0)
    mgr.name = name
    mgr.policy = policy
    mgr.controller = controller
    managers = [
        PowerManager.conv_dpm(dev, storage_capacity=6.0, storage_initial=3.0),
        mgr,
    ]
    results = simulate_policies(trace, managers)
    return results[name].fuel / results["conv-dpm"].fuel


# -- public sweeps (thin clients of repro.exp) -------------------------------


def _run_sweep(sweep: str, values, seed: int, scenario, workers: int):
    """Build the sweep's spec, run it ephemerally, reduce by knob."""
    # Lazy import: repro.exp.tasks calls back into this module's point
    # functions, so a top-level import would be circular.
    from ..exp import ExperimentResults, run_experiment, sweep_spec
    from ..exp.spec import SWEEP_KINDS

    spec = sweep_spec(sweep, values, seed=seed, scenario=scenario)
    run = run_experiment(spec, workers=workers)
    return ExperimentResults.from_run(run).by_knob(SWEEP_KINDS[sweep][1])


def storage_capacity_sweep(
    capacities=(1.0, 2.0, 4.0, 6.0, 12.0, 24.0, 60.0),
    seed: int = 2007,
    workers: int = 1,
    scenario=None,
) -> dict[float, dict[str, float]]:
    """Normalized fuel vs storage capacity ``Cmax``.

    As ``Cmax -> 0`` the FC loses its freedom to time-shift charge and
    FC-DPM degenerates toward ASAP-DPM; large ``Cmax`` lets FC-DPM hold
    the globally flat optimum.  Returns
    ``{capacity: {policy: fuel_normalized_to_conv}}``.

    Each point's policies run through
    :func:`~repro.sim.slotsim.simulate_policies`, so the array kernel
    serves every eligible configuration.
    """
    capacity_list = list(capacities)
    for cap in capacity_list:
        if cap <= 0:
            raise ConfigurationError("capacity must be positive")
    return _run_sweep("storage", capacity_list, seed, scenario, workers)


def predictor_sweep(
    seed: int = 2007, workers: int = 1, scenario=None
) -> dict[str, float]:
    """FC-DPM fuel (normalized to Conv-DPM) per idle-period predictor.

    Exercises the exponential filter the paper uses against last-value,
    regression, and learning-tree predictors -- quantifying how much
    headroom better prediction buys.
    """
    names = list(_PREDICTOR_FACTORIES)
    return _run_sweep("predictor", names, seed, scenario, workers)


def efficiency_slope_sweep(
    betas=(0.0, 0.04, 0.08, 0.13, 0.18, 0.24),
    seed: int = 2007,
    workers: int = 1,
    scenario=None,
) -> dict[float, float]:
    """FC-DPM's fuel saving over ASAP-DPM versus the efficiency slope.

    The paper's whole advantage comes from the *slope* of the efficiency
    law (convexity of the fuel map): at ``beta = 0`` the fuel map is
    linear and flattening the output saves nothing.  Returns
    ``{beta: fractional_saving_vs_asap}``.
    """
    beta_list = list(betas)
    return _run_sweep("beta", beta_list, seed, scenario, workers)


def recharge_threshold_sweep(
    thresholds=(0.1, 0.25, 0.5, 0.75, 0.9),
    seed: int = 2007,
    workers: int = 1,
    scenario=None,
) -> dict[float, float]:
    """ASAP-DPM fuel (normalized to Conv-DPM) vs recharge threshold.

    The half-capacity rule is a design choice of the paper's baseline;
    this sweep shows its (mild) sensitivity.
    """
    threshold_list = list(thresholds)
    return _run_sweep("recharge", threshold_list, seed, scenario, workers)
