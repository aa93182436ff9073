#!/usr/bin/env python3
"""Predictor bake-off: how much does better idle prediction buy FC-DPM?

The paper builds on the simplest exponential-average predictor [ref 1]
and notes any DPM policy plugs in.  This example races four predictors
(exponential, last-value, AR regression, learning tree) on the two
paper workloads -- the scene-correlated MPEG trace of Table 2 and the
randomized Experiment-2 trace of Table 3 -- reporting both prediction
accuracy and the fuel it costs.

Run:  python examples/predictor_comparison.py
"""

from repro import PowerManager, camcorder_device_params
from repro.analysis.report import format_table
from repro.core.fc_dpm import FCDPMController
from repro.dpm.predictive import PredictiveShutdownPolicy
from repro.fuelcell.efficiency import LinearSystemEfficiency
from repro.prediction import (
    ExponentialAveragePredictor,
    LastValuePredictor,
    LearningTreePredictor,
    RegressionPredictor,
)
from repro.sim import SlotSimulator
from repro.devices.camcorder import randomized_device_params
from repro.workload import experiment2_trace, generate_mpeg_trace

PREDICTORS = {
    "exponential(0.5)": lambda: ExponentialAveragePredictor(factor=0.5),
    "last-value": lambda: LastValuePredictor(initial=10.0),
    "regression(AR2)": lambda: RegressionPredictor(order=2, window=24),
    "learning-tree": lambda: LearningTreePredictor(
        bin_edges=[6.0, 9.0, 12.0, 15.0, 18.0, 24.0], depth=2, initial=12.0
    ),
}


def build_manager(name: str, factory, dev) -> PowerManager:
    model = LinearSystemEfficiency()
    predictor = factory()
    mgr = PowerManager.fc_dpm(dev, storage_capacity=6.0, storage_initial=3.0)
    mgr.name = name
    mgr.policy = PredictiveShutdownPolicy(dev, predictor)
    controller = FCDPMController(
        model,
        active_length_predictor=ExponentialAveragePredictor(factor=0.5),
        idle_length_predictor=predictor,
        device=dev,
    )
    controller.observes_idle = False
    mgr.controller = controller
    return mgr


def race(trace, dev, label: str) -> None:
    rows = [["predictor", "fuel (A-s)", "idle MAE (s)", "sleep rate"]]
    fuels = {}
    for name, factory in PREDICTORS.items():
        mgr = build_manager(name, factory, dev)
        result = SlotSimulator(mgr).run(trace)
        fuels[name] = result.fuel
        mae = mgr.policy.predictor.mean_absolute_error
        rows.append(
            [
                name,
                f"{result.fuel:.1f}",
                f"{mae:.2f}",
                f"{mgr.policy.sleep_rate:.2f}",
            ]
        )
    print(format_table(rows, title=f"workload: {label}"))
    lo, hi = min(fuels.values()), max(fuels.values())
    print(
        f"fuel spread across predictors: {100.0 * (hi - lo) / lo:.1f}%; "
        f"costliest: {max(fuels, key=fuels.get)}"
    )
    print()


def main() -> None:
    race(
        generate_mpeg_trace(),
        camcorder_device_params(),
        "28-min MPEG trace (scene-correlated idles, Table 2)",
    )
    race(
        experiment2_trace(),
        randomized_device_params(),
        "Experiment-2 trace (independent U[5, 25] s idles, Table 3)",
    )


if __name__ == "__main__":
    main()
