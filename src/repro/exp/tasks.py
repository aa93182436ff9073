"""Unit-task execution: the task-kind registry.

Every :class:`~repro.exp.spec.UnitTask` carries a ``kind`` naming an
entry in :data:`TASK_KINDS`; :func:`run_task` dispatches.  Task
functions are module-level (so ``ParallelMap`` can pickle the dispatch
across processes) and import the analysis layers lazily -- the analysis
modules are thin *clients* of this package, so a top-level import here
would be circular.

Kinds
-----
``scenario``
    One (scenario, seed, policy) Monte-Carlo cell; the runner groups
    these and routes whole groups through
    :func:`~repro.sim.vectorized.simulate_batch` (a lone cell runs as a
    one-cell batch, so grouped and ungrouped execution are
    bit-identical).
``scenario-metrics``
    :func:`repro.sim.montecarlo.scenario_metrics` for one seed.
``table2-metrics``
    :func:`repro.sim.montecarlo.table2_metrics` for one seed -- the
    canonical seed-stability cell behind the report's Table-2 study.
``sweep.storage`` / ``sweep.beta`` / ``sweep.recharge`` / ``sweep.predictor``
    One point of the corresponding ablation sweep in
    :mod:`repro.analysis.sweep`, knob value in ``task.params``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from ..errors import ConfigurationError
from .spec import UnitTask

#: kind name -> task function ``(UnitTask) -> picklable result``.
TASK_KINDS: dict[str, Callable[[UnitTask], Any]] = {}


def task_kind(name: str):
    """Register a task function under ``name`` (decorator)."""

    def register(fn: Callable[[UnitTask], Any]):
        TASK_KINDS[name] = fn
        return fn

    return register


def task_kind_names() -> list[str]:
    """Registered kinds, sorted."""
    return sorted(TASK_KINDS)


def run_task(task: UnitTask) -> Any:
    """Execute one unit task; returns its (picklable) result value."""
    try:
        fn = TASK_KINDS[task.kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown task kind {task.kind!r}; expected one of {task_kind_names()}"
        ) from None
    return fn(task)


def result_metrics(result) -> dict[str, float]:
    """Reduce a :class:`~repro.sim.slotsim.SimulationResult` to a frame row.

    The canonical per-cell metric dict -- same keys as ``fcdpm run``
    prints, plain floats so it pickles small and compares with ``==``.
    """
    return {
        "fuel": result.fuel,
        "load_charge": result.load_charge,
        "bled": result.bled,
        "deficit": result.deficit,
        "duration": result.duration,
        "n_sleeps": float(result.n_sleeps),
        "wakeup_latency": result.wakeup_latency,
    }


def resolve_scenario(scenario):
    """Turn a spec's scenario field into a live ``Scenario``."""
    from ..scenario import Scenario, get_scenario

    if scenario is None:
        raise ConfigurationError("this task kind requires a scenario")
    if isinstance(scenario, str):
        return get_scenario(scenario)
    if isinstance(scenario, dict):
        return Scenario.from_dict(scenario)
    return scenario


def effective_policy(task: UnitTask) -> str:
    """The policy spec a ``scenario`` cell actually runs.

    ``policy=None`` means "the scenario's own policy kind" -- resolved
    here so grouped batch dispatch and single-cell execution agree.
    """
    if task.policy is not None:
        return task.policy
    return resolve_scenario(task.scenario).policy.kind


@task_kind("scenario")
def _scenario_cell(task: UnitTask) -> dict[str, float]:
    """One (scenario, seed, policy) cell, via a one-cell batch.

    Routing through :func:`simulate_batch` (rather than a hand-built
    ``SlotSimulator``) keeps a straggler cell executed alone bit-equal
    to the same cell inside a grouped batch call.
    """
    from ..sim.vectorized import simulate_batch

    sc = resolve_scenario(task.scenario)
    policy = effective_policy(task)
    out = simulate_batch(sc, [task.seed], [policy])
    return result_metrics(out[task.seed][policy])


@task_kind("scenario-metrics")
def _scenario_metrics_cell(task: UnitTask) -> dict[str, float]:
    from ..sim.montecarlo import scenario_metrics

    if not isinstance(task.scenario, str):
        raise ConfigurationError(
            "scenario-metrics tasks need a registered scenario name"
        )
    return scenario_metrics(task.scenario, task.seed)


@task_kind("table2-metrics")
def _table2_metrics_cell(task: UnitTask) -> dict[str, float]:
    from ..sim.montecarlo import table2_metrics

    return table2_metrics(task.seed)


def _sweep_base(task: UnitTask):
    from ..analysis.sweep import _sweep_base
    from ..scenario import Scenario

    scenario = task.scenario
    if isinstance(scenario, dict):
        scenario = Scenario.from_dict(scenario)
    return _sweep_base(scenario, task.seed)


def _required_knob(task: UnitTask, knob: str):
    value = task.param(knob)
    if value is None:
        raise ConfigurationError(f"{task.kind} task needs a {knob!r} param")
    return value


@task_kind("sweep.storage")
def _sweep_storage_point(task: UnitTask) -> dict[str, float]:
    from ..analysis.sweep import _storage_capacity_point

    trace, dev = _sweep_base(task)
    cap = float(_required_knob(task, "capacity"))
    return _storage_capacity_point(trace, dev, cap)


@task_kind("sweep.beta")
def _sweep_beta_point(task: UnitTask) -> float:
    from ..analysis.sweep import _efficiency_slope_point

    trace, dev = _sweep_base(task)
    return _efficiency_slope_point(trace, dev, float(_required_knob(task, "beta")))


@task_kind("sweep.recharge")
def _sweep_recharge_point(task: UnitTask) -> float:
    from ..analysis.sweep import _recharge_threshold_point

    trace, dev = _sweep_base(task)
    return _recharge_threshold_point(
        trace, dev, float(_required_knob(task, "threshold"))
    )


@task_kind("sweep.predictor")
def _sweep_predictor_point(task: UnitTask) -> float:
    from ..analysis.sweep import _predictor_point

    trace, dev = _sweep_base(task)
    return _predictor_point(trace, dev, str(_required_knob(task, "predictor")))
