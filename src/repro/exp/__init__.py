"""Experiment orchestration: declarative specs, sharded resumable runs.

The lifecycle layer the comparison studies sit on::

    spec = scenario_batch_spec("study", "exp2-fc-dpm", range(100),
                               policies=("conv-dpm", "asap-dpm", "fc-dpm"))
    store = ExperimentStore()                  # <cache dir>/experiments
    run = run_experiment(spec, store=store, workers=0)
    frame = ExperimentResults.from_run(run).frame()

An :class:`ExperimentSpec` (scenario x seeds x policies x ablations)
expands into a deterministic unit-task list; :func:`run_experiment`
drives every task ``defined -> running -> done`` with crash-safe resume
from the :class:`~repro.runtime.cache.ResultCache` (verified through
per-entry manifests), shard slicing for multi-host dispatch
(``--shard i/n`` + ``merge``), and batch routing through
:func:`~repro.sim.vectorized.simulate_batch`;
:class:`ExperimentResults` turns the settled tasks into per-cell metric
frames for analysis.  ``fcdpm exp define|run|status|resume|merge|report``
is the CLI surface; see docs/orchestration.md.
"""

from .results import Cell, ExperimentResults
from .runner import AbortRun, ExperimentRun, parse_shard, run_experiment, shard_tasks
from .spec import (
    SWEEP_KINDS,
    ExperimentSpec,
    UnitTask,
    scenario_batch_spec,
    seed_study_spec,
    sweep_spec,
)
from .state import (
    EXPERIMENT_STATUSES,
    STATE_SCHEMA_VERSION,
    TASK_STATUSES,
    ExperimentState,
    ExperimentStore,
    TaskRecord,
    default_state_root,
)
from .tasks import TASK_KINDS, result_metrics, run_task, task_kind, task_kind_names

__all__ = [
    "EXPERIMENT_STATUSES",
    "STATE_SCHEMA_VERSION",
    "SWEEP_KINDS",
    "TASK_KINDS",
    "TASK_STATUSES",
    "AbortRun",
    "Cell",
    "ExperimentResults",
    "ExperimentRun",
    "ExperimentSpec",
    "ExperimentState",
    "ExperimentStore",
    "TaskRecord",
    "UnitTask",
    "default_state_root",
    "parse_shard",
    "result_metrics",
    "run_experiment",
    "run_task",
    "scenario_batch_spec",
    "seed_study_spec",
    "shard_tasks",
    "sweep_spec",
    "task_kind",
    "task_kind_names",
]
