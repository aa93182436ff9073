"""Analysis adapter: per-cell metric frames over experiment results.

:class:`ExperimentResults` is the one read path every consumer shares:
it zips an experiment's deterministic task expansion with the task
values (from a live :class:`~repro.exp.runner.ExperimentRun` or loaded
back out of the :class:`~repro.runtime.cache.ResultCache`) and exposes

* :meth:`cells` -- ``(UnitTask, value)`` pairs in expansion order,
* :meth:`frame` -- flat ``list[dict]`` rows (seed / policy / knobs /
  metrics), the "metric frame" reducers and reports consume,
* :meth:`by_knob` -- single-knob sweep reduction (``{knob: value}``),
* :meth:`seed_summaries` -- the ``run_seeds``-compatible per-metric
  :class:`~repro.sim.montecarlo.SeedSummary` reduction.

The thin clients in :mod:`repro.analysis` are a spec + one of these
reducers each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..errors import ConfigurationError
from .spec import ExperimentSpec, UnitTask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.cache import ResultCache
    from ..sim.montecarlo import SeedSummary
    from .runner import ExperimentRun
    from .state import ExperimentState


@dataclass(frozen=True)
class Cell:
    """One task paired with its computed value."""

    task: UnitTask
    value: Any

    @property
    def seed(self) -> int:
        return self.task.seed

    @property
    def policy(self) -> str | None:
        return self.task.policy


class ExperimentResults:
    """Uniform read access to an experiment's per-cell values."""

    def __init__(self, spec: ExperimentSpec, values: dict[str, Any]) -> None:
        self.spec = spec
        self._values = values
        self._tasks = spec.expand()

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_run(cls, run: "ExperimentRun") -> "ExperimentResults":
        """Wrap a finished :func:`~repro.exp.runner.run_experiment` call."""
        values = dict(run.results)
        missing = [
            t for t in run.spec.expand() if t.task_id not in values
        ]
        for task in missing:
            values[task.task_id] = run.value(task)
        return cls(run.spec, values)

    @classmethod
    def load(
        cls,
        state: "ExperimentState",
        cache: "ResultCache",
        mark_analyzed: bool = False,
    ) -> "ExperimentResults":
        """Pull every settled task's value back out of the cache.

        Raises :class:`ConfigurationError` when any task is not settled
        or its cached value has been evicted -- analysis over partial
        results would silently bias the reduction.  With
        ``mark_analyzed=True`` every consumed task record advances to
        ``analyzed`` (the caller persists the state).
        """
        values: dict[str, Any] = {}
        sentinel = object()
        missing: list[str] = []
        for task in state.spec.expand():
            record = state.tasks[task.task_id]
            if not record.settled:
                missing.append(f"{task.task_id} ({record.status})")
                continue
            key = record.cache_key or task.cache_key()
            value = cache.get(key, sentinel)
            if value is sentinel:
                missing.append(f"{task.task_id} (evicted or corrupt in cache)")
                continue
            values[task.task_id] = value
            if mark_analyzed:
                record.status = "analyzed"
        if missing:
            preview = ", ".join(missing[:5])
            raise ConfigurationError(
                f"experiment {state.spec.name!r} has {len(missing)} "
                f"unfinished/unreadable tasks: {preview}"
                + ("..." if len(missing) > 5 else "")
            )
        if mark_analyzed:
            state.refresh_status()
        return cls(state.spec, values)

    # -- access ------------------------------------------------------------

    def cells(self) -> list[Cell]:
        """Every (task, value) pair, in expansion (task-index) order."""
        out = []
        for task in self._tasks:
            if task.task_id not in self._values:
                raise ConfigurationError(
                    f"no value for task {task.task_id} ({task.label()})"
                )
            out.append(Cell(task, self._values[task.task_id]))
        return out

    def values(self) -> list[Any]:
        """Just the values, in expansion order."""
        return [cell.value for cell in self.cells()]

    def frame(self) -> list[dict[str, Any]]:
        """Flat per-cell rows: identity columns + metric columns.

        Dict values spread into columns; scalar values land in a
        single ``value`` column.  The deterministic tabular form
        reports and exporters consume.
        """
        rows = []
        for cell in self.cells():
            row: dict[str, Any] = {
                "task_id": cell.task.task_id,
                "kind": cell.task.kind,
                "scenario": _scenario_label(cell.task.scenario),
                "seed": cell.task.seed,
                "policy": cell.task.policy,
            }
            row.update(dict(cell.task.params))
            if isinstance(cell.value, dict):
                row.update(cell.value)
            else:
                row["value"] = cell.value
            rows.append(row)
        return rows

    # -- reducers ----------------------------------------------------------

    def by_knob(self, knob: str) -> dict[Any, Any]:
        """Single-knob sweep reduction: ``{knob value: cell value}``.

        Expansion order is ablation-major, so the mapping preserves the
        sweep's declared value order -- byte-compatible with the
        historical ``dict(zip(values, results))`` sweeps.
        """
        out: dict[Any, Any] = {}
        for cell in self.cells():
            value = cell.task.param(knob)
            if value is None:
                raise ConfigurationError(
                    f"task {cell.task.task_id} has no {knob!r} param"
                )
            out[value] = cell.value
        return out

    def by_cell(self) -> dict[tuple[int, str | None], Any]:
        """``{(seed, policy): value}`` over every cell."""
        return {(c.seed, c.policy): c.value for c in self.cells()}

    def seed_summaries(self) -> dict[str, "SeedSummary"]:
        """Per-metric summary across seeds -- ``run_seeds`` compatible.

        Every cell must return the same metric keys; metric order is
        pinned to the *first* cell's dict order and a key-set mismatch
        raises, exactly as :func:`repro.sim.montecarlo.run_seeds`.
        """
        from ..sim.montecarlo import summarize

        cells = self.cells()
        first = cells[0].value
        if not isinstance(first, dict):
            raise ConfigurationError(
                "seed_summaries needs dict-valued cells "
                f"(got {type(first).__name__})"
            )
        keys = list(first)
        key_set = set(keys)
        samples: dict[str, list[float]] = {key: [] for key in keys}
        for cell in cells:
            if set(cell.value) != key_set:
                raise ConfigurationError(
                    f"seed {cell.seed} returned metrics {sorted(cell.value)}, "
                    f"expected {sorted(key_set)}"
                )
            for key in keys:
                samples[key].append(float(cell.value[key]))
        return {key: summarize(key, values) for key, values in samples.items()}


def _scenario_label(scenario) -> str | None:
    if scenario is None or isinstance(scenario, str):
        return scenario
    return scenario.get("name", "<inline>")
