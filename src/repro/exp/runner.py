"""Sharded, resumable experiment execution.

:func:`run_experiment` takes an :class:`~repro.exp.spec.ExperimentSpec`
(or the name of a defined experiment) and drives every unit task to
``done``:

* **Resume first.**  Tasks whose results already sit in the
  :class:`~repro.runtime.cache.ResultCache` -- verified through the
  entry's ``<key>.manifest.json`` provenance sidecar -- are marked done
  without executing (counted under ``exp.tasks_resumed``); only the
  remainder is dispatched.  A crashed run therefore restarts from where
  its cache writes stopped, not from zero.
* **Batch where the kernel can.**  ``scenario``-kind tasks group into
  (scenario x seeds x policies) blocks routed through one
  :func:`~repro.sim.vectorized.simulate_batch` call each (shared plan
  compilation, stacked 2D kernel, shm fan-out); every other kind fans
  out through :class:`~repro.runtime.parallel.ParallelMap`.  Both paths
  are bit-identical to a serial per-cell loop.
* **Shard across hosts.**  ``shard=(i, n)`` takes the tasks with
  ``index % n == i - 1`` (round-robin, so heterogeneous kinds spread
  evenly) and persists into a shard-private sidecar;
  :meth:`~repro.exp.state.ExperimentStore.merge` folds the sidecars
  back into one record.

Telemetry: an ``exp.run`` span wraps the call, ``exp.shard`` wraps the
dispatch of this shard's pending tasks, and the counters
``exp.tasks_done`` / ``exp.tasks_resumed`` / ``exp.tasks_failed`` track
outcomes.  ``FCDPM_EXP_ABORT_AFTER=<n>`` aborts after ``n`` task
commits -- the crash-injection hook ``make exp-smoke`` and the resume
tests use.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any

from ..errors import ConfigurationError
from ..obs import OBS
from ..obs.live import LiveFlusher, LiveProgress, live_interval
from ..runtime.cache import ResultCache, code_fingerprint
from ..runtime.parallel import ParallelMap
from .spec import ExperimentSpec, UnitTask
from .state import ExperimentState, ExperimentStore
from .tasks import effective_policy, result_metrics, run_task


class AbortRun(RuntimeError):
    """Raised by the crash-injection hook after N task commits."""


def _abort_after() -> int | None:
    """``$FCDPM_EXP_ABORT_AFTER`` as an int, if set and positive."""
    raw = os.environ.get("FCDPM_EXP_ABORT_AFTER")
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def parse_shard(shard) -> tuple[int, int] | None:
    """Normalize a ``--shard`` argument: ``"i/n"`` or ``(i, n)``, 1-based."""
    if shard is None:
        return None
    if isinstance(shard, str):
        try:
            i_text, n_text = shard.split("/", 1)
            shard = (int(i_text), int(n_text))
        except ValueError:
            raise ConfigurationError(
                f"bad shard {shard!r}; expected 'i/n' (e.g. --shard 2/4)"
            ) from None
    i, n = int(shard[0]), int(shard[1])
    if n < 1 or not 1 <= i <= n:
        raise ConfigurationError(f"shard index {i}/{n} out of range (1 <= i <= n)")
    return (i, n)


def shard_tasks(tasks: list[UnitTask], shard: tuple[int, int] | None) -> list[UnitTask]:
    """This shard's slice: round-robin by task index (deterministic)."""
    if shard is None:
        return list(tasks)
    i, n = shard
    return [t for t in tasks if t.index % n == i - 1]


def verified_in_cache(cache: ResultCache, key: str, fingerprint: str) -> bool:
    """True when ``key`` has both a cache entry and a valid manifest.

    The manifest sidecar is the resume-trust anchor: a pickle without
    provenance (or with a fingerprint that disagrees with the key's) is
    treated as absent and recomputed.
    """
    if not cache.contains(key):
        return False
    manifest_path = cache.root / f"{key}.manifest.json"
    try:
        data = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError):
        return False
    from ..obs import validate_manifest

    if validate_manifest(data):
        return False
    return data.get("fingerprint") == fingerprint


@dataclass
class ExperimentRun:
    """Outcome of one :func:`run_experiment` call."""

    spec: ExperimentSpec
    state: ExperimentState
    #: Values of the tasks this call settled (executed or resumed),
    #: keyed by task id.  Resumed values are loaded lazily from the
    #: cache on first access through :meth:`value`.
    results: dict[str, Any] = field(default_factory=dict)
    executed: int = 0
    resumed: int = 0
    failed: int = 0
    wall_s: float = 0.0
    shard: tuple[int, int] | None = None
    _cache: ResultCache | None = None

    def value(self, task: UnitTask) -> Any:
        """The task's result value (memory first, then the cache)."""
        if task.task_id in self.results:
            return self.results[task.task_id]
        if self._cache is not None:
            sentinel = object()
            value = self._cache.get(task.cache_key(), sentinel)
            if value is not sentinel:
                self.results[task.task_id] = value
                return value
        raise ConfigurationError(
            f"no result for task {task.task_id} ({task.label()}); "
            f"status={self.state.tasks[task.task_id].status}"
        )


def _group_key(task: UnitTask):
    """Batchable-group identity of a ``scenario``-kind task."""
    from ..runtime.cache import _canonical

    return (_canonical(task.scenario), _canonical(dict(task.params)))


def _policy_groups(tasks: list[UnitTask]) -> list[tuple[list[int], list[str]]]:
    """Partition one scenario group into ``simulate_batch`` calls.

    Returns ``[(seeds, policies), ...]``.  When every policy is pending
    for the same seed list (the common full-run case) that is a single
    call; ragged resumes fall back to one call per policy so no cell is
    computed twice.
    """
    by_policy: dict[str, list[int]] = {}
    for task in tasks:
        by_policy.setdefault(effective_policy(task), []).append(task.seed)
    seed_lists = list(by_policy.values())
    if all(lst == seed_lists[0] for lst in seed_lists[1:]):
        return [(seed_lists[0], list(by_policy))]
    return [(seeds, [policy]) for policy, seeds in by_policy.items()]


class _Runner:
    """One run's mutable context (commit bookkeeping, abort hook)."""

    def __init__(
        self,
        state: ExperimentState,
        store: ExperimentStore | None,
        cache: ResultCache,
        shard: tuple[int, int] | None,
        workers: int | None,
    ) -> None:
        self.state = state
        self.store = store
        self.cache = cache
        self.shard = shard
        self.workers = workers
        self.shard_label = f"{shard[0]}/{shard[1]}" if shard else None
        self.abort_after = _abort_after()
        self.committed = 0
        #: Live task-progress counters, set when ``--live`` flushing is
        #: on; every commit path bumps it so the heartbeat tracks.
        self.progress: LiveProgress | None = None
        self.run = ExperimentRun(
            spec=state.spec, state=state, shard=shard, _cache=cache
        )

    # -- state persistence -------------------------------------------------

    def checkpoint(self) -> None:
        """Persist the records (shard sidecar); once per dispatch unit."""
        if self.store is not None:
            self.state.refresh_status()
            self.store.save(self.state, shard=self.shard)

    def set_phase(self, phase: str) -> None:
        """Surface the current dispatch phase in the live heartbeat."""
        if self.progress is not None:
            self.progress.set_phase(phase)

    def _maybe_abort(self) -> None:
        if self.abort_after is not None and self.committed >= self.abort_after:
            raise AbortRun(
                f"aborting after {self.committed} task commits "
                f"(FCDPM_EXP_ABORT_AFTER)"
            )

    # -- commit paths ------------------------------------------------------

    def commit_done(self, task: UnitTask, value: Any, wall_s: float) -> None:
        record = self.state.tasks[task.task_id]
        if self.cache.enabled:
            record.cache_key = self.cache.store(
                task.cache_namespace(), task.cache_params(), value, wall_s=wall_s
            )
        record.status = "done"
        record.shard = self.shard_label
        record.wall_s = wall_s
        record.error = None
        self.run.results[task.task_id] = value
        self.run.executed += 1
        self.committed += 1
        if self.progress is not None:
            self.progress.add_done()
        if OBS.enabled:
            OBS.metrics.counter("exp.tasks_done", kind=task.kind).inc()
        self._maybe_abort()

    def commit_failed(self, task: UnitTask, error: str) -> None:
        record = self.state.tasks[task.task_id]
        record.status = "failed"
        record.shard = self.shard_label
        record.error = error
        self.run.failed += 1
        self.committed += 1
        if self.progress is not None:
            self.progress.add_failed()
        if OBS.enabled:
            OBS.metrics.counter("exp.tasks_failed", kind=task.kind).inc()
        self._maybe_abort()

    def mark_resumed(self, task: UnitTask, key: str) -> None:
        record = self.state.tasks[task.task_id]
        if not record.settled:
            record.status = "done"
        record.resumed = True
        record.cache_key = key
        self.run.resumed += 1
        if self.progress is not None:
            # Resumed tasks count toward done so the heartbeat's
            # done+failed converges on total.
            self.progress.add_done()
        if OBS.enabled:
            OBS.metrics.counter("exp.tasks_resumed", kind=task.kind).inc()

    # -- dispatch ----------------------------------------------------------

    def execute_scenario_groups(self, tasks: list[UnitTask]) -> None:
        """Route ``scenario``-kind cells through grouped batch calls."""
        from ..scenario import Scenario
        from ..sim.vectorized import simulate_batch

        groups: dict[Any, list[UnitTask]] = {}
        for task in tasks:
            groups.setdefault(_group_key(task), []).append(task)
        for group in groups.values():
            scenario = group[0].scenario
            if isinstance(scenario, dict):
                scenario = Scenario.from_dict(scenario)
            self.set_phase(
                "batch:"
                + (scenario if isinstance(scenario, str) else scenario.name)
            )
            by_cell = {
                (t.seed, effective_policy(t)): t for t in group
            }
            for seeds, policies in _policy_groups(group):
                t0 = time.perf_counter()
                try:
                    out = simulate_batch(
                        scenario, seeds, policies, workers=self.workers
                    )
                except AbortRun:
                    raise
                except Exception as exc:  # noqa: BLE001 - isolate the batch
                    self._execute_cells_individually(
                        [by_cell[(s, p)] for s in seeds for p in policies],
                        batch_error=f"{type(exc).__name__}: {exc}",
                    )
                else:
                    wall = time.perf_counter() - t0
                    per_cell = wall / max(len(seeds) * len(policies), 1)
                    for seed in seeds:
                        for policy in policies:
                            self.commit_done(
                                by_cell[(seed, policy)],
                                result_metrics(out[seed][policy]),
                                per_cell,
                            )
                self.checkpoint()

    def _execute_cells_individually(
        self, tasks: list[UnitTask], batch_error: str
    ) -> None:
        """Per-cell fallback after a batch raised: isolate the failure."""
        for task in tasks:
            t0 = time.perf_counter()
            try:
                value = run_task(task)
            except AbortRun:
                raise
            except Exception as exc:  # noqa: BLE001 - record, keep going
                self.commit_failed(
                    task, f"{type(exc).__name__}: {exc} (batch: {batch_error})"
                )
                continue
            self.commit_done(task, value, time.perf_counter() - t0)

    def execute_plain(self, tasks: list[UnitTask]) -> None:
        """Fan every other kind out through :class:`ParallelMap`."""
        if not tasks:
            return
        self.set_phase("dispatch:tasks")
        workers = self.workers if self.workers is not None else 0
        if workers and workers != 1 and len(tasks) > 1:
            pool = ParallelMap(workers=self.workers)
            units = [list(zip(tasks, pool.map(_safe_run_task, tasks)))]
        else:
            # Lazy, so each serial task is its own checkpointed unit.
            units = ([(task, _safe_run_task(task))] for task in tasks)
        for unit in units:
            for task, (ok, value, wall_s) in unit:
                if ok:
                    self.commit_done(task, value, wall_s)
                else:
                    self.commit_failed(task, value)
            self.checkpoint()


def _safe_run_task(task: UnitTask) -> tuple[bool, Any, float]:
    """Module-level (picklable) task wrapper with failure isolation."""
    t0 = time.perf_counter()
    try:
        value = run_task(task)
    except Exception as exc:  # noqa: BLE001 - shipped back as a failure
        return (False, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0)
    return (True, value, time.perf_counter() - t0)


def run_experiment(
    spec: ExperimentSpec | str,
    *,
    store: ExperimentStore | None = None,
    cache: ResultCache | None = None,
    workers: int | None = 1,
    shard=None,
    resume: bool = True,
    live: float | bool | None = None,
) -> ExperimentRun:
    """Drive an experiment's unit tasks to completion.

    Parameters
    ----------
    spec:
        An :class:`ExperimentSpec`, or the name of an experiment
        already defined in ``store``.
    store:
        Lifecycle persistence.  ``None`` runs ephemerally: no state
        file is written and, unless a ``cache`` is supplied, results
        stay in memory only -- the mode the thin analysis clients use,
        with zero on-disk footprint.
    cache:
        Result storage for task values.  Defaults to the real on-disk
        :class:`ResultCache` when ``store`` is given, and to a disabled
        (never hits, never writes) cache when ephemeral.
    workers:
        Process fan-out, forwarded to ``simulate_batch`` /
        ``ParallelMap``.  Results are bit-identical for any value.
    shard:
        ``"i/n"`` (1-based) or ``(i, n)``: execute only this slice of
        the task list and persist into a shard sidecar; fold the
        sidecars with ``ExperimentStore.merge`` (``fcdpm exp merge``).
    resume:
        Skip tasks whose results are already in the cache (verified
        via their entry manifests).  ``False`` re-executes everything.
    live:
        Live-telemetry flushing: ``True`` enables it at the default
        cadence, a number is the flush interval in seconds, ``None``
        defers to ``$FCDPM_LIVE_INTERVAL``, ``False`` forces it off.
        When on (and a ``store`` provides a directory), a background
        :class:`~repro.obs.live.LiveFlusher` publishes per-shard
        heartbeats + an OpenMetrics exposition under the experiment
        dir for ``fcdpm exp watch`` / ``fcdpm top``.

    Returns an :class:`ExperimentRun`.  A cell's commit is its cache
    entry plus manifest, written before any record says ``done``; the
    state file is checkpointed per dispatch unit, so after a hard kill
    it may lag the cache, never lead it, and the next resume re-derives
    the lagging cells from the cache.
    """
    if isinstance(spec, str):
        if store is None:
            raise ConfigurationError(
                "running an experiment by name requires a store"
            )
        state = store.load(spec)
        spec = state.spec
    elif store is not None:
        state = store.define(spec)
    else:
        state = ExperimentState.define(spec)
    if cache is None:
        cache = ResultCache() if store is not None else ResultCache(enabled=False)

    shard = parse_shard(shard)
    tasks = spec.expand()
    mine = shard_tasks(tasks, shard)
    fingerprint = code_fingerprint()
    shard_label = f"{shard[0]}/{shard[1]}" if shard else "1/1"

    runner = _Runner(state, store, cache, shard, workers)
    interval = live_interval(live)
    flusher: LiveFlusher | None = None
    if interval is not None and store is not None:
        runner.progress = LiveProgress(total=len(mine), phase="resume-scan")
        flusher = LiveFlusher(
            store.experiment_dir(spec.name),
            spec.name,
            progress=runner.progress,
            interval=interval,
            shard=shard,
        )
        flusher.start()
    t0 = time.perf_counter()
    clean = False
    try:
        _run_all(runner, spec, state, cache, mine, fingerprint, shard_label, resume)
        clean = True
    finally:
        if flusher is not None:
            runner.set_phase("done" if clean else "aborted")
            flusher.stop(final=clean)

    runner.run.wall_s = time.perf_counter() - t0
    if store is not None:
        _write_run_manifest(store, state, runner, workers)
    return runner.run


def _run_all(
    runner: _Runner,
    spec: ExperimentSpec,
    state: ExperimentState,
    cache: ResultCache,
    mine: list[UnitTask],
    fingerprint: str,
    shard_label: str,
    resume: bool,
) -> None:
    """The span-wrapped resume-scan + dispatch body of a run."""
    with OBS.span(
        "exp.run",
        experiment=spec.name,
        kind=spec.kind,
        n_tasks=len(state.tasks),
        shard=shard_label,
    ) as span:
        # -- resume scan ---------------------------------------------------
        # A disabled cache can never satisfy a resume, so skip the
        # per-task key hashing entirely (the ephemeral fast path).
        scan = resume and cache.enabled
        pending: list[UnitTask] = []
        for task in mine:
            record = state.tasks[task.task_id]
            if scan:
                key = task.cache_key(fingerprint)
                if verified_in_cache(cache, key, fingerprint):
                    runner.mark_resumed(task, key)
                    continue
            if record.settled:
                # Recorded done but the cached value is gone -- fall
                # back to re-execution rather than trust air.
                record.status = "defined"
                record.resumed = False
            pending.append(task)
        for task in pending:
            state.tasks[task.task_id].status = "running"
        runner.checkpoint()

        # -- dispatch ------------------------------------------------------
        try:
            with OBS.span(
                "exp.shard",
                shard=shard_label,
                n_tasks=len(mine),
                pending=len(pending),
                resumed=runner.run.resumed,
            ):
                scenario_tasks = [t for t in pending if t.kind == "scenario"]
                other_tasks = [t for t in pending if t.kind != "scenario"]
                runner.execute_scenario_groups(scenario_tasks)
                runner.execute_plain(other_tasks)
        finally:
            # Tasks still marked running after an abort revert to
            # defined -- they never committed.
            for task in pending:
                record = state.tasks[task.task_id]
                if record.status == "running":
                    record.status = "defined"
            runner.checkpoint()
        if OBS.enabled:
            span.set(
                executed=runner.run.executed,
                resumed=runner.run.resumed,
                failed=runner.run.failed,
            )


def _write_run_manifest(
    store: ExperimentStore,
    state: ExperimentState,
    runner: _Runner,
    workers: int | None,
) -> None:
    """Run-level provenance beside the state file (best-effort)."""
    from ..obs import build_manifest

    try:
        manifest = build_manifest(
            f"exp:{state.spec.name}",
            params={
                "spec": state.spec.to_dict(),
                "spec_hash": state.spec.content_hash,
                "shard": runner.shard_label,
                "executed": runner.run.executed,
                "resumed": runner.run.resumed,
                "failed": runner.run.failed,
            },
            seeds=state.spec.seeds,
            workers=workers if isinstance(workers, int) else 0,
            route="exp",
            wall_s=runner.run.wall_s,
            metrics=OBS.metrics.snapshot() if OBS.enabled else {},
        )
        manifest.write(store.experiment_dir(state.spec.name) / "manifest.json")
    except (OSError, TypeError, ValueError):
        pass
