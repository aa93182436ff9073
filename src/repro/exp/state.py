"""Experiment lifecycle store: spec + per-task status as JSON on disk.

One directory per experiment (default root: ``<cache dir>/experiments``,
beside the :class:`~repro.runtime.cache.ResultCache` entries the task
results land in), holding

* ``state.json`` -- the spec, its content hash, and one record per unit
  task walking ``defined -> running -> done | failed -> analyzed``;
* ``state.shard-i-of-n.json`` -- a shard's private copy of the records
  it owns, written by ``fcdpm exp run --shard i/n`` so independent
  hosts never contend on the main file (folded back by ``merge``);
* ``manifest.json`` -- the run-level provenance record
  (:class:`~repro.obs.manifest.RunManifest`); per-task provenance is
  the first line of each task's cache entry, linked from its task
  record through its ``cache_key``.

Writes are atomic (temp file + ``os.replace``), so a killed run leaves
either the previous or the next consistent state -- never a torn file.
:func:`read_state` is the one reader of both state files: a file either
parses into an :class:`ExperimentState` or raises
:class:`~repro.errors.ConfigurationError` naming the path and its first
problem.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from ..errors import ConfigurationError
from ..obs.live import write_atomic_json
from .spec import ExperimentSpec

#: Bump when a field changes meaning; :func:`read_state` checks it.
STATE_SCHEMA_VERSION = 1

#: Per-task lifecycle states, in order.
TASK_STATUSES = ("defined", "running", "done", "failed", "analyzed")
#: Whole-experiment states (derived from the task records).
EXPERIMENT_STATUSES = ("defined", "running", "done", "failed", "analyzed")

#: Task states that count as "result available".
_SETTLED = ("done", "analyzed")


def default_state_root() -> Path:
    """``$FCDPM_EXP_DIR`` if set, else ``<cache dir>/experiments``."""
    env = os.environ.get("FCDPM_EXP_DIR")
    if env:
        return Path(env)
    from ..runtime.cache import default_cache_dir

    return default_cache_dir() / "experiments"


@dataclass
class TaskRecord:
    """Mutable lifecycle record of one unit task."""

    task_id: str
    status: str = "defined"
    #: ResultCache key of the task's value (provenance link: the entry
    #: ``<key>.pkl`` opens with its provenance record).
    cache_key: str | None = None
    #: ``"i/n"`` when the task was executed by a shard run.
    shard: str | None = None
    wall_s: float = 0.0
    #: True when a resume found the result already cached and skipped
    #: re-execution.
    resumed: bool = False
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "task_id": self.task_id,
            "status": self.status,
            "cache_key": self.cache_key,
            "shard": self.shard,
            "wall_s": self.wall_s,
            "resumed": self.resumed,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, task_id: str, data: Any) -> "TaskRecord":
        """Parse the record stored under ``task_id``; raises
        :class:`ConfigurationError` naming the first problem."""
        if not isinstance(data, dict):
            raise ConfigurationError(f"task {task_id}: record must be an object")
        if data.keys() != _RECORD_KEYS:
            raise ConfigurationError(
                f"task {task_id}: {_key_problem(data, _RECORD_KEYS)}"
            )
        record = cls(**data)
        if record.task_id != task_id:
            raise ConfigurationError(
                f"task {task_id}: task_id {record.task_id!r} mismatch"
            )
        if record.status not in TASK_STATUSES:
            raise ConfigurationError(
                f"task {task_id}: unknown status {record.status!r}"
            )
        if record.settled and not record.cache_key:
            raise ConfigurationError(f"task {task_id}: settled without a cache_key")
        return record

    @property
    def settled(self) -> bool:
        """True when a result exists (done or already analyzed)."""
        return self.status in _SETTLED


@dataclass
class ExperimentState:
    """The spec plus every task's lifecycle record."""

    spec: ExperimentSpec
    tasks: dict[str, TaskRecord]
    status: str = "defined"
    created: float = 0.0
    updated: float = 0.0
    fingerprint: str = ""

    @classmethod
    def define(cls, spec: ExperimentSpec) -> "ExperimentState":
        """Fresh state: every expanded task ``defined``."""
        from ..runtime.cache import code_fingerprint

        now = time.time()
        return cls(
            spec=spec,
            tasks={t.task_id: TaskRecord(task_id=t.task_id) for t in spec.expand()},
            status="defined",
            created=now,
            updated=now,
            fingerprint=code_fingerprint(),
        )

    # -- bookkeeping -------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """``{status: task count}`` over every known status."""
        out = {status: 0 for status in TASK_STATUSES}
        for record in self.tasks.values():
            out[record.status] = out.get(record.status, 0) + 1
        return out

    def derive_status(self) -> str:
        """Experiment status implied by the task records."""
        counts = self.counts()
        n = len(self.tasks)
        if counts["failed"]:
            return "failed"
        if counts["analyzed"] == n:
            return "analyzed"
        if counts["done"] + counts["analyzed"] == n:
            return "done"
        if counts["done"] + counts["analyzed"] + counts["running"] > 0:
            return "running"
        return "defined"

    def refresh_status(self) -> str:
        """Recompute and store :attr:`status`; returns it."""
        self.status = self.derive_status()
        self.updated = time.time()
        return self.status

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": STATE_SCHEMA_VERSION,
            "name": self.spec.name,
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec.content_hash,
            "status": self.status,
            "created": self.created,
            "updated": self.updated,
            "fingerprint": self.fingerprint,
            "tasks": {
                task_id: record.to_dict()
                for task_id, record in sorted(self.tasks.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Any) -> "ExperimentState":
        """Parse :meth:`to_dict` output, refusing what the writer never
        produces; raises :class:`ConfigurationError` naming the first
        problem.

        A spec changed by hand no longer matches the ``spec_hash``
        written with it; running it would execute cells nobody defined,
        and the next save would rewrite the hash and hide the edit.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"state must be a JSON object, got {type(data).__name__}"
            )
        if data.get("schema_version") != STATE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"schema_version {data.get('schema_version')!r} != "
                f"{STATE_SCHEMA_VERSION}"
            )
        if data.keys() != _STATE_KEYS:
            raise ConfigurationError(_key_problem(data, _STATE_KEYS))
        if data["status"] not in EXPERIMENT_STATUSES:
            raise ConfigurationError(
                f"unknown experiment status {data['status']!r}"
            )
        try:
            spec = ExperimentSpec.from_dict(data["spec"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed spec ({type(exc).__name__}: {exc})"
            ) from None
        if spec.name != data["name"]:
            raise ConfigurationError(
                f"name {data['name']!r} != spec name {spec.name!r}"
            )
        if spec.content_hash != data["spec_hash"]:
            raise ConfigurationError(
                f"spec_hash {data['spec_hash']!r} != recomputed "
                f"{spec.content_hash!r} (spec edited by hand; re-define "
                f"the experiment)"
            )
        tasks = data["tasks"]
        if not isinstance(tasks, dict):
            raise ConfigurationError("tasks must be an object")
        # Task ids are positional (``ExperimentSpec.expand``), so the
        # spec's cell count alone fixes the set.
        if set(tasks) != {f"t{index:05d}" for index in range(spec.n_tasks)}:
            raise ConfigurationError(
                f"task ids disagree with the spec "
                f"({len(tasks)} recorded vs {spec.n_tasks} expected)"
            )
        return cls(
            spec=spec,
            tasks={
                task_id: TaskRecord.from_dict(task_id, record)
                for task_id, record in tasks.items()
            },
            status=data["status"],
            created=data["created"],
            updated=data["updated"],
            fingerprint=data["fingerprint"],
        )


#: The keys :meth:`ExperimentState.to_dict` / :meth:`TaskRecord.to_dict`
#: write, no more and no fewer.
_STATE_KEYS = frozenset({
    "schema_version", "name", "spec", "spec_hash", "status", "created",
    "updated", "fingerprint", "tasks",
})
_RECORD_KEYS = frozenset(field.name for field in fields(TaskRecord))


def _key_problem(data: dict, keys: frozenset) -> str:
    """Name the first key ``data`` lacks or should not have."""
    missing = sorted(keys - data.keys())
    if missing:
        return f"missing key {missing[0]!r}"
    return f"unknown key {sorted(data.keys() - keys)[0]!r}"


def read_state(path: Path) -> ExperimentState:
    """Read one state file (``state.json`` or a shard sidecar).

    Raises :class:`ConfigurationError` naming ``path`` and the first
    problem: unreadable JSON, or any check of
    :meth:`ExperimentState.from_dict`.
    """
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"unreadable state file {path}: {exc}") from None
    try:
        return ExperimentState.from_dict(data)
    except ConfigurationError as exc:
        raise ConfigurationError(f"state file {path}: {exc}") from None


def _shard_filename(shard: tuple[int, int]) -> str:
    i, n = shard
    return f"state.shard-{i}-of-{n}.json"


class ExperimentStore:
    """Directory-per-experiment persistence for :class:`ExperimentState`."""

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_state_root()

    def experiment_dir(self, name: str) -> Path:
        return self.root / name

    def state_path(self, name: str, shard: tuple[int, int] | None = None) -> Path:
        filename = "state.json" if shard is None else _shard_filename(shard)
        return self.experiment_dir(name) / filename

    def exists(self, name: str) -> bool:
        return self.state_path(name).exists()

    def names(self) -> list[str]:
        """Defined experiment names, sorted."""
        if not self.root.exists():
            return []
        return sorted(
            p.parent.name for p in self.root.glob("*/state.json")
        )

    # -- IO ----------------------------------------------------------------

    def save(
        self, state: ExperimentState, shard: tuple[int, int] | None = None
    ) -> Path:
        """Atomically write ``state.json`` (or the shard's sidecar)."""
        path = self.state_path(state.spec.name, shard)
        return write_atomic_json(path, state.to_dict())

    def load(self, name: str, shard: tuple[int, int] | None = None) -> ExperimentState:
        path = self.state_path(name, shard)
        if not path.exists():
            raise ConfigurationError(
                f"no experiment {name!r} under {self.root} "
                f"(define one with 'fcdpm exp define')"
            )
        return read_state(path)

    def define(
        self, spec: ExperimentSpec, overwrite: bool = False
    ) -> ExperimentState:
        """Create (or re-create) the experiment's state file.

        Redefining with the *same* content hash is an idempotent no-op
        that returns the existing state; a different hash requires
        ``overwrite=True`` (the old records describe different tasks).
        """
        if self.exists(spec.name) and not overwrite:
            existing = self.load(spec.name)
            if existing.spec.content_hash == spec.content_hash:
                return existing
            raise ConfigurationError(
                f"experiment {spec.name!r} already exists with a different "
                f"spec (hash {existing.spec.content_hash} != "
                f"{spec.content_hash}); use overwrite to redefine"
            )
        state = ExperimentState.define(spec)
        self.save(state)
        return state

    # -- shard merge -------------------------------------------------------

    def shard_paths(self, name: str) -> list[Path]:
        return sorted(self.experiment_dir(name).glob("state.shard-*.json"))

    def merge(self, name: str) -> ExperimentState:
        """Fold every shard sidecar back into the main ``state.json``.

        A shard's settled/failed records win over the main file's
        pending ones; ``done``/``analyzed`` always wins over ``failed``
        (a task that succeeded anywhere succeeded).  Idempotent.
        """
        state = self.load(name)
        for path in self.shard_paths(name):
            shard_state = read_state(path)
            if shard_state.spec.content_hash != state.spec.content_hash:
                raise ConfigurationError(
                    f"shard state {path.name} belongs to a different spec"
                )
            for task_id, record in shard_state.tasks.items():
                current = state.tasks.get(task_id)
                if current is None or _merge_wins(record, current):
                    state.tasks[task_id] = record
        state.refresh_status()
        self.save(state)
        return state


#: Status precedence for shard merging (higher wins).
_MERGE_RANK = {
    "defined": 0,
    "running": 1,
    "failed": 2,
    "done": 3,
    "analyzed": 4,
}


def _merge_wins(incoming: TaskRecord, current: TaskRecord) -> bool:
    return _MERGE_RANK[incoming.status] > _MERGE_RANK[current.status]
