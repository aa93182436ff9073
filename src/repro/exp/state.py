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
``validate_state_dict`` is the schema check ``scripts/check_exp_state.py``
runs in CI.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..errors import ConfigurationError
from .spec import ExperimentSpec

#: Bump when a field changes meaning; ``validate_state_dict`` checks it.
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
    def from_dict(cls, data: dict[str, Any]) -> "TaskRecord":
        return cls(
            task_id=data["task_id"],
            status=data.get("status", "defined"),
            cache_key=data.get("cache_key"),
            shard=data.get("shard"),
            wall_s=data.get("wall_s", 0.0),
            resumed=data.get("resumed", False),
            error=data.get("error"),
        )

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
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentState":
        spec = ExperimentSpec.from_dict(data["spec"])
        return cls(
            spec=spec,
            tasks={
                task_id: TaskRecord.from_dict(record)
                for task_id, record in data.get("tasks", {}).items()
            },
            status=data.get("status", "defined"),
            created=data.get("created", 0.0),
            updated=data.get("updated", 0.0),
            fingerprint=data.get("fingerprint", ""),
        )


def validate_state_dict(data: Any) -> list[str]:
    """Structural schema check of a ``state.json`` payload.

    Returns a list of problems (empty = valid): key presence, status
    vocabulary, spec round-trip, content-hash integrity, and task-id
    agreement with the spec's own expansion.
    """
    problems: list[str] = []
    if not isinstance(data, dict):
        return [f"state must be a JSON object, got {type(data).__name__}"]
    if data.get("schema_version") != STATE_SCHEMA_VERSION:
        problems.append(
            f"schema_version {data.get('schema_version')!r} != "
            f"{STATE_SCHEMA_VERSION}"
        )
    for key in ("name", "spec", "spec_hash", "status", "tasks"):
        if key not in data:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    if data["status"] not in EXPERIMENT_STATUSES:
        problems.append(f"unknown experiment status {data['status']!r}")
    try:
        spec = ExperimentSpec.from_dict(data["spec"])
    except (ConfigurationError, KeyError, TypeError) as exc:
        return problems + [f"spec does not round-trip: {exc}"]
    if spec.name != data["name"]:
        problems.append(f"name {data['name']!r} != spec name {spec.name!r}")
    if spec.content_hash != data["spec_hash"]:
        problems.append(
            f"spec_hash {data['spec_hash']!r} != recomputed {spec.content_hash!r}"
        )
    tasks = data["tasks"]
    if not isinstance(tasks, dict) or not tasks:
        return problems + ["tasks must be a non-empty object"]
    expected_ids = {t.task_id for t in spec.expand()}
    if set(tasks) != expected_ids:
        problems.append(
            f"task ids disagree with the spec expansion "
            f"({len(tasks)} recorded vs {len(expected_ids)} expanded)"
        )
    for task_id, record in tasks.items():
        if not isinstance(record, dict):
            problems.append(f"task {task_id}: record must be an object")
            continue
        if record.get("task_id") != task_id:
            problems.append(f"task {task_id}: task_id mismatch")
        if record.get("status") not in TASK_STATUSES:
            problems.append(
                f"task {task_id}: unknown status {record.get('status')!r}"
            )
        if record.get("status") in _SETTLED and not record.get("cache_key"):
            problems.append(f"task {task_id}: settled without a cache_key")
    return problems


def _state_from_file(path: Path, data: dict[str, Any]) -> ExperimentState:
    """Build the state read from ``path``, refusing an edited spec.

    A spec changed by hand no longer matches the ``spec_hash`` written
    with it; running it would execute cells nobody defined, and the
    next save would rewrite the hash and hide the edit.
    """
    try:
        state = ExperimentState.from_dict(data)
    except ConfigurationError as exc:
        raise ConfigurationError(f"state file {path}: {exc}") from None
    if data.get("spec_hash") != state.spec.content_hash:
        raise ConfigurationError(
            f"state file {path}: spec_hash {data.get('spec_hash')!r} != "
            f"recomputed {state.spec.content_hash!r} (spec edited by hand; "
            f"re-define the experiment)"
        )
    return state


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
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(state.to_dict(), indent=2, sort_keys=True) + "\n"
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def load(self, name: str, shard: tuple[int, int] | None = None) -> ExperimentState:
        path = self.state_path(name, shard)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise ConfigurationError(
                f"no experiment {name!r} under {self.root} "
                f"(define one with 'fcdpm exp define')"
            ) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"unreadable state file {path}: {exc}") from exc
        return _state_from_file(path, data)

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
            try:
                shard_state = _state_from_file(path, json.loads(path.read_text()))
            except (OSError, json.JSONDecodeError, KeyError) as exc:
                raise ConfigurationError(
                    f"unreadable shard state {path}: {exc}"
                ) from exc
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
