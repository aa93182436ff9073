"""Live telemetry: streaming heartbeats + metrics snapshots.

The PR-4 obs layer is post-hoc -- spans and metrics only surface after
a run finishes and exports.  This module adds the *monitoring-in-the-
loop* half: a background :class:`LiveFlusher` thread that, at a
configurable interval, atomically publishes

* a **heartbeat JSON** per run/shard (pid, host, start/update
  timestamps, task progress, rate, ETA, current phase, cache-hit
  ratio) -- the file ``fcdpm exp watch`` / ``fcdpm top`` poll; and
* a **metrics JSON** holding the full
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot (one instrument
  dict per registry name).

Both writes are atomic (temp file + ``os.replace``), so a concurrent
reader never sees a partial document; both are best-effort -- an
unwritable directory degrades telemetry, never the computation.
:meth:`Heartbeat.from_dict` is the one heartbeat reader: a torn or
malformed file raises :class:`~repro.errors.ConfigurationError`, which
:func:`iter_heartbeats` hands to the caller instead of skipping it.

Everything is **off by default**: no thread starts unless a caller
constructs a flusher (``fcdpm exp run --live``, or the
``FCDPM_LIVE_INTERVAL`` environment switch), and the instrumented call
sites feeding :class:`LiveProgress` cost one attribute test when
inactive -- the same discipline (and the same ≤2% benchmark gate) as
the rest of the obs layer.

Stall semantics: a heartbeat that is not ``final`` and whose age
exceeds ``stall_factor`` (default 3) times its own ``interval_s`` is
**stalled** -- the writing process died, hung, or lost its disk.  A
``final`` heartbeat (written by a clean :meth:`LiveFlusher.stop`) is
never stalled, however old; a crash skips the final flush, so the last
periodic heartbeat goes stale and trips detection.
"""

from __future__ import annotations

import json
import os
import re
import socket
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..errors import ConfigurationError

#: Bump when a heartbeat field changes meaning.
HEARTBEAT_SCHEMA_VERSION = 1

#: Seconds between flushes when live mode is enabled without an
#: explicit interval (``--live`` with no ``--live-interval``).
DEFAULT_LIVE_INTERVAL = 1.0

#: Heartbeat age, in multiples of the flush interval, beyond which a
#: non-final heartbeat counts as stalled.
DEFAULT_STALL_FACTOR = 3.0

_SHARD_FILE_RE = re.compile(r"heartbeat\.shard-(\d+)-of-(\d+)\.json\Z")


def live_interval(value: float | bool | None = None) -> float | None:
    """Resolve a live-flush interval; ``None`` means live mode is off.

    ``None`` defers to the ``FCDPM_LIVE_INTERVAL`` environment variable
    (unset/empty/unparsable/non-positive -> off); ``True`` means "on at
    the default cadence"; ``False`` forces off; a number is the
    interval in seconds (non-positive -> off).
    """
    if value is None:
        raw = os.environ.get("FCDPM_LIVE_INTERVAL")
        if not raw:
            return None
        try:
            value = float(raw)
        except ValueError:
            return None
    if value is True:
        return DEFAULT_LIVE_INTERVAL
    if value is False:
        return None
    value = float(value)
    return value if value > 0 else None


def _shard_suffix(shard: tuple[int, int] | str | None) -> str:
    """``".shard-i-of-n"`` filename infix, or ``""`` unsharded."""
    if shard is None:
        return ""
    if isinstance(shard, str):
        i_text, _, n_text = shard.partition("/")
        shard = (int(i_text), int(n_text))
    return f".shard-{shard[0]}-of-{shard[1]}"


def heartbeat_path(
    directory: Path | str, shard: tuple[int, int] | str | None = None
) -> Path:
    """Where a run/shard's heartbeat JSON lives."""
    return Path(directory) / f"heartbeat{_shard_suffix(shard)}.json"


def metrics_path(
    directory: Path | str, shard: tuple[int, int] | str | None = None
) -> Path:
    """Where a run/shard's metrics snapshot JSON lives."""
    return Path(directory) / f"metrics{_shard_suffix(shard)}.json"


def write_atomic_json(path: Path | str, payload: Any) -> Path:
    """Write JSON via temp file + ``os.replace`` (reader-torn-proof)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True, default=repr) + "\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


@dataclass
class Heartbeat:
    """One liveness record, as written to ``heartbeat*.json``."""

    name: str
    pid: int
    host: str
    started: float
    updated: float
    interval_s: float
    phase: str = ""
    shard: str | None = None
    tasks_done: int = 0
    tasks_failed: int = 0
    tasks_total: int = 0
    #: Settled tasks per second since the flusher started (0 when none).
    task_rate: float = 0.0
    #: Projected seconds to finish the remaining tasks (None: unknown).
    eta_s: float | None = None
    #: ``hits / (hits + misses)`` of the result cache so far (None: no
    #: cache traffic yet).
    cache_hit_ratio: float | None = None
    #: True only on the clean final flush -- never considered stalled.
    final: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": HEARTBEAT_SCHEMA_VERSION,
            "name": self.name,
            "shard": self.shard,
            "pid": self.pid,
            "host": self.host,
            "started": self.started,
            "updated": self.updated,
            "interval_s": self.interval_s,
            "phase": self.phase,
            "tasks_done": self.tasks_done,
            "tasks_failed": self.tasks_failed,
            "tasks_total": self.tasks_total,
            "task_rate": self.task_rate,
            "eta_s": self.eta_s,
            "cache_hit_ratio": self.cache_hit_ratio,
            "final": self.final,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "Heartbeat":
        """Parse :meth:`to_dict` output; raises :class:`ConfigurationError`
        naming the first problem (a missing or mistyped field, or values
        no writer produces)."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"expected a JSON object, got {type(data).__name__}"
            )
        for key, types in _FIELD_TYPES.items():
            if key not in data:
                raise ConfigurationError(f"missing field {key!r}")
            value = data[key]
            # bool is an int subclass: accept it only where it is named.
            if not isinstance(value, types) or (
                isinstance(value, bool) and bool not in types
            ):
                raise ConfigurationError(
                    f"field {key!r} has type {type(value).__name__}"
                )
        if data["schema_version"] > HEARTBEAT_SCHEMA_VERSION:
            raise ConfigurationError(
                f"schema_version {data['schema_version']} is newer than "
                f"supported {HEARTBEAT_SCHEMA_VERSION}"
            )
        if not data["interval_s"] > 0:
            raise ConfigurationError(f"interval_s {data['interval_s']!r} not > 0")
        if not data["updated"] >= data["started"]:
            raise ConfigurationError("updated predates started")
        for key in ("tasks_done", "tasks_failed", "tasks_total"):
            if data[key] < 0:
                raise ConfigurationError(f"negative {key}")
        if data["tasks_total"] and (
            data["tasks_done"] + data["tasks_failed"] > data["tasks_total"]
        ):
            raise ConfigurationError("done + failed exceeds total")
        return cls(**{key: data[key] for key in _FIELD_TYPES if key != "schema_version"})


_NUMBER = (int, float)
#: Every field :meth:`Heartbeat.to_dict` writes, with its JSON types.
_FIELD_TYPES: dict[str, tuple[type, ...]] = {
    "schema_version": (int,),
    "name": (str,),
    "shard": (str, type(None)),
    "pid": (int,),
    "host": (str,),
    "started": _NUMBER,
    "updated": _NUMBER,
    "interval_s": _NUMBER,
    "phase": (str,),
    "tasks_done": (int,),
    "tasks_failed": (int,),
    "tasks_total": (int,),
    "task_rate": _NUMBER,
    "eta_s": (*_NUMBER, type(None)),
    "cache_hit_ratio": (*_NUMBER, type(None)),
    "final": (bool,),
}


def heartbeat_age(beat: Heartbeat, now: float | None = None) -> float:
    """Seconds since the heartbeat was last written (clamped at 0)."""
    if now is None:
        now = time.time()
    return max(0.0, now - beat.updated)


def is_stalled(
    beat: Heartbeat,
    now: float | None = None,
    factor: float = DEFAULT_STALL_FACTOR,
) -> bool:
    """Stalled = not final and older than ``factor`` flush intervals."""
    return not beat.final and heartbeat_age(beat, now) > factor * beat.interval_s


def iter_heartbeats(
    directory: Path | str,
) -> list[tuple[str | None, Heartbeat | ConfigurationError]]:
    """Every heartbeat file in a run directory, shards sorted by index:
    ``[(shard_label | None, heartbeat), ...]``.

    A file that is not valid JSON or not a valid heartbeat yields its
    :class:`ConfigurationError` (naming the path) in place of the
    heartbeat.  Writes are atomic, so such a file is corruption, not a
    write in progress; the caller reports it and still renders the
    healthy shards.
    """
    directory = Path(directory)
    out: list[tuple[tuple[int, int], str | None, Any]] = []
    if not directory.is_dir():
        return []
    for path in sorted(directory.glob("heartbeat*.json")):
        match = _SHARD_FILE_RE.match(path.name)
        if match:
            label = f"{int(match.group(1))}/{int(match.group(2))}"
            order = (int(match.group(1)), int(match.group(2)))
        elif path.name == "heartbeat.json":
            label, order = None, (0, 0)
        else:
            continue
        try:
            beat = Heartbeat.from_dict(json.loads(path.read_text()))
        except (OSError, json.JSONDecodeError, ConfigurationError) as exc:
            beat = ConfigurationError(f"invalid heartbeat {path}: {exc}")
        out.append((order, label, beat))
    out.sort(key=lambda item: item[0])
    return [(label, beat) for _, label, beat in out]


class LiveProgress:
    """Thread-safe task-progress counters the run loop updates.

    One instance per run/shard; the executing thread bumps it per task
    commit and the :class:`LiveFlusher` thread snapshots it per flush.
    Updates are per *task* (not per slot), so the lock is cold.
    """

    __slots__ = ("_lock", "_done", "_failed", "_total", "_phase")

    def __init__(self, total: int = 0, phase: str = "") -> None:
        self._lock = threading.Lock()
        self._done = 0
        self._failed = 0
        self._total = int(total)
        self._phase = phase

    def add_done(self, n: int = 1) -> None:
        with self._lock:
            self._done += n

    def add_failed(self, n: int = 1) -> None:
        with self._lock:
            self._failed += n

    def set_total(self, total: int) -> None:
        with self._lock:
            self._total = int(total)

    def set_phase(self, phase: str) -> None:
        with self._lock:
            self._phase = phase

    def snapshot(self) -> tuple[int, int, int, str]:
        """Consistent ``(done, failed, total, phase)`` view."""
        with self._lock:
            return (self._done, self._failed, self._total, self._phase)


def _cache_hit_ratio(snapshot: dict[str, dict[str, Any]]) -> float | None:
    """``hits / (hits + misses)`` from a registry snapshot, if any."""
    hits = snapshot.get("runtime.cache.hits", {}).get("value", 0.0)
    misses = snapshot.get("runtime.cache.misses", {}).get("value", 0.0)
    total = hits + misses
    if total <= 0:
        return None
    return hits / total


class LiveFlusher(threading.Thread):
    """Background thread that periodically publishes live telemetry.

    Writes :func:`heartbeat_path` and :func:`metrics_path` under
    ``directory`` every ``interval`` seconds (plus once immediately on
    start and once, marked ``final``, from :meth:`stop`).  The metrics
    registry is resolved *per flush* (default: the live ``OBS.metrics``),
    so an ``observing()`` scope installed after construction is still
    captured.

    The thread is a daemon: a crashed coordinator never hangs on it,
    and the missing final flush is exactly what lets the stall detector
    notice the crash.
    """

    def __init__(
        self,
        directory: Path | str,
        name: str,
        *,
        progress: LiveProgress,
        interval: float = DEFAULT_LIVE_INTERVAL,
        shard: tuple[int, int] | str | None = None,
        registry=None,
    ) -> None:
        super().__init__(name=f"fcdpm-live-{name}", daemon=True)
        if interval <= 0:
            raise ValueError(f"flush interval must be > 0, got {interval}")
        self.directory = Path(directory)
        self.run_name = name
        self.progress = progress
        self.interval = float(interval)
        self.shard_label = (
            f"{shard[0]}/{shard[1]}" if isinstance(shard, tuple) else shard
        )
        self._registry = registry
        self._stop_event = threading.Event()
        self._started_wall = time.time()
        self._t0 = time.perf_counter()
        self.flushes = 0
        self.write_errors = 0

    # -- flush mechanics -----------------------------------------------------

    def _snapshot_registry(self) -> dict[str, dict[str, Any]]:
        registry = self._registry
        if registry is None:
            from .state import OBS

            registry = OBS.metrics
        return registry.snapshot()

    def build_heartbeat(
        self, snapshot: dict[str, dict[str, Any]], final: bool = False
    ) -> Heartbeat:
        """Assemble the current heartbeat; the cache-hit ratio comes from
        ``snapshot``, the registry snapshot the same flush writes."""
        done, failed, total, phase = self.progress.snapshot()
        elapsed = time.perf_counter() - self._t0
        settled = done + failed
        rate = settled / elapsed if elapsed > 0 else 0.0
        remaining = max(total - settled, 0)
        eta = remaining / rate if (rate > 0 and total) else None
        return Heartbeat(
            name=self.run_name,
            shard=self.shard_label,
            pid=os.getpid(),
            host=socket.gethostname(),
            started=self._started_wall,
            updated=time.time(),
            interval_s=self.interval,
            phase=phase,
            tasks_done=done,
            tasks_failed=failed,
            tasks_total=total,
            task_rate=rate,
            eta_s=eta,
            cache_hit_ratio=_cache_hit_ratio(snapshot),
            final=final,
        )

    def flush(self, final: bool = False) -> None:
        """Write heartbeat + metrics snapshot once; IO failures are
        counted, never raised (telemetry must not break the run)."""
        try:
            snapshot = self._snapshot_registry()
            write_atomic_json(
                heartbeat_path(self.directory, self.shard_label),
                self.build_heartbeat(snapshot, final=final).to_dict(),
            )
            write_atomic_json(
                metrics_path(self.directory, self.shard_label), snapshot
            )
            self.flushes += 1
        except OSError:
            self.write_errors += 1

    # -- thread lifecycle ----------------------------------------------------

    def run(self) -> None:  # pragma: no cover - exercised via start()
        self.flush()
        while not self._stop_event.wait(self.interval):
            self.flush()

    def stop(self, final: bool = True, timeout: float | None = None) -> None:
        """Stop the loop, join, and write one last flush.

        ``final=True`` (a clean completion) marks the heartbeat final
        so it is never flagged stalled; ``final=False`` (an abort)
        leaves it non-final, so it goes stale and trips the detector
        exactly like a hard crash.
        """
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout if timeout is not None else self.interval * 5 + 1)
        self.flush(final=final)

    def __enter__(self) -> "LiveFlusher":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(final=exc_type is None)


__all__ = [
    "DEFAULT_LIVE_INTERVAL",
    "DEFAULT_STALL_FACTOR",
    "HEARTBEAT_SCHEMA_VERSION",
    "Heartbeat",
    "LiveFlusher",
    "LiveProgress",
    "heartbeat_age",
    "heartbeat_path",
    "is_stalled",
    "iter_heartbeats",
    "live_interval",
    "metrics_path",
    "write_atomic_json",
]
