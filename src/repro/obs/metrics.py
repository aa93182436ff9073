"""Counters, gauges and histograms behind one process-local registry.

The instrument set is deliberately small and canonical -- hot paths
emit a fixed vocabulary (catalogued in ``docs/observability.md``) so
dashboards and tests can rely on names:

=========================================  =====================================
``runtime.cache.{hits,misses}``             on-disk result cache traffic
``runtime.memo.{hit,miss,uncacheable}``    slot-solver memoization
``runtime.parallel.chunk_seconds``         per-chunk wall time (histogram)
``sim.route``                              fast vs scalar routing (labelled)
``sim.fast_ineligible``                    why the kernel was skipped (labelled)
``dpm.decisions`` / ``dpm.aborted_sleeps`` sleep/wake decisions, mispredictions
``power.storage.{bleed,deficit}_events``   storage clamp events
``power.delivered_charge``                 cumulative delivered charge (A-s)
=========================================  =====================================

Instruments are keyed by ``name`` plus an optional label mapping
(``counter("sim.route", path="fast")``); the label set is folded into
the key (``sim.route{path=fast}``) so a snapshot is a flat, JSON-able
dict.  Everything is process-local: parallel workers count into their
own registry, and whoever needs a cross-process view merges snapshots
(:meth:`MetricsRegistry.merge`).
"""

from __future__ import annotations

import math
import threading
from typing import Any

#: Schema version stamped on metric snapshot exports.
METRICS_SCHEMA_VERSION = 1

#: Histograms keep at most this many raw samples for percentiles; the
#: running count/sum/min/max stay exact beyond it.
_HISTOGRAM_RESERVOIR = 8192


class Counter:
    """Monotonically increasing value (ints or float quantities)."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock: threading.Lock | None = None) -> None:
        self.value = 0.0
        self._lock = lock if lock is not None else threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def to_dict(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value (e.g. a configuration or end-state reading)."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock: threading.Lock | None = None) -> None:
        self.value = 0.0
        self._lock = lock if lock is not None else threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def to_dict(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Distribution summary: exact count/sum/min/max plus percentiles.

    Raw samples are kept up to a bounded reservoir (the experiment
    workloads stay well inside it); past the bound, percentiles are
    computed over the retained prefix while count/sum/min/max remain
    exact.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "_samples", "_lock")

    def __init__(self, lock: threading.Lock | None = None) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._samples: list[float] = []
        self._lock = lock if lock is not None else threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value
            if len(self._samples) < _HISTOGRAM_RESERVOIR:
                self._samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the retained samples (p in [0, 100])."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[min(rank, len(ordered)) - 1]

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }


def _key(name: str, labels: dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create instrument store with a flat snapshot export.

    Registry-created instruments share the registry's lock: every
    mutation (``inc``/``set``/``observe``) and the whole of
    :meth:`snapshot` acquire it, so a live flusher thread snapshotting
    mid-run can never observe a torn instrument (e.g. a histogram whose
    ``count`` was bumped but whose ``sum`` wasn't yet).  The lock is
    uncontended single-threaded and only ever paid on the *enabled*
    path -- disabled hot paths never reach an instrument at all.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, labels: dict[str, Any]):
        key = _key(name, labels)
        inst = self._instruments.get(key)
        if inst is None:
            with self._lock:
                inst = self._instruments.setdefault(key, cls(self._lock))
        if not isinstance(inst, cls):
            raise TypeError(
                f"instrument {key!r} is a {type(inst).__name__}, "
                f"not a {cls.__name__}"
            )
        return inst

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Flat ``{key: instrument-dict}`` view, sorted by key.

        The entire export is built while holding the registry lock, so
        concurrent mutators (which take the same lock) can never be
        caught mid-update -- every instrument dict in the snapshot is
        internally consistent, and the snapshot as a whole is a single
        point-in-time cut.
        """
        with self._lock:
            return {
                key: inst.to_dict()
                for key, inst in sorted(self._instruments.items())
            }

    def merge(self, snapshot: dict[str, dict[str, Any]]) -> None:
        """Fold a foreign snapshot in (worker registries after a fan-out).

        Counters add, gauges take the incoming value, histograms merge
        count/sum/min/max (percentiles of merged histograms are
        approximate: the local reservoir keeps only local samples).
        """
        for key, data in snapshot.items():
            kind = data.get("type")
            name, _, _ = key.partition("{")
            labels = {}
            if "{" in key:
                inner = key[key.index("{") + 1 : -1]
                labels = dict(part.split("=", 1) for part in inner.split(",") if part)
            if kind == "counter":
                self.counter(name, **labels).inc(data.get("value", 0.0))
            elif kind == "gauge":
                self.gauge(name, **labels).set(data.get("value", 0.0))
            elif kind == "histogram":
                hist = self.histogram(name, **labels)
                with hist._lock:
                    hist.count += int(data.get("count", 0))
                    hist.total += float(data.get("sum", 0.0))
                    if data.get("count"):
                        hist.minimum = min(
                            hist.minimum, float(data.get("min", math.inf))
                        )
                        hist.maximum = max(
                            hist.maximum, float(data.get("max", -math.inf))
                        )

    def reset(self) -> None:
        """Drop every instrument (tests and fresh runs)."""
        with self._lock:
            self._instruments.clear()
