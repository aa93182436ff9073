"""Structured telemetry: tracing spans, metrics, manifests, exports.

The observability layer for the runtime/sim/power stack.  Four pieces:

:mod:`repro.obs.tracer`
    Hierarchical timed :class:`Span` trees with thread-safe context and
    cross-process propagation (workers export spans as dicts; the
    coordinator :meth:`~repro.obs.tracer.Tracer.adopt`-s and re-parents
    them).
:mod:`repro.obs.metrics`
    A :class:`MetricsRegistry` of counters/gauges/histograms behind a
    small canonical instrument vocabulary (see docs/observability.md).
:mod:`repro.obs.manifest`
    :class:`RunManifest` provenance records written alongside cached and
    exported results.
:mod:`repro.obs.export`
    JSONL dumps, Chrome ``chrome://tracing`` files, human summaries
    (surfaced as ``fcdpm trace summary`` / ``fcdpm run --trace``).

A live-telemetry companion streams state *during* a run:

:mod:`repro.obs.live`
    A background :class:`LiveFlusher` thread publishing atomic
    heartbeat JSONs (progress, rate, ETA, stall detection) and metrics
    snapshot JSONs per run/shard, polled by ``fcdpm exp watch`` /
    ``fcdpm top``.

Everything is **off by default** and reached through the
:data:`~repro.obs.state.OBS` switchboard -- instrumented hot paths cost
one attribute test when disabled (benchmarked under 2% on the
vectorized batch bench), and cold paths go through the null-object
tracer.  Zero third-party dependencies.
"""

from .export import (
    read_jsonl,
    trace_summary,
    write_chrome_trace,
    write_spans_jsonl,
    write_trace_bundle,
)
from .live import (
    HEARTBEAT_SCHEMA_VERSION,
    Heartbeat,
    LiveFlusher,
    LiveProgress,
    heartbeat_age,
    heartbeat_path,
    is_stalled,
    iter_heartbeats,
    live_interval,
)
from .manifest import MANIFEST_SCHEMA_VERSION, RunManifest, build_manifest
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .schema import (
    validate_chrome_trace,
    validate_manifest,
    validate_span,
    validate_span_set,
    validate_trace_dir,
)
from .state import OBS, Observability, disable, enable, observing
from .tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "HEARTBEAT_SCHEMA_VERSION",
    "MANIFEST_SCHEMA_VERSION",
    "NULL_TRACER",
    "OBS",
    "Counter",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "LiveFlusher",
    "LiveProgress",
    "MetricsRegistry",
    "NullTracer",
    "Observability",
    "RunManifest",
    "Span",
    "Tracer",
    "build_manifest",
    "disable",
    "enable",
    "heartbeat_age",
    "heartbeat_path",
    "is_stalled",
    "iter_heartbeats",
    "live_interval",
    "observing",
    "read_jsonl",
    "trace_summary",
    "validate_chrome_trace",
    "validate_manifest",
    "validate_span",
    "validate_span_set",
    "validate_trace_dir",
    "write_chrome_trace",
    "write_spans_jsonl",
    "write_trace_bundle",
]
