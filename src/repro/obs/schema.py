"""Schema checks for trace artifacts (manifest / JSONL / Chrome trace).

Dependency-free structural validation: each ``validate_*`` function
returns a list of human-readable problem strings (empty = valid), and
:func:`validate_trace_dir` checks a whole ``--trace`` output directory
-- the contract ``make trace-smoke`` and CI enforce via
``fcdpm trace check``.  Checks cover field presence and types,
schema-version compatibility, span-tree integrity (ids unique, parents
resolvable, at least one root) and Chrome-trace loadability.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .manifest import MANIFEST_SCHEMA_VERSION
from .metrics import METRICS_SCHEMA_VERSION
from .tracer import SPAN_SCHEMA_VERSION

_MANIFEST_REQUIRED: dict[str, type | tuple[type, ...]] = {
    "name": str,
    "fingerprint": str,
    "schema_version": int,
    "created": (int, float),
    "seeds": list,
    "workers": int,
    "route": str,
    "wall_s": (int, float),
    "cpu_s": (int, float),
    "metrics": dict,
    "versions": dict,
}

_SPAN_REQUIRED: dict[str, type | tuple[type, ...]] = {
    "name": str,
    "span_id": str,
    "t_wall": (int, float),
    "pid": int,
    "thread": str,
    "status": str,
    "attrs": dict,
}


def _check_fields(
    data: dict, required: dict, what: str, errors: list[str]
) -> None:
    for field_name, types in required.items():
        if field_name not in data:
            errors.append(f"{what}: missing field {field_name!r}")
        elif not isinstance(data[field_name], types):
            errors.append(
                f"{what}: field {field_name!r} has type "
                f"{type(data[field_name]).__name__}"
            )


def validate_manifest(data: Any) -> list[str]:
    """Problems with one manifest dict (empty list = valid)."""
    if not isinstance(data, dict):
        return [f"manifest: expected an object, got {type(data).__name__}"]
    errors: list[str] = []
    _check_fields(data, _MANIFEST_REQUIRED, "manifest", errors)
    if data.get("schema_version", MANIFEST_SCHEMA_VERSION) > MANIFEST_SCHEMA_VERSION:
        errors.append(
            f"manifest: schema_version {data['schema_version']} is newer "
            f"than supported {MANIFEST_SCHEMA_VERSION}"
        )
    versions = data.get("versions")
    if isinstance(versions, dict) and "python" not in versions:
        errors.append("manifest: versions lacks a 'python' entry")
    scenario = data.get("scenario")
    if scenario is not None and not isinstance(scenario, dict):
        errors.append("manifest: scenario must be null or an object")
    return errors


def validate_span(data: Any) -> list[str]:
    """Problems with one span dict (empty list = valid)."""
    if not isinstance(data, dict):
        return [f"span: expected an object, got {type(data).__name__}"]
    errors: list[str] = []
    _check_fields(data, _SPAN_REQUIRED, f"span {data.get('name', '?')!r}", errors)
    if data.get("schema", SPAN_SCHEMA_VERSION) > SPAN_SCHEMA_VERSION:
        errors.append(
            f"span {data.get('name', '?')!r}: schema {data['schema']} is newer "
            f"than supported {SPAN_SCHEMA_VERSION}"
        )
    duration = data.get("duration")
    if duration is not None and (
        not isinstance(duration, (int, float)) or duration < 0
    ):
        errors.append(f"span {data.get('name', '?')!r}: bad duration {duration!r}")
    return errors


def validate_span_set(spans: list[dict]) -> list[str]:
    """Cross-span integrity: unique ids, resolvable parents, >= 1 root."""
    errors: list[str] = []
    ids: set[str] = set()
    for span in spans:
        span_id = span.get("span_id")
        if span_id in ids:
            errors.append(f"span set: duplicate span_id {span_id!r}")
        if isinstance(span_id, str):
            ids.add(span_id)
    roots = 0
    for span in spans:
        parent = span.get("parent_id")
        if parent is None:
            roots += 1
        elif parent not in ids:
            errors.append(
                f"span {span.get('name', '?')!r}: parent_id {parent!r} "
                "does not resolve"
            )
    if spans and roots == 0:
        errors.append("span set: no root span (every parent_id set)")
    return errors


def validate_metric_record(data: Any) -> list[str]:
    """Problems with one JSONL metric record."""
    if not isinstance(data, dict):
        return [f"metric: expected an object, got {type(data).__name__}"]
    errors: list[str] = []
    if not isinstance(data.get("key"), str):
        errors.append("metric: missing string 'key'")
    # Counters/gauges carry 'value'; histograms carry 'count' (+ stats).
    if "value" not in data and "count" not in data:
        errors.append(f"metric {data.get('key', '?')!r}: no value/count payload")
    if data.get("schema", METRICS_SCHEMA_VERSION) > METRICS_SCHEMA_VERSION:
        errors.append(
            f"metric {data.get('key', '?')!r}: schema {data['schema']} is "
            f"newer than supported {METRICS_SCHEMA_VERSION}"
        )
    return errors


def validate_chrome_trace(data: Any) -> list[str]:
    """Problems with a loaded Chrome trace-event document."""
    if not isinstance(data, dict) or "traceEvents" not in data:
        return ["chrome trace: expected an object with 'traceEvents'"]
    errors: list[str] = []
    for i, event in enumerate(data["traceEvents"]):
        if not isinstance(event, dict):
            errors.append(f"chrome trace: event {i} is not an object")
            continue
        for key in ("name", "ph", "ts"):
            if key not in event:
                errors.append(f"chrome trace: event {i} lacks {key!r}")
        if event.get("ph") == "X" and "dur" not in event:
            errors.append(f"chrome trace: complete event {i} lacks 'dur'")
    return errors


def validate_trace_dir(directory: Path | str) -> list[str]:
    """Validate a ``--trace`` output directory end to end."""
    directory = Path(directory)
    errors: list[str] = []
    if not directory.is_dir():
        return [f"{directory}: not a directory"]

    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        errors.append(f"{manifest_path.name}: missing")
    else:
        try:
            errors.extend(validate_manifest(json.loads(manifest_path.read_text())))
        except json.JSONDecodeError as exc:
            errors.append(f"{manifest_path.name}: invalid JSON ({exc})")

    jsonl_path = directory / "spans.jsonl"
    if not jsonl_path.exists():
        errors.append(f"{jsonl_path.name}: missing")
    else:
        spans: list[dict] = []
        for lineno, line in enumerate(jsonl_path.read_text().splitlines(), 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"{jsonl_path.name}:{lineno}: invalid JSON ({exc})")
                continue
            if record.get("type") == "span":
                errors.extend(validate_span(record))
                spans.append(record)
            else:
                errors.extend(validate_metric_record(record))
        if not spans:
            errors.append(f"{jsonl_path.name}: contains no spans")
        errors.extend(validate_span_set(spans))

    chrome_path = directory / "trace.json"
    if not chrome_path.exists():
        errors.append(f"{chrome_path.name}: missing")
    else:
        try:
            errors.extend(
                validate_chrome_trace(json.loads(chrome_path.read_text()))
            )
        except json.JSONDecodeError as exc:
            errors.append(f"{chrome_path.name}: invalid JSON ({exc})")

    return errors
