#!/usr/bin/env python3
"""Validate live-telemetry artifacts: heartbeats + metrics snapshots.

Thin CLI over :func:`repro.obs.live.validate_heartbeat`, used by
``make live-smoke`` and CI to assert that every ``heartbeat*.json`` and
``metrics*.json`` under an experiment directory is structurally sound:
heartbeat schema/consistency, a metrics file that is a JSON object of
instrument dicts (each with a ``type``), and (optionally) that specific
instruments actually got flushed.

Accepts experiment directories (searched recursively).  Flags:

``--require-final``
    every heartbeat must be marked ``final`` (a completed run).
``--require-sample NAME`` (repeatable)
    at least one metrics file must hold an instrument with this
    registry name (e.g. ``exp.tasks_done``); labels (``{...}``) are
    ignored, so ``sim.route`` matches ``sim.route{path=fast}``.
``--inject-stall``
    instead of validating, rewrite every heartbeat non-final with a
    stale ``updated`` timestamp -- the smoke test's crash simulator for
    exercising ``fcdpm exp watch`` stall detection.

Exit status: 0 when every file validates, 1 with one problem per line
otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def validate_metrics(data: object) -> list[str]:
    """Problems with one metrics snapshot: a JSON object mapping each
    registry name to an instrument dict that names its ``type``."""
    if not isinstance(data, dict):
        return [f"expected a JSON object, got {type(data).__name__}"]
    return [
        f"{key!r}: not an instrument dict with a 'type'"
        for key, value in data.items()
        if not (isinstance(value, dict) and isinstance(value.get("type"), str))
    ]


def inject_stall(targets: list[Path], age_s: float) -> int:
    """Rewrite every heartbeat under ``targets`` as a stale non-final one."""
    rewritten = 0
    for target in targets:
        for path in sorted(target.rglob("heartbeat*.json")):
            data = json.loads(path.read_text())
            data["final"] = False
            data["updated"] = data.get("updated", 0.0) - age_s
            path.write_text(json.dumps(data, indent=2, sort_keys=True))
            rewritten += 1
    if not rewritten:
        print("FAIL --inject-stall found no heartbeat files")
        return 1
    print(f"injected stall into {rewritten} heartbeat(s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="+", help="experiment directories")
    parser.add_argument("--require-final", action="store_true")
    parser.add_argument(
        "--require-sample", action="append", default=[], metavar="NAME"
    )
    parser.add_argument("--inject-stall", action="store_true")
    parser.add_argument(
        "--stall-age", type=float, default=3600.0, metavar="SECONDS",
        help="how far back --inject-stall moves the updated timestamp",
    )
    args = parser.parse_args(argv)

    from repro.obs.live import validate_heartbeat

    targets = [Path(t) for t in args.targets]
    if args.inject_stall:
        return inject_stall(targets, args.stall_age)

    failures = 0
    heartbeats = 0
    metric_files = 0
    seen_names: set[str] = set()
    for target in targets:
        if not target.is_dir():
            print(f"FAIL {target}: not a directory")
            failures += 1
            continue
        for path in sorted(target.rglob("heartbeat*.json")):
            heartbeats += 1
            try:
                data = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                print(f"FAIL {path}: unreadable ({exc})")
                failures += 1
                continue
            problems = validate_heartbeat(data)
            if args.require_final and not problems and not data.get("final"):
                problems = problems + ["heartbeat is not final"]
            for problem in problems:
                print(f"FAIL {path}: {problem}")
            failures += len(problems)
        for path in sorted(target.rglob("metrics*.json")):
            metric_files += 1
            try:
                data = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                print(f"FAIL {path}: unreadable ({exc})")
                failures += 1
                continue
            problems = validate_metrics(data)
            for problem in problems:
                print(f"FAIL {path}: {problem}")
            failures += len(problems)
            if not problems:
                seen_names.update(key.partition("{")[0] for key in data)

    if not heartbeats:
        print("FAIL no heartbeat*.json files found")
        failures += 1
    if not metric_files:
        print("FAIL no metrics*.json files found")
        failures += 1
    for name in args.require_sample:
        if name not in seen_names:
            print(f"FAIL no metrics file holds a {name!r} instrument")
            failures += 1
    if failures:
        return 1
    print(
        f"ok {heartbeats} heartbeat(s), {metric_files} metrics file(s)"
        + (f", {len(args.require_sample)} required sample(s)"
           if args.require_sample else "")
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
