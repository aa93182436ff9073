"""Run manifests: the provenance record behind every exported number.

A :class:`RunManifest` pins everything needed to reproduce a result --
the code fingerprint the run was computed under, the full scenario
spec / parameter dict, seeds, worker count, which execution route
(vectorized fast path vs scalar simulator) produced it, wall/CPU time,
a metrics snapshot, and the package versions involved.  One is written

* as the first line of every on-disk
  :class:`~repro.runtime.cache.ResultCache` entry (compact JSON),
* into every ``fcdpm export`` directory, and
* into the ``--trace`` output directory of ``fcdpm run``,

so any number in a table or figure can be traced back to the exact
configuration that computed it.  The schema is validated by
:mod:`repro.obs.schema` (and ``fcdpm trace check`` in CI).
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from .live import write_atomic_json

#: Bump when a field changes meaning; validators check compatibility.
MANIFEST_SCHEMA_VERSION = 1


def package_versions() -> dict[str, str]:
    """Versions of the interpreter and the packages that shape results."""
    import numpy

    try:
        from repro import __version__ as repro_version
    except ImportError:  # pragma: no cover - broken install
        repro_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro_version,
    }


@dataclass(frozen=True)
class RunManifest:
    """Frozen provenance record of one computed result."""

    #: What was run -- an experiment namespace ('table2', 'run', ...).
    name: str
    #: Code fingerprint the result was computed under
    #: (:func:`~repro.runtime.cache.code_fingerprint`).
    fingerprint: str
    schema_version: int = MANIFEST_SCHEMA_VERSION
    #: Unix timestamp of manifest creation.
    created: float = 0.0
    #: Full scenario spec dict (``Scenario.to_dict()``), if one applies.
    scenario: dict[str, Any] | None = None
    #: Free-form parameter dict (whatever keyed the computation).
    params: dict[str, Any] | None = None
    seeds: tuple[int, ...] = ()
    workers: int = 1
    #: 'fast' | 'scalar' | 'mixed' | '' (not a simulation).
    route: str = ""
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Flat metrics snapshot (:meth:`MetricsRegistry.snapshot`).
    metrics: dict[str, Any] = field(default_factory=dict)
    versions: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        # Shallow: nested dicts/lists are shared with the manifest, not
        # deep-copied; ``json.dumps`` walks them the same either way.
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["seeds"] = list(self.seeds)
        return data

    def write(self, path: Path | str) -> Path:
        """Atomically write the manifest as JSON; returns the path written."""
        return write_atomic_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunManifest":
        return cls(
            name=data["name"],
            fingerprint=data["fingerprint"],
            schema_version=data.get("schema_version", MANIFEST_SCHEMA_VERSION),
            created=data.get("created", 0.0),
            scenario=data.get("scenario"),
            params=data.get("params"),
            seeds=tuple(data.get("seeds", ())),
            workers=data.get("workers", 1),
            route=data.get("route", ""),
            wall_s=data.get("wall_s", 0.0),
            cpu_s=data.get("cpu_s", 0.0),
            metrics=data.get("metrics", {}),
            versions=data.get("versions", {}),
        )


def build_manifest(
    name: str,
    *,
    scenario: dict[str, Any] | None = None,
    params: dict[str, Any] | None = None,
    seeds=(),
    workers: int = 1,
    route: str = "",
    wall_s: float = 0.0,
    cpu_s: float = 0.0,
    metrics: dict[str, Any] | None = None,
    fingerprint: str | None = None,
) -> RunManifest:
    """Assemble a manifest, filling fingerprint/versions/timestamp in."""
    if fingerprint is None:
        from ..runtime.cache import code_fingerprint

        fingerprint = code_fingerprint()
    return RunManifest(
        name=name,
        fingerprint=fingerprint,
        created=time.time(),
        scenario=scenario,
        params=params,
        seeds=tuple(int(s) for s in seeds),
        workers=workers,
        route=route,
        wall_s=wall_s,
        cpu_s=cpu_s,
        metrics=dict(metrics) if metrics else {},
        versions=package_versions(),
    )
