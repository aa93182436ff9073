"""On-disk result cache for whole experiments.

``fcdpm`` subcommands and the benchmark suite recompute identical
tables and sweeps over and over; a full report is seconds of compute
for bytes of output.  :class:`ResultCache` stores any picklable result
under a key that is a stable hash of

* a namespace (the experiment name),
* the experiment parameters (canonical JSON, so dict ordering and
  int/float spelling cannot change the key), and
* a fingerprint of the installed ``repro`` source code,

so results are transparently invalidated the moment either the
parameters *or the code* change.  Corrupt or unreadable entries are
treated as misses -- the cache can always be deleted wholesale.

The location defaults to ``~/.cache/fcdpm`` and can be redirected with
the ``FCDPM_CACHE_DIR`` environment variable; the CLI exposes
``--no-cache`` to bypass it entirely.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..obs import OBS

_FINGERPRINT: str | None = None

#: Length of the SHA-256 trailer after every entry's pickle bytes.
_DIGEST_BYTES = 32

logger = logging.getLogger("repro.runtime.cache")


def code_fingerprint(root: Path | str | None = None) -> str:
    """Stable hash of every ``*.py`` file under ``root``.

    ``root`` defaults to the installed ``repro`` package tree (cached
    per process -- the common case hashes the source exactly once).
    Adding, removing, or editing any module under the root changes the
    fingerprint and therefore every cache key -- the "code version"
    part of the invalidation story.
    """
    global _FINGERPRINT
    if root is None and _FINGERPRINT is not None:
        return _FINGERPRINT
    package_root = (
        Path(__file__).resolve().parent.parent if root is None else Path(root)
    )
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(path.read_bytes())
    fingerprint = digest.hexdigest()[:16]
    if root is None:
        _FINGERPRINT = fingerprint
    return fingerprint


def _canonical(params: Any) -> str:
    """Canonical JSON for hashing: sorted keys, no whitespace drift."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"), default=repr)


def cache_key(namespace: str, params: Any, fingerprint: str | None = None) -> str:
    """Hex key for (namespace, params, code version)."""
    fp = code_fingerprint() if fingerprint is None else fingerprint
    payload = f"{namespace}\x00{_canonical(params)}\x00{fp}"
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def default_cache_dir() -> Path:
    """``$FCDPM_CACHE_DIR`` if set, else ``~/.cache/fcdpm``."""
    env = os.environ.get("FCDPM_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "fcdpm"


class ResultCache:
    """Pickle-per-entry directory cache with atomic writes.

    Parameters
    ----------
    root:
        Cache directory (created lazily).  ``None`` uses
        :func:`default_cache_dir`.
    enabled:
        When False every lookup misses and nothing is written -- the
        ``--no-cache`` escape hatch without branching at call sites.
    """

    def __init__(self, root: Path | str | None = None, enabled: bool = True) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.enabled = enabled
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    # -- primitive get/put -------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """Load a cached value, or ``default`` on any kind of miss."""
        if not self.enabled:
            return default
        try:
            data = self._path(key).read_bytes()
            body, digest = data[:-_DIGEST_BYTES], data[-_DIGEST_BYTES:]
            if len(data) <= _DIGEST_BYTES or hashlib.sha256(body).digest() != digest:
                raise pickle.UnpicklingError("entry checksum mismatch")
            value = pickle.loads(body)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            self.misses += 1
            if OBS.enabled:
                OBS.metrics.counter("runtime.cache.misses").inc()
            return default
        self.hits += 1
        if OBS.enabled:
            OBS.metrics.counter("runtime.cache.hits").inc()
        return value

    def put(self, key: str, value: Any) -> None:
        """Store a value atomically (rename over a temp file).

        The entry is the pickle followed by the SHA-256 of the pickle
        bytes.  The digest sits after the pickle's STOP opcode, so a
        bare ``pickle.load`` still reads the entry; :meth:`get` checks
        it, so a torn or bit-flipped entry is a miss, never a value.

        Best-effort: an unwritable directory or unpicklable value makes
        this a no-op -- the cache must never break the computation.
        """
        if not self.enabled:
            return
        tmp = None
        try:
            body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(body + hashlib.sha256(body).digest())
            os.replace(tmp, self._path(key))
        except (OSError, pickle.PickleError, AttributeError, TypeError):
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def contains(self, key: str) -> bool:
        """True when an entry exists (without loading it)."""
        return self.enabled and self._path(key).exists()

    # -- invalidation telemetry --------------------------------------------

    def _sidecar_path(self, namespace: str, params: Any) -> Path:
        """Fingerprint sidecar keyed by (namespace, params) *only*.

        The entry key folds the code fingerprint in, so after a source
        edit the old entry simply stops being found.  The sidecar
        remembers which fingerprint last produced a value for these
        parameters, which is what lets a miss be classified as a *code
        invalidation* rather than a first-ever computation.
        """
        payload = f"{namespace}\x00{_canonical(params)}"
        stem = hashlib.sha256(payload.encode()).hexdigest()[:32]
        return self.root / f"{stem}.fp"

    def _note_invalidation(self, namespace: str, params: Any, fp: str) -> None:
        """Detect a fingerprint change; emit the ``cache.invalidated`` event.

        Best-effort file IO: telemetry must never break the computation.
        """
        sidecar = self._sidecar_path(namespace, params)
        try:
            old_fp = sidecar.read_text().strip()
        except OSError:
            old_fp = ""
        if old_fp and old_fp != fp:
            logger.info(
                "cache.invalidated namespace=%s old_fingerprint=%s "
                "new_fingerprint=%s",
                namespace,
                old_fp,
                fp,
            )
            if OBS.enabled:
                OBS.metrics.counter(
                    "runtime.cache.invalidated", namespace=namespace
                ).inc()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            sidecar.write_text(fp + "\n")
        except OSError:
            pass

    def _write_entry_manifest(
        self, key: str, namespace: str, params: Any, fp: str, wall_s: float
    ) -> None:
        """Drop a provenance manifest next to a freshly computed entry."""
        from ..obs import build_manifest

        try:
            manifest = build_manifest(
                namespace,
                scenario=None,
                params=json.loads(_canonical(params)),
                seeds=[],
                workers=0,
                route="cached",
                wall_s=wall_s,
                cpu_s=0.0,
                metrics={},
                fingerprint=fp,
            )
            manifest.write(self.root / f"{key}.manifest.json")
        except (OSError, TypeError, ValueError):
            pass

    # -- the convenience everyone actually uses ----------------------------

    def store(
        self, namespace: str, params: Any, value: Any, wall_s: float = 0.0
    ) -> str:
        """Store a computed value with full provenance; returns its key.

        The write path of :meth:`cached`, usable when the computation
        happened elsewhere (the experiment runner computes whole
        batches, then stores each cell): entry pickle, fingerprint
        sidecar, and ``<key>.manifest.json`` provenance record.  The
        key is returned even when the cache is disabled, so callers can
        link records to where the entry *would* live.
        """
        fp = code_fingerprint()
        key = cache_key(namespace, params, fp)
        if not self.enabled:
            return key
        self._note_invalidation(namespace, params, fp)
        self.put(key, value)
        self._write_entry_manifest(key, namespace, params, fp, wall_s)
        return key

    def cached(self, namespace: str, params: Any, compute: Callable[[], Any]) -> Any:
        """Return the cached result of ``compute()`` for these parameters.

        The key covers the code fingerprint, so a source change
        recomputes; when that happens a structured ``cache.invalidated``
        event is logged (old vs new fingerprint) and counted.  Every
        fresh computation also writes a ``<key>.manifest.json``
        provenance record beside the pickle.
        """
        fp = code_fingerprint()
        key = cache_key(namespace, params, fp)
        sentinel = object()
        value = self.get(key, sentinel)
        if value is sentinel:
            t0 = time.perf_counter()
            value = compute()
            self.store(namespace, params, value, wall_s=time.perf_counter() - t0)
        return value

    # -- hygiene -----------------------------------------------------------

    def _entry_namespace(self, path: Path) -> tuple[str, dict | None]:
        """Namespace (and params) of one entry, via its manifest sidecar.

        Entry keys are opaque hashes; the ``<key>.manifest.json``
        provenance record is what remembers the namespace.  Entries
        without a readable manifest report ``"(unknown)"``.
        """
        manifest = self.root / f"{path.stem}.manifest.json"
        try:
            data = json.loads(manifest.read_text())
            return str(data["name"]), data.get("params")
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            return "(unknown)", None

    def stats(self) -> "CacheStats":
        """Entry count, bytes, and a per-namespace breakdown.

        Namespaces come from each entry's manifest sidecar (entries
        predating manifests group under ``"(unknown)"``); sidecar files
        (``.fp`` fingerprints and the manifests themselves) are counted
        separately.
        """
        namespaces: dict[str, NamespaceStats] = {}
        entries = 0
        entry_bytes = 0
        sidecar_files = 0
        sidecar_bytes = 0
        if not self.root.exists():
            return CacheStats(self.root, 0, 0, 0, 0, {})
        for path in sorted(self.root.glob("*.pkl")):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            entries += 1
            entry_bytes += size
            namespace, _ = self._entry_namespace(path)
            current = namespaces.get(namespace, NamespaceStats(0, 0))
            namespaces[namespace] = NamespaceStats(
                current.entries + 1, current.bytes + size
            )
        for pattern in ("*.fp", "*.manifest.json"):
            for path in self.root.glob(pattern):
                try:
                    sidecar_bytes += path.stat().st_size
                    sidecar_files += 1
                except OSError:
                    continue
        return CacheStats(
            root=self.root,
            entries=entries,
            bytes=entry_bytes,
            sidecar_files=sidecar_files,
            sidecar_bytes=sidecar_bytes,
            namespaces=dict(sorted(namespaces.items())),
        )

    def _unlink(self, path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:
            return False

    def _sweep_orphans(self) -> int:
        """Remove sidecars whose entry pickle is gone; returns count.

        Entry deletion (by :meth:`clear` or by hand) used to leave
        ``<key>.manifest.json`` provenance records behind forever;
        every clear now finishes with this sweep.  Fingerprint sidecars
        are keyed by (namespace, params) rather than per entry, so they
        are only swept by a full :meth:`clear`.
        """
        n = 0
        for manifest in self.root.glob("*.manifest.json"):
            stem = manifest.name[: -len(".manifest.json")]
            if not (self.root / f"{stem}.pkl").exists():
                n += self._unlink(manifest)
        return n

    def clear(self, namespace: str | None = None) -> int:
        """Delete entries (and their sidecars); returns entries removed.

        ``namespace=None`` clears everything, including stray temp
        files and orphaned sidecars.  With a namespace, only entries
        whose manifest names that namespace go -- each with its
        manifest and its (namespace, params) fingerprint sidecar --
        followed by an orphaned-manifest sweep.  Entries without a
        manifest cannot be attributed and are only removed by a full
        clear.
        """
        if not self.root.exists():
            return 0
        n = 0
        if namespace is None:
            for path in self.root.glob("*.pkl"):
                n += self._unlink(path)
            for pattern in ("*.fp", "*.manifest.json", "*.tmp"):
                for path in self.root.glob(pattern):
                    self._unlink(path)
            return n
        for path in self.root.glob("*.pkl"):
            entry_namespace, params = self._entry_namespace(path)
            if entry_namespace != namespace:
                continue
            n += self._unlink(path)
            self._unlink(self.root / f"{path.stem}.manifest.json")
            if params is not None:
                self._unlink(self._sidecar_path(namespace, params))
        self._sweep_orphans()
        return n


@dataclass(frozen=True)
class NamespaceStats:
    """Entry count and pickle bytes of one namespace."""

    entries: int
    bytes: int


@dataclass(frozen=True)
class CacheStats:
    """One :meth:`ResultCache.stats` snapshot."""

    root: Path
    entries: int
    bytes: int
    sidecar_files: int
    sidecar_bytes: int
    namespaces: dict[str, NamespaceStats]

    @property
    def total_bytes(self) -> int:
        """Entries plus sidecars."""
        return self.bytes + self.sidecar_bytes
