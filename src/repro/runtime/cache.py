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
parameters *or the code* change.  Each entry is one self-describing
file: a line of compact JSON provenance (the fields of
:class:`~repro.obs.manifest.RunManifest`), the pickled value, and a
SHA-256 over both.  Corrupt or unreadable entries are treated as
misses -- the cache can always be deleted wholesale.

The location defaults to ``~/.cache/fcdpm`` and can be redirected with
the ``FCDPM_CACHE_DIR`` environment variable; the CLI exposes
``--no-cache`` to bypass it entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from collections.abc import Callable
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..obs import OBS, build_manifest

_FINGERPRINT: str | None = None

#: Length of the SHA-256 trailer after every entry's provenance + pickle.
_DIGEST_BYTES = 32


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
    """One-file-per-entry directory cache with atomic writes.

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

    # -- read / write --------------------------------------------------------

    def read(self, key: str) -> tuple[dict[str, Any], Any] | None:
        """``(provenance, value)`` of a whole entry, or None on any miss.

        The SHA-256 trailer covers the provenance line and the pickle,
        so a torn, bit-flipped or foreign file is a miss, never a value.
        """
        return self._load(key, parse_header=True)

    def get(self, key: str, default: Any = None) -> Any:
        """Load a cached value, or ``default`` on any kind of miss.

        Checks the same SHA-256 as :meth:`read` but leaves the
        provenance line unparsed.
        """
        entry = self._load(key, parse_header=False)
        if entry is None:
            self.misses += 1
            if OBS.enabled:
                OBS.metrics.counter("runtime.cache.misses").inc()
            return default
        self.hits += 1
        if OBS.enabled:
            OBS.metrics.counter("runtime.cache.hits").inc()
        return entry[1]

    def _load(self, key: str, parse_header: bool) -> tuple[Any, Any] | None:
        """``(provenance or None, value)`` of a verified entry, else None."""
        if not self.enabled:
            return None
        try:
            data = self._path(key).read_bytes()
            body, digest = data[:-_DIGEST_BYTES], data[-_DIGEST_BYTES:]
            if len(data) <= _DIGEST_BYTES or hashlib.sha256(body).digest() != digest:
                return None
            header, _, pickled = body.partition(b"\n")
            provenance = json.loads(header) if parse_header else None
            return provenance, pickle.loads(pickled)
        except (OSError, ValueError, pickle.UnpicklingError, EOFError, AttributeError):
            return None

    def store(
        self, namespace: str, params: Any, value: Any, wall_s: float = 0.0
    ) -> str:
        """Store a computed value with its provenance; returns its key.

        The write path of :meth:`cached`, usable when the computation
        happened elsewhere (the experiment runner computes whole
        batches, then stores each cell).  The entry is written to a
        temp file and renamed into place, so readers see the previous
        entry or the whole new one.  The key is returned even when the
        cache is disabled, so callers can link records to where the
        entry *would* live.

        Best-effort: an unwritable directory or unpicklable value makes
        this a no-op -- the cache must never break the computation.
        """
        fp = code_fingerprint()
        key = cache_key(namespace, params, fp)
        if not self.enabled:
            return key
        tmp = None
        try:
            provenance = build_manifest(
                namespace, params=params, workers=0, route="cached",
                wall_s=wall_s, fingerprint=fp,
            )
            body = (
                json.dumps(
                    provenance.to_dict(), sort_keys=True,
                    separators=(",", ":"), default=repr,
                ).encode()
                + b"\n"
                + pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            )
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(body + hashlib.sha256(body).digest())
            os.replace(tmp, self._path(key))
        except (OSError, ValueError, pickle.PickleError, AttributeError, TypeError):
            if tmp is not None:
                with suppress(OSError):
                    os.unlink(tmp)
        return key

    def cached(self, namespace: str, params: Any, compute: Callable[[], Any]) -> Any:
        """Return the cached result of ``compute()`` for these parameters.

        The key covers the code fingerprint, so a source change
        recomputes; every fresh computation is stored with its
        provenance line.
        """
        key = cache_key(namespace, params, code_fingerprint())
        sentinel = object()
        value = self.get(key, sentinel)
        if value is sentinel:
            t0 = time.perf_counter()
            value = compute()
            self.store(namespace, params, value, wall_s=time.perf_counter() - t0)
        return value

    # -- hygiene -----------------------------------------------------------

    def _namespaces(self):
        """``(path, size, namespace)`` of every entry, by its first line.

        Entries whose first line is not a provenance record (written by
        an older version, or damaged) report ``"(unknown)"``.
        """
        for path in self.root.glob("*.pkl"):
            try:
                with path.open("rb") as fh:
                    size = os.fstat(fh.fileno()).st_size
                    header = fh.readline()
            except OSError:
                continue
            try:
                namespace = str(json.loads(header)["name"])
            except (ValueError, KeyError, TypeError):
                namespace = "(unknown)"
            yield path, size, namespace

    def stats(self) -> "CacheStats":
        """Entry count, bytes, and a per-namespace breakdown."""
        namespaces: dict[str, NamespaceStats] = {}
        for _, size, namespace in self._namespaces():
            current = namespaces.get(namespace, NamespaceStats(0, 0))
            namespaces[namespace] = NamespaceStats(
                current.entries + 1, current.bytes + size
            )
        return CacheStats(
            root=self.root,
            entries=sum(ns.entries for ns in namespaces.values()),
            bytes=sum(ns.bytes for ns in namespaces.values()),
            namespaces=dict(sorted(namespaces.items())),
        )

    def clear(self, namespace: str | None = None) -> int:
        """Delete entries; returns entries removed.

        ``namespace=None`` clears everything, including stray temp
        files and the ``.fp`` / ``.manifest.json`` sidecars that older
        versions wrote beside each entry.  With a namespace, only
        entries whose provenance line names it go; entries without one
        are only removed by a full clear.
        """
        if namespace is None:
            for pattern in ("*.fp", "*.manifest.json", "*.tmp"):
                for path in self.root.glob(pattern):
                    with suppress(OSError):
                        path.unlink()
            doomed = list(self.root.glob("*.pkl"))
        else:
            doomed = [p for p, _, ns in self._namespaces() if ns == namespace]
        n = 0
        for path in doomed:
            with suppress(OSError):
                path.unlink()
                n += 1
        return n


@dataclass(frozen=True)
class NamespaceStats:
    """Entry count and bytes of one namespace."""

    entries: int
    bytes: int


@dataclass(frozen=True)
class CacheStats:
    """One :meth:`ResultCache.stats` snapshot."""

    root: Path
    entries: int
    bytes: int
    namespaces: dict[str, NamespaceStats]
