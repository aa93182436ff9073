"""Shared-memory transport for groups of numpy arrays.

A parallel ``simulate_batch`` splits its seeds into one contiguous row
shard per process worker.  The coordinator gathers the whole batch's
slot columns once (``t_idle`` / ``t_active`` / ``i_active``, flat and
row-major, plus the per-row ``offsets``) and ships them as a single
group named ``"slots"`` in one ``multiprocessing.shared_memory``
segment.  Workers receive only a small :class:`GroupHandle` (segment
name + per-array offset/dtype/shape table), attach zero-copy, read-only
views, and slice out their shard's rows
(:func:`~repro.sim.vectorized._batch_shard_worker`).  The transport
itself is group-agnostic: :meth:`SharedArrayStore.create` packs any
number of named groups into the one segment.

Degradation is transparent: platforms or sandboxes without shared
memory (import failure, ``/dev/shm`` permission errors) fall back to
carrying the arrays inline in the handle, which pickles exactly like
the pre-shm protocol.  Values are bit-identical either way -- the
segment holds the arrays' raw bytes.

Lifecycle: the creating process owns the segment and must call
:meth:`SharedArrayStore.dispose` (close + unlink) when the batch is
done -- ``simulate_batch`` does so in a ``try/finally`` -- so no stale
``/dev/shm/repro-plans-*`` entries outlive a run.  Workers cache one
attachment per segment and close it at interpreter exit.
"""

from __future__ import annotations

import atexit
import secrets
from dataclasses import dataclass

import numpy as np

try:  # pragma: no cover - import always succeeds on CPython >= 3.8
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic platforms
    _shared_memory = None

#: Name prefix of every segment this module creates; the leak-check
#: tests glob ``/dev/shm`` for it.
SHM_PREFIX = "repro-plans-"

#: Byte alignment of each array within the segment (numpy is happiest
#: with 16-byte-aligned float buffers).
_ALIGN = 16


@dataclass(frozen=True)
class ArraySpec:
    """Location of one array inside a shared segment."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class GroupHandle:
    """Pickles small: how a worker finds one named group of arrays.

    Either ``segment``+``specs`` (shared-memory transport) or
    ``inline`` (pickling fallback) is set, never both.
    """

    segment: str | None
    specs: tuple[ArraySpec, ...] | None
    inline: dict[str, np.ndarray] | None


#: Per-process cache of attached segments: one map per segment name.
_ATTACHED: dict[str, "_shared_memory.SharedMemory"] = {}


def _close_attachments() -> None:  # pragma: no cover - exit hook
    for shm in _ATTACHED.values():
        try:
            shm.close()
        except (OSError, BufferError):
            pass
    _ATTACHED.clear()


atexit.register(_close_attachments)


def _attach_segment(name: str) -> "_shared_memory.SharedMemory":
    # Note on the resource tracker: attaching registers the name again
    # (Python < 3.13 has no ``track=False``), which is harmless here --
    # ``ParallelMap`` forks its workers, so they share the coordinator's
    # tracker daemon and the re-registration is an idempotent set-add
    # balanced by the single unregister ``dispose``'s unlink sends.
    # (The textbook post-attach ``resource_tracker.unregister`` would be
    # actively wrong under fork: it strips the coordinator's own
    # registration and the final unlink then KeyErrors in the tracker.)
    shm = _ATTACHED.get(name)
    if shm is None:
        shm = _shared_memory.SharedMemory(name=name)
        _ATTACHED[name] = shm
    return shm


def attach_group(handle: GroupHandle) -> dict[str, np.ndarray]:
    """The named arrays a handle points at, as read-only ndarrays.

    Shared-memory handles resolve to zero-copy views of the segment
    (attached once per process and cached); inline handles return their
    arrays directly.  Either way the bytes are exactly what the
    coordinator packed.
    """
    if handle.inline is not None:
        return dict(handle.inline)
    shm = _attach_segment(handle.segment)
    arrays: dict[str, np.ndarray] = {}
    for spec in handle.specs:
        view = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=shm.buf,
            offset=spec.offset,
        )
        view.flags.writeable = False
        arrays[spec.name] = view
    return arrays


class SharedArrayStore:
    """One shared segment holding many named groups of arrays.

    Build with :meth:`create`, hand :attr:`handles` to workers, and
    :meth:`dispose` in a ``finally`` when every consumer is done
    submitting work (attached workers keep their mappings alive until
    they close; ``unlink`` only removes the name).
    """

    def __init__(
        self,
        shm: "_shared_memory.SharedMemory | None",
        handles: dict,
    ) -> None:
        self._shm = shm
        self.handles = handles

    @classmethod
    def create(cls, groups: dict) -> "SharedArrayStore":
        """Pack ``{key: {array_name: ndarray}}`` into one shared segment.

        Arrays are copied byte for byte (C-contiguous) at aligned
        offsets.  On any shared-memory failure -- missing module, no
        ``/dev/shm``, permissions -- every group falls back to an
        inline handle and no segment is created.
        """
        if not groups or _shared_memory is None:
            return cls(None, {k: _inline_handle(g) for k, g in groups.items()})
        layout: dict = {}
        cursor = 0
        for key, arrays in groups.items():
            specs = []
            for name, arr in arrays.items():
                arr = np.ascontiguousarray(arr)
                cursor = -(-cursor // _ALIGN) * _ALIGN
                specs.append((name, arr, cursor))
                cursor += arr.nbytes
            layout[key] = specs
        try:
            shm = _shared_memory.SharedMemory(
                create=True,
                size=max(cursor, 1),
                name=f"{SHM_PREFIX}{secrets.token_hex(8)}",
            )
        except (OSError, ValueError):
            return cls(None, {k: _inline_handle(g) for k, g in groups.items()})
        handles = {}
        for key, specs in layout.items():
            spec_rows = []
            for name, arr, offset in specs:
                dest = np.ndarray(
                    arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=offset
                )
                dest[...] = arr
                spec_rows.append(
                    ArraySpec(name, arr.dtype.str, arr.shape, offset)
                )
            handles[key] = GroupHandle(shm.name, tuple(spec_rows), None)
        return cls(shm, handles)

    def dispose(self) -> None:
        """Close and unlink the segment (idempotent; no-op for inline)."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        # A serial-fallback map attaches in this same process; drop that
        # cached mapping too so long sessions don't pin dead segments.
        cached = _ATTACHED.pop(shm.name, None)
        if cached is not None:
            try:
                cached.close()
            except BufferError:  # pragma: no cover - live views remain
                _ATTACHED[shm.name] = cached
        try:
            shm.close()
        finally:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def _inline_handle(arrays: dict[str, np.ndarray]) -> GroupHandle:
    return GroupHandle(None, None, dict(arrays))
