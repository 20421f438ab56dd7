"""Zero-copy publication of precomputed selection kernels (DESIGN.md §12).

Pool workers used to rebuild every policy from its spec: the testbed
comes almost for free (fork inherits the memoized builder), but a CSS
selector then re-samples two full pattern matrices on the search grid
— ~20 ms of bilinear interpolation *per worker per policy*, plus a
private copy of arrays the parent already holds.

This module moves those arrays into one POSIX shared-memory segment
per (testbed, policy) configuration, published **once** by the
supervising process and attached **by name** by every worker:

* :class:`KernelPublisher` (parent side) lays the arrays out in a
  single :class:`multiprocessing.shared_memory.SharedMemory` segment
  (64-byte-aligned offsets) and hands out a picklable
  :class:`SharedKernelManifest` describing the layout.  Segments are
  memoized per publication key, so repeated runs over the same spec —
  the service's warm-pool case — publish nothing new.
* :func:`attach` (worker side) maps the segment and returns read-only
  ``np.ndarray`` views over the shared buffer.  The views are byte
  copies of exactly what the worker's own construction would compute
  (construction is deterministic in the spec), so shared-kernel
  workers remain bit-for-bit identical to rebuild-from-spec workers.

Lifecycle: the parent owns every segment and unlinks them all in
:meth:`KernelPublisher.close` (the runner's ``close()``); workers only
ever ``close()`` their mapping, never unlink.  Under the fork start
method parent and workers share one :mod:`multiprocessing.resource_tracker`
process, so a worker's attach-time registration is a no-op set-add on
the name the parent already registered at create — worker exits (even
``os._exit`` crashes) never touch the segment, and the single
registration means the tracker reaps the segment if the supervising
process dies without ``close()`` (SIGKILL), so nothing leaks in
``/dev/shm`` even on the crash paths.
"""

from __future__ import annotations

import logging
import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "SharedKernelManifest",
    "KernelPublisher",
    "attach",
    "leaked_segments",
    "sweep_leaked_segments",
]

_LOGGER = logging.getLogger(__name__)

#: Offset alignment for each array in a segment; keeps every view on a
#: cache-line boundary regardless of the preceding array's size.
_ALIGN = 64

#: Prefix of every segment this module creates (greppable in /dev/shm).
_SEGMENT_PREFIX = "repro-kernels-"

#: Publisher-side cap on live segments.  Long-lived runners (the
#: service) publish one kernel segment per (testbed, policy)
#: configuration; beyond the cap the oldest segment is unlinked FIFO.
#: Eviction happens only inside ``publish`` — never while a round is in
#: flight — so a manifest handed to the current dispatch always
#: outlives it.
_MAX_SEGMENTS = 128

#: Worker-side cap on cached attachments, bounding mapped pages when a
#: long-lived pool serves many distinct specs.
_MAX_ATTACHED = 128


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class SharedKernelManifest:
    """Picklable description of one published segment's layout.

    ``entries`` maps array name → ``(offset, shape, dtype-str)``; the
    manifest travels to workers inside task submissions (a few hundred
    bytes) instead of the arrays themselves (hundreds of kilobytes,
    per block, per attempt).
    """

    segment: str
    entries: Mapping[str, Tuple[int, Tuple[int, ...], str]]


def _revive_resource_tracker() -> None:
    """Respawn multiprocessing's resource tracker after it died.

    Creating a segment registers it with the tracker over a pipe; if
    the tracker process was killed (OOM killer, an over-eager
    supervisor, a chaos campaign), every subsequent registration gets
    EPIPE and would fail the run even though shared memory itself is
    fine.  Forgetting the dead pipe makes ``ensure_running`` launch a
    fresh tracker.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        if tracker._fd is not None:
            try:
                os.close(tracker._fd)
            except OSError:  # pragma: no cover - already closed
                pass
            tracker._fd = None
    tracker.ensure_running()


class KernelPublisher:
    """Parent-side registry of published shared-memory segments."""

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._manifests: Dict[str, SharedKernelManifest] = {}

    def __len__(self) -> int:
        return len(self._segments)

    def manifest(self, key: str) -> Optional[SharedKernelManifest]:
        """The manifest published under ``key``, if any."""
        return self._manifests.get(key)

    def publish(
        self, key: str, arrays: Mapping[str, np.ndarray]
    ) -> SharedKernelManifest:
        """Copy ``arrays`` into one shared segment, memoized on ``key``.

        Returns the existing manifest when ``key`` was already
        published — repeated executes over the same (testbed, policy)
        pair, or repeated service submissions, cost a dict hit.
        """
        existing = self._manifests.get(key)
        if existing is not None:
            return existing
        entries: Dict[str, Tuple[int, Tuple[int, ...], str]] = {}
        offset = 0
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            offset = _aligned(offset)
            entries[name] = (offset, tuple(array.shape), array.dtype.str)
            offset += array.nbytes
        try:
            segment = shared_memory.SharedMemory(
                create=True,
                size=max(offset, 1),
                name=f"{_SEGMENT_PREFIX}{secrets.token_hex(8)}",
            )
        except BrokenPipeError:
            _revive_resource_tracker()
            segment = shared_memory.SharedMemory(
                create=True,
                size=max(offset, 1),
                name=f"{_SEGMENT_PREFIX}{secrets.token_hex(8)}",
            )
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            start, shape, dtype = entries[name]
            view = np.ndarray(shape, dtype=dtype, buffer=segment.buf, offset=start)
            view[...] = array
        manifest = SharedKernelManifest(segment=segment.name, entries=dict(entries))
        self._segments[key] = segment
        self._manifests[key] = manifest
        while len(self._segments) > _MAX_SEGMENTS:
            oldest = next(iter(self._segments))
            evicted = self._segments.pop(oldest)
            self._manifests.pop(oldest, None)
            try:
                evicted.close()
                evicted.unlink()
            except FileNotFoundError:  # pragma: no cover - already reaped
                pass
        _LOGGER.debug(
            "published %d shared kernel array(s) (%d bytes) as %s",
            len(entries),
            segment.size,
            segment.name,
        )
        return manifest

    def close(self) -> None:
        """Unmap and unlink every published segment (idempotent)."""
        segments, self._segments = self._segments, {}
        self._manifests = {}
        for segment in segments.values():
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already reaped
                pass


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------

#: Per-process cache of attached segments: segment name → (mapping,
#: views).  Keeping the SharedMemory object referenced keeps the buffer
#: mapped for the lifetime of the views.
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, Dict[str, np.ndarray]]] = {}


def attach(
    manifest: SharedKernelManifest,
    on_evict: Optional[Callable[[], None]] = None,
) -> Dict[str, np.ndarray]:
    """Map a published segment and return read-only array views.

    Safe to call repeatedly — each process maps a segment once and
    reuses the views.  Raises ``FileNotFoundError`` when the segment
    no longer exists (the publisher closed); callers degrade to
    rebuilding from the spec.

    Past ``_MAX_ATTACHED`` mappings the oldest one is unmapped.  numpy
    views do not keep a mapping alive, so ``on_evict()`` runs first:
    the caller must drop every object that may still hold views of an
    older segment.
    """
    cached = _ATTACHED.get(manifest.segment)
    if cached is not None:
        return cached[1]
    segment = shared_memory.SharedMemory(name=manifest.segment, create=False)
    views: Dict[str, np.ndarray] = {}
    for name, (offset, shape, dtype) in manifest.entries.items():
        view = np.ndarray(shape, dtype=dtype, buffer=segment.buf, offset=offset)
        view.flags.writeable = False
        views[name] = view
    _ATTACHED[manifest.segment] = (segment, views)
    while len(_ATTACHED) > _MAX_ATTACHED:
        oldest = next(iter(_ATTACHED))
        evicted, _views = _ATTACHED.pop(oldest)
        if on_evict is not None:
            on_evict()
        try:
            evicted.close()
        except BufferError:  # pragma: no cover - live views still held
            pass
    return views


def leaked_segments() -> List[str]:
    """Names of ``repro-kernels-*`` segments present in ``/dev/shm``.

    Segment names are fresh random tokens per publication, so anything
    on disk when no supervising process is alive is a leak — the
    resource tracker normally reaps them even through SIGKILL, but a
    tracker killed alongside its supervisor (the chaos harness's
    kill-the-process-group case) leaves the files behind.  Returns an
    empty list on platforms without a ``/dev/shm``.
    """
    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-Linux
        return []
    return sorted(path.name for path in root.glob(f"{_SEGMENT_PREFIX}*"))


def sweep_leaked_segments() -> List[str]:
    """Unlink every leaked ``repro-kernels-*`` segment; return the names.

    Startup-time GC for the service: call this only when no other
    publisher can be alive on the host (one service instance per
    state dir).  A live segment swept by mistake degrades to workers
    rebuilding kernels from the spec — bit-identical, just slower —
    so the failure mode of an over-eager sweep is wasted work, never
    wrong results.
    """
    reclaimed: List[str] = []
    for name in leaked_segments():
        try:
            os.unlink(Path("/dev/shm") / name)
        except FileNotFoundError:  # pragma: no cover - raced with reaper
            continue
        reclaimed.append(name)
    if reclaimed:
        _LOGGER.warning(
            "swept %d leaked shared-memory segment(s): %s",
            len(reclaimed),
            ", ".join(reclaimed),
        )
    return reclaimed


def detach_all() -> None:
    """Unmap every cached attachment (worker cache-reset path).

    numpy views do not keep a mapping alive, so callers drop every
    object holding views first; a later :func:`attach` re-maps from
    scratch.
    """
    attached = dict(_ATTACHED)
    _ATTACHED.clear()
    for segment, _views in attached.values():
        try:
            segment.close()
        except BufferError:  # pragma: no cover - live views still held
            pass
