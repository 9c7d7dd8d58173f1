"""Zero-copy numpy array sharing over :mod:`multiprocessing.shared_memory`.

The process backend must hand every worker the dataset and the flattened
kd-tree (:class:`repro.index.kdtree.KDTreeArrays`) without pickling megabytes
of arrays into each task.  :class:`SharedArrayBundle` packs a named mapping of
numpy arrays into **one** shared-memory segment:

* the owner (the fitting process) calls :meth:`SharedArrayBundle.create`,
  which copies each array into the segment exactly once and records a
  picklable :class:`BundleSpec` (segment name + per-array offset/shape/dtype);
* each worker calls :meth:`SharedArrayBundle.attach` with the spec -- a few
  hundred bytes over the pipe -- and receives zero-copy numpy views backed by
  the same physical pages, whatever the multiprocessing start method;
* the owner calls :meth:`SharedArrayBundle.close` and
  :meth:`SharedArrayBundle.unlink` when the fit finishes.

Views are read-only except for *output* arrays: space the owner reserves
(zero-filled, nothing copied in) for workers to fill at disjoint positions
and the owner to copy out before the segment goes away.

Lifecycle contract (see ``docs/parallel.md``): exactly one ``create`` /
``unlink`` pair per fit on the owner side, at most one ``attach`` per worker
(workers cache bundles by segment name), and ``close`` in every process that
holds a handle.  Views into an attached bundle must not outlive the bundle.
"""

from __future__ import annotations

import contextlib
import secrets
import sys
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Mapping

import numpy as np

__all__ = ["ArraySpec", "BundleSpec", "SharedArrayBundle"]


@contextlib.contextmanager
def _untracked_attach():
    """Suppress resource-tracker registration while attaching a segment.

    CPython < 3.13 registers *attached* segments with the resource tracker as
    if the attaching process owned them.  Undoing that with an unregister
    after the fact (the previous approach) races when several workers attach
    the same segment concurrently: the tracker's cache is a set, so the
    interleaving REGISTER/UNREGISTER pairs collapse and the tracker process
    logs spurious ``KeyError`` tracebacks.  Suppressing the registration
    *message itself* (workers execute tasks on a single thread, so the patch
    window is race-free in-process) means workers never talk to the tracker
    at all: the owner's create-time registration stays intact until its own
    ``unlink``.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(name, rtype):  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = register
    try:
        yield
    finally:
        resource_tracker.register = original

#: Byte alignment of every array inside the segment; 64 matches the cache
#: line (and any SIMD alignment numpy kernels could want).
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class ArraySpec:
    """Placement of one array inside the segment (picklable)."""

    key: str
    offset: int
    shape: tuple[int, ...]
    dtype: str
    writable: bool = False


@dataclass(frozen=True)
class BundleSpec:
    """Everything a worker needs to attach a bundle (picklable, tiny)."""

    segment_name: str
    total_bytes: int
    entries: tuple[ArraySpec, ...]


class SharedArrayBundle:
    """A named mapping of numpy arrays backed by one shared-memory segment.

    The class keeps process-wide accounting of the bytes held by *owned*
    (created, not yet unlinked) segments: :meth:`live_bytes` is the current
    total, :meth:`peak_bytes` the high-water mark since the last
    :meth:`reset_peak_bytes`.  The shard pipeline's memory-budget tests read
    these to prove the scheduler never admits more concurrent segments than
    ``memory_budget_bytes`` allows (attached segments map the same physical
    pages and are not double-counted).
    """

    _accounting_lock = threading.Lock()
    _live_bytes = 0
    _peak_bytes = 0

    def __init__(self, shm: shared_memory.SharedMemory, spec: BundleSpec, owner: bool):
        self._shm = shm
        self._spec = spec
        self._owner = owner
        self._accounted = owner
        self._closed = False
        self._arrays: dict[str, np.ndarray] = {}
        for entry in spec.entries:
            view = np.ndarray(
                entry.shape,
                dtype=np.dtype(entry.dtype),
                buffer=shm.buf,
                offset=entry.offset,
            )
            view.flags.writeable = entry.writable
            self._arrays[entry.key] = view

    # ----------------------------------------------------------- construction

    @classmethod
    def create(
        cls,
        arrays: Mapping[str, np.ndarray],
        outputs: Mapping[str, np.ndarray] | None = None,
    ) -> "SharedArrayBundle":
        """Copy ``arrays`` into a fresh segment (once) and return the owner handle.

        ``outputs`` only lend their shape and dtype: each gets a zero-filled,
        writable slot in the segment and nothing is copied in.
        """
        outputs = outputs or {}
        if not arrays and not outputs:
            raise ValueError("cannot create an empty bundle")
        entries: list[ArraySpec] = []
        offset = 0
        materialised: dict[str, np.ndarray] = {}
        for key, array in [*arrays.items(), *outputs.items()]:
            writable = key in outputs
            if not writable:
                array = np.ascontiguousarray(array)
                materialised[key] = array
            offset = _aligned(offset)
            entries.append(
                ArraySpec(
                    key=key,
                    offset=offset,
                    shape=tuple(array.shape),
                    dtype=array.dtype.str,
                    writable=writable,
                )
            )
            offset += array.nbytes
        total = max(offset, 1)  # zero-byte segments are not allowed
        name = f"repro_{secrets.token_hex(8)}"
        shm = shared_memory.SharedMemory(create=True, size=total, name=name)
        spec = BundleSpec(
            segment_name=shm.name, total_bytes=total, entries=tuple(entries)
        )
        for entry in entries:
            source = materialised.get(entry.key)
            if source is None or source.nbytes == 0:
                continue
            dest = np.ndarray(
                entry.shape,
                dtype=np.dtype(entry.dtype),
                buffer=shm.buf,
                offset=entry.offset,
            )
            dest[...] = source
        with cls._accounting_lock:
            cls._live_bytes += total
            cls._peak_bytes = max(cls._peak_bytes, cls._live_bytes)
        return cls(shm, spec, owner=True)

    @classmethod
    def attach(cls, spec: BundleSpec) -> "SharedArrayBundle":
        """Attach to an existing segment and return zero-copy views.

        Only the creating process is responsible for the segment's lifetime,
        so the attach never registers with the resource tracker: natively on
        CPython >= 3.13 (``track=False``), via :func:`_untracked_attach` on
        older interpreters.
        """
        if sys.version_info >= (3, 13):  # pragma: no cover - version dependent
            shm = shared_memory.SharedMemory(
                name=spec.segment_name, create=False, track=False
            )
        else:
            with _untracked_attach():
                shm = shared_memory.SharedMemory(
                    name=spec.segment_name, create=False
                )
        return cls(shm, spec, owner=False)

    # ---------------------------------------------------------------- access

    @property
    def spec(self) -> BundleSpec:
        """The picklable description of the segment layout."""
        return self._spec

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        """Zero-copy views, one per packed array (read-only but the outputs)."""
        return self._arrays

    @property
    def nbytes(self) -> int:
        """Size of the backing segment; the cost is paid once, not per worker."""
        return int(self._spec.total_bytes)

    # ------------------------------------------------------------- accounting

    @classmethod
    def live_bytes(cls) -> int:
        """Total bytes of owned segments created but not yet unlinked."""
        with cls._accounting_lock:
            return cls._live_bytes

    @classmethod
    def peak_bytes(cls) -> int:
        """High-water mark of :meth:`live_bytes` since the last reset."""
        with cls._accounting_lock:
            return cls._peak_bytes

    @classmethod
    def reset_peak_bytes(cls) -> None:
        """Reset the high-water mark to the current live total (test hook)."""
        with cls._accounting_lock:
            cls._peak_bytes = cls._live_bytes

    # --------------------------------------------------------------- teardown

    def close(self) -> None:
        """Drop this process's mapping of the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._arrays = {}
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (owner side, after :meth:`close`; idempotent).

        Workers never register with the tracker (see :meth:`attach`), so the
        owner's create-time registration is still in place here and the
        unregister inside ``SharedMemory.unlink`` finds it.
        """
        if not self._owner:
            return
        if self._accounted:
            self._accounted = False
            with type(self)._accounting_lock:
                type(self)._live_bytes -= self._spec.total_bytes
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass
