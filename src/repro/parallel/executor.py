"""Real parallel execution of independent tasks over pluggable backends.

The algorithms in :mod:`repro.core` express every parallel phase as a list of
independent callables (or a function mapped over a list of task descriptors).
:class:`ParallelExecutor` runs them on one of three backends
(:data:`repro.parallel.backends.BACKENDS`):

* ``"serial"`` -- everything in the calling thread;
* ``"thread"`` -- a ``ThreadPoolExecutor`` (the numpy kernels of the batch
  engine release the GIL, Python-level code does not);
* ``"process"`` -- a ``ProcessPoolExecutor`` fed with picklable index-chunk
  task descriptors (:class:`repro.parallel.backends.ChunkTask`) that read the
  dataset and the flattened kd-tree through shared memory
  (:mod:`repro.parallel.shm`).  This is the backend that delivers *measured*
  multicore speedups, matching the paper's multicore target.

The executor keeps deterministic result ordering, eager error propagation,
and no hidden state beyond the lazily created worker pools (release them with
:meth:`ParallelExecutor.close`).  Phases with a chunk kernel pass a
:class:`repro.parallel.backends.ChunkTask` to
:meth:`ParallelExecutor.map_index_chunks`: worker processes run it against
shared memory under the process backend, and the calling thread or a thread
pool runs the same kernel against an in-process context otherwise.
Closure-based entry points (``map``, ``map_chunks``, ``map_index_chunks``
with a function) cannot cross a process boundary, so under the process
backend they run on threads.  Results are identical either way
(property-tested).

Chunked batch execution
-----------------------
The vectorised code paths of the batch and dual engines do not map one task
per point -- per-task Python overhead would swamp the numpy kernels.  Instead
the caller splits the index range (points, cells or frontier units) into a
few contiguous chunks per worker (:func:`split_indices` /
:meth:`ParallelExecutor.map_index_chunks`) and each worker answers its whole
chunk with one vectorised kd-tree call.  With one worker the entire range
becomes a single chunk, which maximises the vectorised work per Python call;
with ``t`` workers a small multiple of ``t`` chunks keeps the pool busy while
chunk costs are skewed.  See ``docs/parallel.md`` and ``docs/performance.md``
for the design and measurements.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from repro.parallel.backends import (
    START_METHOD_ENV,
    ChunkTask,
    execute_chunk,
    resolve_backend,
)
from repro.utils.validation import check_positive_int

__all__ = ["ParallelExecutor", "resolve_n_jobs", "split_indices"]

T = TypeVar("T")
R = TypeVar("R")


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalise an ``n_jobs`` parameter.

    ``None`` or ``1`` mean serial execution; ``-1`` means "use every CPU this
    process may run on" -- the scheduling affinity mask where the platform
    exposes it (so container / CI core limits are honored), the raw CPU count
    otherwise; any other positive integer is returned unchanged.
    """
    if n_jobs is None:
        return 1
    if n_jobs == -1:
        if hasattr(os, "sched_getaffinity"):
            try:
                return max(1, len(os.sched_getaffinity(0)))
            except OSError:  # affinity query refused (restricted container)
                pass
        return max(1, os.cpu_count() or 1)
    return check_positive_int(n_jobs, "n_jobs")


def split_indices(n_items: int, n_chunks: int) -> list[np.ndarray]:
    """Split ``range(n_items)`` into at most ``n_chunks`` contiguous index arrays.

    Empty chunks are dropped, so the result holds ``min(n_items, n_chunks)``
    arrays (or none when ``n_items == 0``).  Concatenating the chunks yields
    ``arange(n_items)``, which lets callers reassemble per-chunk batch results
    in index order.
    """
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    n_chunks = check_positive_int(n_chunks, "n_chunks")
    if n_items == 0:
        return []
    return [
        chunk.astype(np.intp)
        for chunk in np.array_split(np.arange(n_items), min(n_chunks, n_items))
    ]


class ParallelExecutor:
    """Map a function over tasks on a serial, thread, or process backend.

    Parameters
    ----------
    n_jobs:
        Number of workers.  ``1`` (default) runs everything in the calling
        thread for the serial/thread backends; the process backend keeps a
        one-worker pool so its overhead is measured honestly.  ``-1`` uses
        every CPU the process's affinity mask allows.
    backend:
        ``"serial"``, ``"thread"`` or ``"process"``; ``None`` reads the
        ``REPRO_DEFAULT_BACKEND`` environment variable (default ``"thread"``).
    """

    def __init__(self, n_jobs: int | None = 1, backend: str | None = None):
        self._n_jobs = resolve_n_jobs(n_jobs)
        self._backend = resolve_backend(backend)
        self._pool: ProcessPoolExecutor | None = None
        self._thread_pool: ThreadPoolExecutor | None = None

    @property
    def n_jobs(self) -> int:
        """The resolved number of workers."""
        return self._n_jobs

    @property
    def backend(self) -> str:
        """The resolved execution backend."""
        return self._backend

    # ------------------------------------------------------------ closure API

    def _use_threads(self, n_tasks: int) -> bool:
        return self._backend != "serial" and self._n_jobs > 1 and n_tasks > 1

    def map(self, func: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        """Apply ``func`` to every task and return results in task order.

        Closures cannot cross a process boundary, so the process backend runs
        this on threads (results are identical; see module docstring).
        """
        if not self._use_threads(len(tasks)):
            return [func(task) for task in tasks]
        with ThreadPoolExecutor(max_workers=self._n_jobs) as pool:
            return list(pool.map(func, tasks))

    def map_chunks(
        self, func: Callable[[Sequence[T]], R], chunks: Iterable[Sequence[T]]
    ) -> list[R]:
        """Apply ``func`` to every chunk of tasks (one call per chunk).

        Useful when per-task overhead matters: the caller partitions tasks
        (for instance with :func:`repro.parallel.partition.greedy_partition`)
        and each worker processes a whole chunk in one call.
        """
        chunk_list = [chunk for chunk in chunks if len(chunk) > 0]
        if not self._use_threads(len(chunk_list)):
            return [func(chunk) for chunk in chunk_list]
        with ThreadPoolExecutor(max_workers=self._n_jobs) as pool:
            return list(pool.map(func, chunk_list))

    # -------------------------------------------------------- chunk-task API

    def _n_chunks(self, chunks_per_worker: int) -> int:
        if self._n_jobs == 1:
            return 1
        return self._n_jobs * check_positive_int(chunks_per_worker, "chunks_per_worker")

    def map_index_chunks(
        self,
        work: Callable[[np.ndarray], R] | ChunkTask,
        n_items: int,
        chunks_per_worker: int = 4,
    ) -> list[R]:
        """Apply ``work`` to contiguous index chunks covering ``range(n_items)``.

        With one worker the whole range is a single chunk (one vectorised
        call); with ``t`` workers the range is split into
        ``t * chunks_per_worker`` chunks so the pool stays busy even when
        chunk costs are skewed.  Results are returned in index (chunk)
        order; concatenating them restores per-item ordering.

        ``work`` is either a closure ``func(chunk)``, which runs in this
        process (threads under the process backend), or a
        :class:`~repro.parallel.backends.ChunkTask`, whose kernel runs in
        worker processes against the task's shared segment under the
        process backend and in this process against the task's context on
        the serial and thread backends.
        """
        chunks = split_indices(n_items, self._n_chunks(chunks_per_worker))
        if isinstance(work, ChunkTask):
            if self._backend == "process":
                return self._map_process_chunks(work, chunks)
            work = work.run_local
        return self.map_chunks(work, chunks)

    def _map_process_chunks(self, task: ChunkTask, chunks: list[np.ndarray]) -> list:
        if not chunks:
            return []
        pool = self._ensure_pool()
        futures = [
            pool.submit(
                execute_chunk, task.spec, task.kernel, task.payload_for(chunk), chunk
            )
            for chunk in chunks
        ]
        results = []
        for future in futures:
            value, distance_calcs = future.result()
            if task.counter is not None and distance_calcs:
                task.counter.add("distance_calcs", distance_calcs)
            results.append(value)
        return results

    # ------------------------------------------------------------- submit API

    def submit(self, func: Callable[..., R], *args, **kwargs) -> "Future[R]":
        """Schedule ``func(*args, **kwargs)`` and return its future.

        Runs on a lazily created persistent *thread* pool regardless of the
        backend: the shard pipeline uses this to overlap whole stages (each
        stage does its own chunk-level fan-out through ``map``/
        ``map_index_chunks``, including process tasks), and stage closures
        cannot cross a process boundary anyway.  The pool is torn down by
        :meth:`close`.
        """
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(max_workers=max(1, self._n_jobs))
        return self._thread_pool.submit(func, *args, **kwargs)

    # -------------------------------------------------------------- lifecycle

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing

            method = os.environ.get(START_METHOD_ENV)
            if method is None:
                methods = multiprocessing.get_all_start_methods()
                method = "fork" if "fork" in methods else None
            context = multiprocessing.get_context(method)
            self._pool = ProcessPoolExecutor(
                max_workers=self._n_jobs, mp_context=context
            )
        return self._pool

    def close(self) -> None:
        """Shut down the worker pools (idempotent)."""
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
