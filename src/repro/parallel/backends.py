"""Execution backends, chunk-task kernels and the process-backend worker runtime.

The parallel phases of every DPC algorithm run on one of three backends:

``"serial"``
    Everything in the calling thread.  Zero overhead; the right choice for
    small inputs and for debugging.
``"thread"``
    A ``ThreadPoolExecutor``.  Python-level code stays GIL-bound, but the
    numpy kernels of the batch engine release the GIL, so large vectorised
    chunks overlap.
``"process"``
    A ``ProcessPoolExecutor``.  Each chunk ships the kernel function
    (pickled by reference), a tiny :class:`~repro.parallel.shm.BundleSpec`
    naming the shared-memory segment that holds the dataset and the
    flattened kd-tree, and a small payload.  Workers attach the segment once
    (:func:`worker_context`), rebuild a zero-copy
    :class:`~repro.index.kdtree.KDTree` view over it, and cache both for the
    lifetime of the pool.

A phase with a ``kernel_*`` function below runs only that kernel, on every
backend: its :class:`ChunkTask` carries the shared segment (process) or an
in-process :class:`KernelContext` over the caller's own tree, points and
arrays (serial, thread).  A kernel returns its chunk's result, or, where a
phase fills one large array, writes into output arrays of the context
(:class:`TaskBuilder` ``outputs``).  Kernels count distance calcs into
``ctx.counter``; :func:`execute_chunk` returns a worker's per-chunk delta
for the parent to fold in, so work totals are backend-invariant
(property-tested in ``tests/property/test_backend_equivalence.py``).
Kernels are module level (picklable by qualified name) and lazily import
the core/index helpers they use, keeping the import graph acyclic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.kernels import KERNEL_TIERS
from repro.parallel.shm import BundleSpec, SharedArrayBundle
from repro.utils.counters import WorkCounter

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND_ENV",
    "ChunkTask",
    "KernelContext",
    "TaskBuilder",
    "resolve_backend",
    "pack_tree_arrays",
    "worker_context",
    "execute_chunk",
    "kernel_range_count",
    "kernel_dual_self_count",
    "kernel_dual_nn",
    "kernel_joint_density",
    "kernel_picked_density",
    "kernel_partitioned_dependency",
    "kernel_range_profile",
]

BACKENDS = ("serial", "thread", "process")

#: Environment variable naming the backend used when an estimator is built
#: with ``backend=None``; CI exercises the process path by exporting it.
DEFAULT_BACKEND_ENV = "REPRO_DEFAULT_BACKEND"

#: Environment variable overriding the multiprocessing start method of the
#: process backend ("fork" where available is the cheapest).
START_METHOD_ENV = "REPRO_MP_START_METHOD"

_TREE_PREFIX = "tree."


def resolve_backend(backend: str | None) -> str:
    """Normalise a ``backend`` parameter.

    ``None`` reads :data:`DEFAULT_BACKEND_ENV` (default ``"thread"``); any
    explicit value must be one of :data:`BACKENDS`.
    """
    if backend is None:
        backend = os.environ.get(DEFAULT_BACKEND_ENV) or "thread"
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    return backend


class KernelContext:
    """What a kernel reads: points, kd-tree, extra arrays, counter, phase state.

    In-process tasks carry one over the caller's own objects; worker
    processes build the same shape over a shared segment
    (:func:`worker_context`).  ``phase_state`` entries seeded by the caller
    (structures the driver already built for the phase) are returned as-is,
    so nothing is rebuilt in-process.
    """

    def __init__(
        self,
        points: np.ndarray,
        tree=None,
        arrays: dict[str, np.ndarray] | None = None,
        counter: WorkCounter | None = None,
        phase_state: dict[str, Any] | None = None,
    ):
        self.points = points
        self.tree = tree
        self.arrays = {} if arrays is None else arrays
        self.counter = counter if counter is not None else WorkCounter()
        self._phase_state = dict(phase_state or {})

    def phase_state(self, token: str, builder: Callable[[], Any]) -> Any:
        """Build-once state keyed by a per-phase token."""
        if token not in self._phase_state:
            self._phase_state[token] = builder()
        return self._phase_state[token]


@dataclass
class ChunkTask:
    """One kernel phase as an index-chunk task descriptor.

    ``kernel`` is a module-level function ``kernel(ctx, payload, chunk) ->
    value`` counting its distance calcs into ``ctx.counter``; ``payload``
    (static) or ``payload_fn(chunk)`` (sliced per chunk) carries the small
    per-phase extras.  Process-backend tasks name the shared segment in
    ``spec`` and fold each chunk's worker-side count into ``counter``;
    in-process tasks run against ``context`` instead.
    """

    kernel: Callable[..., Any]
    spec: Optional[BundleSpec] = None
    payload: dict = field(default_factory=dict)
    payload_fn: Optional[Callable[[np.ndarray], dict]] = None
    counter: Optional[WorkCounter] = None
    context: Optional[KernelContext] = None

    def payload_for(self, chunk: np.ndarray) -> dict:
        """The payload of one chunk."""
        if self.payload_fn is not None:
            return self.payload_fn(chunk)
        return self.payload

    def run_local(self, chunk: np.ndarray) -> Any:
        """Run the kernel over one chunk against the in-process context."""
        return self.kernel(self.context, self.payload_for(chunk), chunk)


def pack_tree_arrays(tree) -> dict[str, np.ndarray]:
    """Flatten a :class:`~repro.index.kdtree.KDTree` (plus its points) for a bundle.

    ``points`` is always the float64 source matrix (identical to the tree's
    storage for float64 trees): scan kernels operating on raw coordinates
    must see the same values as in-process runs.  Workers rebuild
    the tree's storage dtype from the shared split values
    (:meth:`KDTree.from_arrays` casts once per worker for float32 trees).
    """
    mapping = {"points": tree.source_points}
    mapping.update(tree.arrays.to_mapping(prefix=_TREE_PREFIX))
    mapping[_TREE_PREFIX + "leaf_size"] = np.asarray([tree.leaf_size], dtype=np.intp)
    # Ship the driver's *effective* kernel tier (as an index into
    # KERNEL_TIERS) so workers run the exact tier the driver resolved --
    # never re-resolving "auto" against a possibly different worker
    # environment.  All tiers are bit-identical, but counters and bench tags
    # must name one tier truthfully.
    mapping[_TREE_PREFIX + "kernel"] = np.asarray(
        [KERNEL_TIERS.index(tree.kernel_name)], dtype=np.intp
    )
    return mapping


class TaskBuilder:
    """Builds the :class:`ChunkTask` of every kernel phase of one run.

    A run (a fit, a shard stage, a standalone join) covers one point set,
    optionally its kd-tree and extra arrays such as the grid lattice.  On
    the process backend the first task publishes them as one shared segment
    reused by later tasks; :meth:`close` unlinks it once the pool is down.
    Otherwise tasks get a :class:`KernelContext` over the same objects,
    whose phase state the ``state`` argument seeds.

    ``outputs`` are caller-allocated arrays the kernels fill in place
    (``ctx.arrays[name]``, disjoint positions per chunk).  In-process
    kernels write the caller's arrays themselves; on the process backend
    they write zero-filled slots of the segment, which
    :meth:`collect_outputs` copies back into the caller's arrays.
    """

    def __init__(
        self,
        backend: str,
        points: np.ndarray,
        tree=None,
        *,
        arrays: dict[str, np.ndarray] | None = None,
        outputs: dict[str, np.ndarray] | None = None,
        counter: WorkCounter | None = None,
    ):
        self._process = resolve_backend(backend) == "process"
        self._points = points
        self._tree = tree
        self._arrays = {} if arrays is None else arrays
        self._outputs = {} if outputs is None else outputs
        self._counter = counter if counter is not None else WorkCounter()
        self._bundle: SharedArrayBundle | None = None

    def __call__(
        self,
        kernel: Callable[..., Any],
        payload: dict | None = None,
        payload_fn: Callable[[np.ndarray], dict] | None = None,
        state: dict[str, Any] | None = None,
    ) -> ChunkTask:
        task = ChunkTask(
            kernel=kernel,
            payload=payload or {},
            payload_fn=payload_fn,
            counter=self._counter,
        )
        if not self._process:
            task.context = KernelContext(
                self._points,
                self._tree,
                {**self._arrays, **self._outputs},
                self._counter,
                state,
            )
            return task
        if self._bundle is None:
            mapping = (
                pack_tree_arrays(self._tree)
                if self._tree is not None
                else {"points": self._points}
            )
            mapping.update(self._arrays)
            if self._outputs:
                self._bundle = SharedArrayBundle.create(mapping, self._outputs)
            else:
                self._bundle = SharedArrayBundle.create(mapping)
        task.spec = self._bundle.spec
        return task

    def collect_outputs(self) -> None:
        """Copy what the kernels wrote into the caller's output arrays.

        A no-op in-process, where the kernels wrote those arrays directly.
        """
        if self._bundle is not None:
            for name, out in self._outputs.items():
                out[...] = self._bundle.arrays[name]

    @property
    def nbytes(self) -> int:
        """Size of the published segment (``0`` when none was published)."""
        return self._bundle.nbytes if self._bundle is not None else 0

    def close(self) -> None:
        """Close and unlink the published segment (idempotent)."""
        if self._bundle is not None:
            self._bundle.close()
            self._bundle.unlink()
            self._bundle = None


class _WorkerContext(KernelContext):
    """Per-worker view of one shared segment, cached for the pool's lifetime."""

    def __init__(self, spec: BundleSpec):
        self.bundle = SharedArrayBundle.attach(spec)
        arrays = self.bundle.arrays
        super().__init__(arrays["points"], arrays=arrays)
        if _TREE_PREFIX + "leaf_size" in arrays:
            from repro.index.kdtree import KDTree, KDTreeArrays

            self.tree = KDTree.from_arrays(
                self.points,
                KDTreeArrays.from_mapping(arrays, prefix=_TREE_PREFIX),
                leaf_size=int(arrays[_TREE_PREFIX + "leaf_size"][0]),
                counter=self.counter,
                kernel=KERNEL_TIERS[int(arrays[_TREE_PREFIX + "kernel"][0])],
            )


#: Worker-side cache: one attached context per segment.  Segment names are
#: unique per run and the pool is torn down when the run ends, so entries
#: never go stale.
_CONTEXTS: dict[str, _WorkerContext] = {}


def worker_context(spec: BundleSpec) -> _WorkerContext:
    """Attach (once per worker) and return the cached context for ``spec``."""
    ctx = _CONTEXTS.get(spec.segment_name)
    if ctx is None:
        ctx = _WorkerContext(spec)
        _CONTEXTS[spec.segment_name] = ctx
    return ctx


def execute_chunk(
    spec: BundleSpec, kernel: Callable, payload: dict, chunk: np.ndarray
) -> tuple[Any, float]:
    """Worker entry point: ``(value, distance_calcs)`` of one kernel chunk."""
    ctx = worker_context(spec)
    before = ctx.counter.get("distance_calcs")
    value = kernel(ctx, payload, chunk)
    return value, ctx.counter.get("distance_calcs") - before


# ------------------------------------------------------------------- kernels


def kernel_range_count(ctx, payload, chunk):
    """Ex-DPC batch density: one strict batch range count over a chunk of points."""
    return ctx.tree.range_count_batch(ctx.points[chunk], payload["d_cut"], strict=True)


def kernel_dual_self_count(ctx, payload, chunk):
    """Ex-DPC dual-engine density: one slice of the self-join pair frontier.

    The payload carries the (tiny) node-pair array of this chunk.  Returns
    the full-length count contribution of the chunk's pairs -- the caller
    sums the contributions with the frontier's base credits, reproducing
    the serial self-join bit for bit, work counters included (the frontier
    decomposition is deterministic and independent of chunking).
    """
    return ctx.tree.range_count_dual_pairs(
        payload["pairs"], payload["d_cut"], strict=True
    )


def kernel_joint_density(ctx, payload, chunk):
    """Approx-DPC batch density: joint range searches + per-cell density scans.

    The payload is sliced per chunk: cell centers, joint radii, member index
    arrays and cell keys for exactly the cells of this chunk.  Returns one
    :class:`~repro.core.approx_dpc.CellDensitySummary` per cell.
    """
    from repro.core.approx_dpc import cell_density_summary

    points = ctx.points
    lattice = ctx.arrays["lattice"]
    d_cut = payload["d_cut"]
    d_cut_sq = d_cut * d_cut
    candidate_lists = ctx.tree.range_search_batch(
        payload["centers"], payload["radii"], strict=False
    )
    summaries = []
    for members, key, candidates in zip(
        payload["members"], payload["cell_keys"], candidate_lists
    ):
        summary = cell_density_summary(
            points, lattice, members, candidates, d_cut_sq, tuple(key)
        )
        ctx.counter.add("distance_calcs", summary.n_distance_calcs)
        summaries.append(summary)
    return summaries


def kernel_picked_density(ctx, payload, chunk):
    """S-Approx-DPC batch density: range searches around a chunk of picked points.

    Returns ``(density, neighbor_keys)`` per picked point, where the keys are
    the distinct lattice cells of the in-range points minus the point's own
    cell (the paper's ``N(c)``).
    """
    from repro.index.grid import distinct_lattice_keys

    points = ctx.points
    lattice = ctx.arrays["lattice"]
    picked = payload["picked"]
    neighbor_lists = ctx.tree.range_search_batch(
        points[picked], payload["d_cut"], strict=True
    )
    return [
        (
            float(neighbors.size),
            distinct_lattice_keys(
                lattice, neighbors, exclude=tuple(lattice[int(index)])
            ),
        )
        for index, neighbors in zip(picked, neighbor_lists)
    ]


def kernel_dual_nn(ctx, payload, chunk):
    """Dual nearest-denser join: one slice of the query-subtree frontier.

    The payload carries the (tiny) query-node ids of this chunk plus the
    densities, optional per-query seeds and construction parameters.  The
    phase's (data, query) tree pair comes from the context's phase state:
    seeded by the driver in-process, rebuilt once per worker (cached by
    ``token``) from the shared point matrix otherwise -- construction is
    deterministic, so node ids match the driver's frontier exactly.
    Returns ``(covered_queries, targets, distances)`` compacted to the
    chunk's covered query positions; any grouping of frontier units
    reproduces the serial results and work counters bit for bit (the
    traversal is per-query deterministic).
    """

    def build():
        from repro.core.dependency_join import build_join_trees

        return build_join_trees(
            ctx.points, payload["rho"], payload["undecided"], payload["candidates"],
            payload["leaf_size"], data_tree=ctx.tree, counter=ctx.counter,
        )[:4]

    data_tree, rho_data, queries_tree, rho_q = ctx.phase_state(payload["token"], build)
    q_nodes = payload["q_nodes"]
    idx, dist = data_tree.nn_dual_vs(
        queries_tree,
        rho_data,
        rho_q,
        q_nodes=q_nodes,
        seed_idx=payload["seed_idx"],
        seed_sq=payload["seed_sq"],
    )
    cov = queries_tree.node_positions(q_nodes)
    return cov, idx[cov], dist[cov]


def kernel_partitioned_dependency(ctx, payload, chunk):
    """Exact dependency search: batch queries on the phase's partitioned searcher.

    The :class:`~repro.core.dependency_join.PartitionedDependencySearcher`
    comes from the context's phase state: seeded by the driver in-process;
    in a worker it is rebuilt once (cached per phase token) from the shared
    points plus the small pickled parameters -- construction is
    deterministic in its inputs -- instead of pickling its per-partition
    kd-trees.
    """

    def build():
        from repro.core.dependency_join import PartitionedDependencySearcher

        return PartitionedDependencySearcher(
            ctx.points,
            payload["rho"],
            candidate_indices=payload["candidates"],
            n_partitions=payload["n_partitions"],
            leaf_size=payload["leaf_size"],
            counter=ctx.counter,
        )

    searcher = ctx.phase_state(payload["token"], build)
    return searcher.query_batch(payload["undecided"][chunk])


def kernel_range_profile(ctx, payload, chunk):
    """Recluster index build: the profile rows of a chunk of tree positions.

    Rows go in tree order (spatially coherent query blocks) and are written
    straight into the context's final CSR output arrays at the offsets of
    ``profile.indptr``; see :func:`repro.core.recluster.write_profile_rows`.
    """
    from repro.core.recluster import write_profile_rows

    rows = ctx.tree.arrays.indices[chunk]
    write_profile_rows(ctx.tree, ctx.points, rows, ctx.arrays, **payload)
