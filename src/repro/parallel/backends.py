"""Execution backends and the process-backend worker runtime.

The parallel phases of every DPC algorithm run on one of three backends:

``"serial"``
    Everything in the calling thread.  Zero overhead; the right choice for
    small inputs and for debugging.
``"thread"``
    A ``ThreadPoolExecutor``.  Python-level code stays GIL-bound, but the
    numpy kernels of the batch engine release the GIL, so large vectorised
    chunks overlap.
``"process"``
    A ``ProcessPoolExecutor``.  Work is shipped as picklable *index-chunk
    task descriptors* (:class:`ChunkTask`): the kernel function (pickled by
    reference), a tiny :class:`~repro.parallel.shm.BundleSpec` naming the
    shared-memory segment that holds the dataset and the flattened kd-tree,
    and a small per-chunk payload.  Workers attach the segment once
    (:func:`worker_context`), rebuild a zero-copy :class:`~repro.index.kdtree.KDTree`
    view over it, and cache both for the lifetime of the pool.

Every kernel returns ``(value, distance_calcs)`` so the parent can merge the
work counters deterministically; kernels perform bit-identical arithmetic to
the in-process batch closures, which is property-tested in
``tests/property/test_backend_equivalence.py``.

Kernels live here (module level, hence picklable by qualified name) and
lazily import the core/index helpers they share with the in-process code
paths, keeping the import graph acyclic.
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
    "kernel_predict_density",
    "kernel_predict_attach",
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


@dataclass
class ChunkTask:
    """A picklable index-chunk task for the process backend.

    ``kernel`` is a module-level function ``kernel(ctx, payload, chunk) ->
    (value, distance_calcs)``; ``spec`` names the shared segment holding the
    run's arrays; ``payload`` (static) or ``payload_fn(chunk)`` (sliced per
    chunk) carries the small per-phase extras.  ``counter`` stays on the
    parent side: the executor folds each chunk's returned distance count into
    it, preserving the exact totals of the serial path.
    """

    kernel: Callable[..., tuple[Any, float]]
    spec: BundleSpec
    payload: dict = field(default_factory=dict)
    payload_fn: Optional[Callable[[np.ndarray], dict]] = None
    counter: Optional[WorkCounter] = None

    def payload_for(self, chunk: np.ndarray) -> dict:
        """The payload shipped with one chunk submission."""
        if self.payload_fn is not None:
            return self.payload_fn(chunk)
        return self.payload


def pack_tree_arrays(tree) -> dict[str, np.ndarray]:
    """Flatten a :class:`~repro.index.kdtree.KDTree` (plus its points) for a bundle.

    ``points`` is always the float64 source matrix (identical to the tree's
    storage for float64 trees): scan kernels operating on raw coordinates
    must see the same values as the in-process code paths.  Workers rebuild
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


class _WorkerContext:
    """Per-worker view of one shared segment, cached for the pool's lifetime."""

    def __init__(self, spec: BundleSpec):
        self.bundle = SharedArrayBundle.attach(spec)
        self.arrays = self.bundle.arrays
        self._tree = None
        self._phase_state: dict[str, Any] = {}

    @property
    def points(self) -> np.ndarray:
        return self.arrays["points"]

    @property
    def tree(self):
        """Zero-copy kd-tree over the shared arrays (built once per worker)."""
        if self._tree is None:
            from repro.index.kdtree import KDTree, KDTreeArrays

            arrays = KDTreeArrays.from_mapping(self.arrays, prefix=_TREE_PREFIX)
            leaf_size = int(self.arrays[_TREE_PREFIX + "leaf_size"][0])
            kernel = KERNEL_TIERS[int(self.arrays[_TREE_PREFIX + "kernel"][0])]
            self._tree = KDTree.from_arrays(
                self.points,
                arrays,
                leaf_size=leaf_size,
                counter=WorkCounter(),
                kernel=kernel,
            )
        return self._tree

    def phase_state(self, token: str, builder: Callable[[], Any]) -> Any:
        """Build-once-per-worker state keyed by a per-phase token."""
        if token not in self._phase_state:
            self._phase_state[token] = builder()
        return self._phase_state[token]


#: Worker-side cache: one attached context per segment.  Segment names are
#: unique per fit and the pool is torn down when the fit ends, so entries
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
    """Worker entry point: run one kernel over one index chunk."""
    return kernel(worker_context(spec), payload, chunk)


def _tree_delta(tree, func):
    """Run ``func()`` and return ``(result, distance_calcs added to the tree)``."""
    before = tree.counter.get("distance_calcs")
    result = func()
    return result, tree.counter.get("distance_calcs") - before


# ------------------------------------------------------------------- kernels


def kernel_range_count(ctx, payload, chunk):
    """Ex-DPC density: one batch range count over a chunk of points."""
    tree = ctx.tree
    counts, delta = _tree_delta(
        tree,
        lambda: tree.range_count_batch(
            ctx.points[chunk], payload["d_cut"], strict=True
        ),
    )
    return counts, delta


def kernel_dual_self_count(ctx, payload, chunk):
    """Ex-DPC dual-engine density: one slice of the self-join pair frontier.

    The payload carries the (tiny) node-pair array of this chunk; the tree
    and points come from shared memory.  Returns the full-length count
    contribution of the chunk's pairs -- the parent sums the contributions
    with the frontier's base credits, reproducing the serial self-join
    bit for bit, work counters included (the frontier decomposition is
    deterministic and independent of chunking).
    """
    tree = ctx.tree
    counts, delta = _tree_delta(
        tree,
        lambda: tree.range_count_dual_pairs(
            payload["pairs"], payload["d_cut"], strict=True
        ),
    )
    return counts, delta


def kernel_joint_density(ctx, payload, chunk):
    """Approx-DPC density: joint range searches + per-cell density scans.

    The payload is sliced per chunk: cell centers, joint radii, member index
    arrays and cell keys for exactly the cells of this chunk.  Returns one
    :class:`~repro.core.approx_dpc.CellDensitySummary` per cell.
    """
    from repro.core.approx_dpc import cell_density_summary

    tree = ctx.tree
    points = ctx.points
    lattice = ctx.arrays["lattice"]
    d_cut = payload["d_cut"]
    d_cut_sq = d_cut * d_cut
    candidate_lists, delta = _tree_delta(
        tree,
        lambda: tree.range_search_batch(
            payload["centers"], payload["radii"], strict=False
        ),
    )
    summaries = []
    for members, key, candidates in zip(
        payload["members"], payload["cell_keys"], candidate_lists
    ):
        summary = cell_density_summary(
            points, lattice, members, candidates, d_cut_sq, tuple(key)
        )
        delta += summary.n_distance_calcs
        summaries.append(summary)
    return summaries, delta


def kernel_picked_density(ctx, payload, chunk):
    """S-Approx-DPC density: range searches around a chunk of picked points.

    Returns ``(density, neighbor_keys)`` per picked point, where the keys are
    the distinct lattice cells of the in-range points minus the point's own
    cell (the paper's ``N(c)``).
    """
    from repro.index.grid import distinct_lattice_keys

    tree = ctx.tree
    points = ctx.points
    lattice = ctx.arrays["lattice"]
    picked = payload["picked"]
    neighbor_lists, delta = _tree_delta(
        tree,
        lambda: tree.range_search_batch(
            points[picked], payload["d_cut"], strict=True
        ),
    )
    results = []
    for index, neighbors in zip(picked, neighbor_lists):
        keys = distinct_lattice_keys(
            lattice, neighbors, exclude=tuple(lattice[int(index)])
        )
        results.append((float(neighbors.size), keys))
    return results, delta


def kernel_dual_nn(ctx, payload, chunk):
    """Dual nearest-denser join: one slice of the query-subtree frontier.

    The payload carries the (tiny) query-node ids of this chunk plus the
    densities and construction parameters; the fitted tree and points come
    from shared memory.  When the join restricts queries or candidates
    (``undecided`` / ``candidates`` set), the worker rebuilds the throwaway
    float64 trees once per phase (cached by ``token``) from the shared point
    matrix -- construction is deterministic, so node ids match the driver's
    frontier exactly.  Returns ``(covered_queries, targets, distances)``
    compacted to the chunk's covered query positions; any grouping of
    frontier units reproduces the serial results and work counters bit for
    bit (the traversal is per-query deterministic).
    """
    rho = payload["rho"]
    undecided = payload["undecided"]
    candidates = payload["candidates"]
    leaf_size = payload["leaf_size"]

    def build():
        from repro.core.dependency_join import build_join_trees

        data_tree, rho_data, queries_tree, rho_q, _ = build_join_trees(
            ctx.points, rho, undecided, candidates, leaf_size,
            data_tree=ctx.tree, counter=WorkCounter(),
        )
        return data_tree, rho_data, queries_tree, rho_q

    data_tree, rho_data, queries_tree, rho_q = ctx.phase_state(payload["token"], build)
    counter = data_tree.counter
    before = counter.get("distance_calcs")
    q_nodes = payload["q_nodes"]
    idx, dist = data_tree.nn_dual_vs(queries_tree, rho_data, rho_q, q_nodes=q_nodes)
    cov = queries_tree.node_positions(q_nodes)
    return (cov, idx[cov], dist[cov]), counter.get("distance_calcs") - before


def kernel_partitioned_dependency(ctx, payload, chunk):
    """Exact dependency fallback: batch queries on a per-worker rebuilt searcher.

    The :class:`~repro.core.dependency_join.PartitionedDependencySearcher`
    is deterministic in its inputs, so instead of pickling its per-partition
    kd-trees the worker rebuilds it once (cached per phase token) from the
    shared points plus the small pickled parameters, and answers every chunk
    of the phase from the cache.
    """

    def build():
        from repro.core.dependency_join import PartitionedDependencySearcher

        return PartitionedDependencySearcher(
            ctx.points,
            payload["rho"],
            candidate_indices=payload["candidates"],
            n_partitions=payload["n_partitions"],
            leaf_size=payload["leaf_size"],
            counter=WorkCounter(),
        )

    searcher = ctx.phase_state(payload["token"], build)
    counter = searcher.counter
    before = counter.get("distance_calcs")
    undecided = payload["undecided"]
    result = searcher.query_batch(undecided[chunk])
    return result, counter.get("distance_calcs") - before


def kernel_predict_density(ctx, payload, chunk):
    """Online predict: batch range counts of a chunk of out-of-sample queries.

    The queries travel in the (per-chunk sliced) payload; the fitted tree and
    point matrix come from shared memory.
    """
    tree = ctx.tree
    return _tree_delta(
        tree,
        lambda: tree.range_count_batch(
            payload["queries"], payload["d_cut"], strict=True
        ),
    )


def kernel_predict_attach(ctx, payload, chunk):
    """Online predict: nearest-denser attachment targets for a query chunk.

    The fitted tie-broken densities are read from the shared segment (key
    ``"rho"``); only the chunk's queries and their raw densities are pickled.
    """
    from repro.core.predict import nearest_denser_targets

    tree = ctx.tree
    return _tree_delta(
        tree,
        lambda: nearest_denser_targets(
            tree, ctx.arrays["rho"], payload["queries"], payload["rho_q"]
        ),
    )
