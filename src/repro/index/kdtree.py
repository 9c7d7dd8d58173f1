"""kd-tree implementations.

Two variants are provided, matching the two roles the kd-tree plays in the
paper:

``KDTree``
    A static, bulk-loaded kd-tree over a fixed point set.  Nodes are stored in
    flat numpy arrays; leaves hold small buckets of points so that the
    per-leaf distance computations are vectorised.  It answers

    * ``range_search(query, radius)`` / ``range_count(query, radius)`` --
      the primitive behind local-density computation (Lemma 1), and
    * ``nearest_neighbor(query, ...)`` / ``knn(query, k)`` -- used by the
      Approx-DPC exact-dependency fallback (case (i) of §4.3).

``IncrementalKDTree``
    A pointer-based kd-tree supporting one-point-at-a-time insertion.  Ex-DPC
    (§3) destroys the static tree, sorts points by descending local density
    and inserts them one by one; because the tree only ever contains points
    with *higher* density than the current query point, a plain nearest
    neighbour search returns the exact dependent point.

Both trees use the Euclidean metric and break ties by the smallest index.

Batch queries
-------------
Every scalar query on :class:`KDTree` has a vectorised batch counterpart --
``range_count_batch``, ``range_search_batch``, ``knn_batch`` and
``nearest_neighbor_batch``.  The batch methods traverse the tree
*iteratively*: an explicit stack holds ``(node, query-subset)`` frontier
entries, an internal node partitions its query subset between children with
one vectorised comparison, and a leaf evaluates all ``|subset| x |bucket|``
distances in a single numpy kernel.  Each tree node is therefore visited at
most once per batch call (with whatever query subset reaches it) instead of
once per query, which removes the per-point Python recursion that dominates
the scalar hot path.

The batch methods apply exactly the same per-query pruning rules and
identical per-pair arithmetic (``diff`` then the canonical sequential
squared-norm accumulation of :mod:`repro.kernels`) as the scalar ones, so
their results are bit-for-bit equal; the property suite
in ``tests/property/test_batch_equivalence.py`` locks that in.  Two
deliberate, documented normalisations keep results order-independent:
``range_search_batch`` returns each query's hit indices in ascending order
(the scalar method reports traversal order), and the nearest-neighbour
queries break exact distance ties by the smallest point index.

Dual-tree queries
-----------------
When *every* point is both a query and a datum -- the density phase of every
DPC variant is an ``n``-point range-count self-join -- even the batch engine
pays one pruned frontier traversal per query chunk.  The dual-tree methods
traverse two trees *simultaneously* over node **pairs** instead:

* ``range_count_dual(radius)`` -- the symmetric self-join behind
  ``engine="dual"`` density computation;
* ``range_count_dual_vs(queries_tree, radius)`` -- join the points of another
  tree against this one (``predict`` / streaming ingest);
* ``range_search_dual_vs(queries_tree, radius)`` -- the joint/picked range
  searches of Approx-DPC and S-Approx-DPC, with per-query radii.

Each tree node carries its bounding box (``KDTreeArrays.bbox_min`` /
``bbox_max``).  A node pair whose boxes are farther apart than the radius is
*excluded* -- the whole ``|A| x |B|`` block of pairs is skipped with zero
distance computations; a pair whose boxes fit entirely within the radius is
*included* -- the block is credited in O(1) (counts) or materialised from the
permutation slices without distances (searches).  Only ambiguous pairs
descend, bottoming out in blocked NumPy kernels over **contiguous** slices of
the leaf-ordered point copy (:attr:`KDTree.points_ordered`), so the hot
kernels never gather through the permutation.

The dual methods return bit-for-bit the same counts/index sets as the batch
methods: every blocked kernel -- whichever kernel tier executes it (see
:mod:`repro.kernels`) -- uses the identical canonical distance arithmetic,
and the inclusion/exclusion tests are floating-point safe (monotonicity of
IEEE subtraction/multiplication/addition guarantees every computed pair
distance lies within the computed node-pair bounds, for ``float64`` and
``float32`` storage alike, because the bounds reduce per-dimension terms in
the same sequential order as the kernels).  Work counters differ by design:
the whole point of the dual traversal is that credited blocks perform no
distance calculations.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, fields, replace
from typing import Mapping, Optional

import numpy as np

from repro.kernels import (
    KERNEL_TIERS,
    get_kernel,
    pair_distances_sq,
    resolve_kernel,
    squared_norms,
)
from repro.utils.counters import WorkCounter
from repro.utils.distance import point_to_points_sq
from repro.utils.validation import check_points, check_positive, check_positive_int

__all__ = [
    "KDTree",
    "KDTreeArrays",
    "IncrementalKDTree",
    "STORAGE_DTYPES",
    "check_storage_dtype",
    "DUAL_FRONTIER_TARGET",
    "adaptive_dual_frontier",
]

_NO_CHILD = -1

#: Supported point-storage dtypes.  ``float32`` halves the memory footprint
#: and cache traffic of the point matrix, split values and bounding boxes;
#: every engine (scalar / batch / dual) then computes distances in float32,
#: so results stay self-consistent across engines (property-tested) even
#: though individual counts may differ from a float64 run near the radius
#: boundary.
STORAGE_DTYPES = ("float64", "float32")

#: Floor of the frontier size: the minimum number of node pairs
#: :meth:`KDTree.dual_self_frontier` expands the self-join root pair into
#: (and of query-subtree work units :meth:`KDTree.node_frontier` produces
#: for the nearest-denser join).  The frontier is the canonical work-unit
#: decomposition shared by every execution backend: serial runs process the
#: same pairs a process-backend worker pool does, which keeps results *and*
#: work counters bit-for-bit identical across backends and worker counts.
DUAL_FRONTIER_TARGET = 64


def adaptive_dual_frontier(n: int, leaf_size: int) -> int:
    """Deterministic scale-aware frontier size for an ``n``-point tree.

    Grows with the square root of the leaf count -- enough independent work
    units to load-balance wide worker pools on large inputs without
    flooding small fits with per-unit overhead -- clamped to
    ``[DUAL_FRONTIER_TARGET, 4096]``.  A pure function of ``(n,
    leaf_size)``, so every backend (and every worker rebuilding the
    decomposition from shared memory) derives the identical frontier.
    """
    n = check_positive_int(n, "n")
    leaf_size = check_positive_int(leaf_size, "leaf_size")
    leaves = -(-n // leaf_size)
    return max(DUAL_FRONTIER_TARGET, min(4096, 4 * math.isqrt(leaves)))

#: Node pairs with both sides at or below this many points stop descending
#: and run one blocked distance kernel over their contiguous point slices.
#: Larger blocks trade a few redundant pair distances for fewer node-pair
#: visits; at or below the leaf size the kernels bottom out on leaf buckets.
#: (The mega-batch chunk size is the selected kernel tier's
#: ``block_budget``; chunking never changes results or counters.)
_DUAL_BLOCK = 32

#: Region-size multipliers of the nearest-denser seeding pyramid: every
#: query is first joined against its home block of ``_DUAL_BLOCK`` points,
#: and queries that found no denser point there (local density maxima)
#: escalate to an 8x and then a 64x larger home region.  The survivors --
#: peaks denser than their whole 64x neighbourhood, a vanishing fraction --
#: are resolved exactly against the full point set.  The pyramid gives every
#: query a *finite, tight* pruning bound before the pair traversal starts;
#: without it, one unresolved local maximum per leaf would poison the
#: per-node bounds and the traversal would degenerate towards the quadratic
#: join.
_NN_SEED_LEVELS = (1, 8, 64)

#: Data points per merge of the seeding pyramid's exact step (queries denser
#: than their whole largest home region are resolved against every point,
#: streamed in chunks of this many so the transient block stays bounded).
_NN_EXACT_CHUNK = 4096


#: Queries per leaf-size unit of a vs-join's throwaway query tree: batches
#: under this many queries get single-point leaves (see query_leaf_size).
_QUERY_LEAF_DIVISOR = 64


def query_leaf_size(n_queries: int, leaf_size: int) -> int:
    """Leaf size of the throwaway query tree of a vs-join over ``n_queries``.

    A function of the batch size alone: ``n_queries // 64`` clamped to
    ``[1, leaf_size]``.  Small batches are sparse relative to the data they
    are joined against, so their query leaves must be small for the query
    boxes to stay tight; large batches keep ``leaf_size`` (finer leaves
    there save distance calcs but cost more in node-pair bookkeeping).
    """
    return max(1, min(int(leaf_size), int(n_queries) // _QUERY_LEAF_DIVISOR))


def check_storage_dtype(dtype) -> np.dtype:
    """Normalise a point-storage ``dtype`` parameter to a numpy dtype.

    Accepts anything ``np.dtype`` does (``"float32"``, ``np.float64``,
    ``"f4"``, ``"double"``, ...) as long as it names one of
    :data:`STORAGE_DTYPES`.
    """
    try:
        name = np.dtype(dtype).name
    except TypeError:
        name = str(dtype)
    if name not in STORAGE_DTYPES:
        raise ValueError(
            f"dtype must be one of {STORAGE_DTYPES}, got {dtype!r}"
        )
    return np.dtype(name)


def _group_boundaries(sorted_keys: np.ndarray):
    """Yield ``(lo, hi)`` slices of equal-key runs in a sorted key array."""
    if sorted_keys.size == 0:
        return
    breaks = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    lo = 0
    for hi in breaks:
        yield int(lo), int(hi)
        lo = hi
    yield int(lo), int(sorted_keys.size)


def _block_pair_distances_sq(q_block: np.ndarray, d_block: np.ndarray) -> np.ndarray:
    """Squared distances between ``(g, q, d)`` and ``(g, j, d)`` point blocks.

    Thin alias of the canonical numpy-tier kernel
    (:func:`repro.kernels.pair_distances_sq`): sequential per-dimension
    accumulation at every ``d``, no 4-D temporary.  Kept for driver-side
    callers (the re-cluster index) that want the reference arithmetic
    without tier dispatch.
    """
    return pair_distances_sq(q_block, d_block)


def _as_density_vector(values, n: int, name: str) -> np.ndarray:
    """Normalise a per-point density array to a contiguous float64 vector.

    A conforming input (1-D float64 contiguous of length ``n``) is returned
    *as the same object* so identity-keyed aggregate caches keep hitting
    across repeated join calls.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.shape[0] != n:
        raise ValueError(f"{name} must hold one density per point ({n})")
    return arr


def _ragged_copy_indices(
    dest_base: np.ndarray, src_base: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat destination/source indices for copying many variable-length runs.

    Run ``i`` copies ``lengths[i]`` consecutive elements from
    ``src_base[i]...`` to ``dest_base[i]...``; the returned index arrays
    drive one fancy gather/scatter instead of a Python loop over runs.
    """
    total = int(lengths.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    ends = np.cumsum(lengths)
    within = np.arange(total, dtype=np.intp) - np.repeat(ends - lengths, lengths)
    return (
        np.repeat(dest_base, lengths) + within,
        np.repeat(src_base, lengths) + within,
    )


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], starts[i] + lengths[i])`` runs.

    Built with one ragged gather (destination bases are the exclusive
    cumulative lengths, so the source indices *are* the concatenation).
    """
    dest_base = np.cumsum(lengths) - lengths
    return _ragged_copy_indices(dest_base, starts, lengths)[1]


def _row_lex_order(rows: np.ndarray, values: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Permutation sorting entries by ``(rows, values, ids)`` lexicographically.

    Same result as ``np.lexsort((ids, values, rows))`` at a fraction of its
    cost: one unstable (SIMD) argsort of the values, one stable sort by row
    (a radix sort while row ids fit 16 bits), and an exact lexsort of only
    the entries in ``(row, value)`` tie runs (their positions already hold
    the right keys in order, so re-sorting them among themselves orders each
    run by id).
    """
    order = np.argsort(values)
    if rows.size == 0:
        return order
    row_key = rows.astype(np.min_scalar_type(int(rows.max())))
    order = order[np.argsort(row_key[order], kind="stable")]
    v, r = values[order], rows[order]
    tie = (v[1:] == v[:-1]) & (r[1:] == r[:-1])
    if tie.any():
        run = np.flatnonzero(np.append(tie, False) | np.insert(tie, 0, False))
        sub = order[run]
        order[run] = sub[np.lexsort((ids[sub], values[sub], rows[sub]))]
    return order


def _iter_padded_chunks(budget: int, dim: int, q_n: np.ndarray, g_width: np.ndarray):
    """Yield ``(pos, end, q_pad, w_pad)`` mega-batch chunks over groups.

    Groups arrive sorted by total partner width; a chunk greedily absorbs
    groups while the padded ``(rows, q_pad, w_pad, dim)`` difference volume
    stays within ``budget`` (always at least one group per chunk).  Chunk
    boundaries never affect results or work counters -- each group's block
    is self-contained and the counters are exact integer sums -- so kernel
    tiers are free to choose different budgets.
    """
    n_groups = int(q_n.size)
    pos = 0
    while pos < n_groups:
        q_pad = int(q_n[pos])
        w_pad = int(g_width[pos])
        end = pos + 1
        while end < n_groups:
            q_next = max(q_pad, int(q_n[end]))
            w_next = max(w_pad, int(g_width[end]))
            if (end - pos + 1) * q_next * w_next * dim > budget:
                break
            q_pad, w_pad = q_next, w_next
            end += 1
        yield pos, end, q_pad, w_pad
        pos = end


@dataclass(frozen=True)
class KDTreeArrays:
    """Structure-of-arrays representation of a bulk-loaded kd-tree.

    The whole tree is nine contiguous numpy arrays: per-node split
    dimensions and values, child links, the ``[start, stop)`` bounds of each
    node's slice of the permutation array, the permutation of point
    indices itself, and the per-node bounding boxes the dual-tree engine
    prunes with.  Node ``0`` is the root; children are stored in preorder
    (a node is allocated before its left subtree, which precedes its right
    subtree).  Leaves have ``left == right == -1`` and ``split_dim == -1``.

    Because the representation is plain arrays it can be placed in (or viewed
    from) a :mod:`multiprocessing.shared_memory` segment and reattached in a
    worker process with :meth:`KDTree.from_arrays` -- no pickling, no rebuild,
    zero copies.  The batch query kernels operate on these arrays directly.
    """

    split_dim: np.ndarray  #: per-node split dimension (``-1`` for leaves)
    split_val: np.ndarray  #: per-node split coordinate value
    left: np.ndarray  #: left child node id (``-1`` for leaves)
    right: np.ndarray  #: right child node id (``-1`` for leaves)
    start: np.ndarray  #: node bounds: first position in ``indices``
    stop: np.ndarray  #: node bounds: one past the last position in ``indices``
    indices: np.ndarray  #: permutation of point indices, leaf buckets contiguous
    bbox_min: np.ndarray  #: per-node coordinate-wise minimum, shape ``(nodes, d)``
    bbox_max: np.ndarray  #: per-node coordinate-wise maximum, shape ``(nodes, d)``
    #: Optional per-node maximum of an attached per-point density array (see
    #: :meth:`KDTree.attach_density_bounds`); the dependency-join engine
    #: prunes whole subtrees with no denser points through this aggregate.
    #: ``None`` until a density array is attached.
    rho_max: np.ndarray | None = None

    @property
    def node_count(self) -> int:
        """Total number of tree nodes (internal + leaves)."""
        return int(self.split_dim.shape[0])

    @property
    def nbytes(self) -> int:
        """Total byte size of the stored arrays."""
        return int(
            sum(
                getattr(self, f.name).nbytes
                for f in fields(self)
                if getattr(self, f.name) is not None
            )
        )

    def to_mapping(self, prefix: str = "") -> dict[str, np.ndarray]:
        """Return the arrays as a flat ``{prefix + field: array}`` mapping.

        Optional fields that are ``None`` (an unattached ``rho_max``) are
        omitted, so mappings round-trip through :meth:`from_mapping`.
        """
        return {
            prefix + f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) is not None
        }

    @classmethod
    def from_mapping(
        cls, mapping: Mapping[str, np.ndarray], prefix: str = ""
    ) -> "KDTreeArrays":
        """Rebuild the structure from a mapping produced by :meth:`to_mapping`."""
        kwargs = {}
        for f in fields(cls):
            key = prefix + f.name
            if key in mapping:
                kwargs[f.name] = mapping[key]
            elif f.name == "rho_max":
                kwargs[f.name] = None
            else:
                raise KeyError(f"tree mapping is missing required array {key!r}")
        return cls(**kwargs)

    def validate(self, points: np.ndarray, leaf_size: int) -> None:
        """Check the structural invariants of the flattened tree.

        Raises ``ValueError`` on the first violated invariant.  Used by the
        construction tests and available for debugging attached shared-memory
        views.
        """
        n, dim = points.shape
        if self.node_count < 1:
            raise ValueError("tree must have at least one node")
        if self.rho_max is not None and self.rho_max.shape != (self.node_count,):
            raise ValueError("rho_max must hold one value per node")
        if not np.array_equal(np.sort(self.indices), np.arange(n)):
            raise ValueError("indices is not a permutation of arange(n)")
        if int(self.start[0]) != 0 or int(self.stop[0]) != n:
            raise ValueError("root node does not cover [0, n)")
        visited = 0
        stack = [0]
        while stack:
            node = stack.pop()
            visited += 1
            lo, hi = int(self.start[node]), int(self.stop[node])
            if not 0 <= lo < hi <= n:
                raise ValueError(f"node {node} has invalid bounds [{lo}, {hi})")
            node_coords = points[self.indices[lo:hi]]
            if not np.array_equal(
                self.bbox_min[node], node_coords.min(axis=0)
            ) or not np.array_equal(self.bbox_max[node], node_coords.max(axis=0)):
                raise ValueError(f"node {node} has an incorrect bounding box")
            if int(self.left[node]) == _NO_CHILD:
                if int(self.right[node]) != _NO_CHILD:
                    raise ValueError(f"leaf {node} has a right child")
                if int(self.split_dim[node]) != -1:
                    raise ValueError(f"leaf {node} has a split dimension")
                coords = points[self.indices[lo:hi]]
                if hi - lo > leaf_size and np.any(
                    coords.max(axis=0) != coords.min(axis=0)
                ):
                    raise ValueError(
                        f"leaf {node} exceeds leaf_size without zero spread"
                    )
                continue
            left, right = int(self.left[node]), int(self.right[node])
            axis = int(self.split_dim[node])
            if not 0 <= axis < dim:
                raise ValueError(f"node {node} has invalid split dimension {axis}")
            for child in (left, right):
                if not 0 <= child < self.node_count:
                    raise ValueError(f"node {node} has out-of-range child {child}")
            if int(self.start[left]) != lo or int(self.stop[right]) != hi:
                raise ValueError(f"children of node {node} do not cover its bounds")
            if int(self.stop[left]) != int(self.start[right]):
                raise ValueError(f"children of node {node} are not contiguous")
            value = float(self.split_val[node])
            left_coords = points[self.indices[lo : int(self.stop[left])], axis]
            right_coords = points[self.indices[int(self.start[right]) : hi], axis]
            if left_coords.size == 0 or right_coords.size == 0:
                raise ValueError(f"node {node} has an empty child")
            if float(left_coords.max()) > value or float(right_coords.min()) < value:
                raise ValueError(f"node {node} violates the split-value invariant")
            stack.append(left)
            stack.append(right)
        if visited != self.node_count:
            raise ValueError(
                f"reachable nodes ({visited}) != node_count ({self.node_count})"
            )


def _build_tree_arrays(points: np.ndarray, leaf_size: int) -> KDTreeArrays:
    """Bulk-load the flattened kd-tree over ``points``.

    Nodes are allocated in preorder into preallocated arrays (a tree over
    ``n`` points has at most ``2n - 1`` nodes since every split produces two
    non-empty sides), then trimmed to the actual node count.
    """
    n = points.shape[0]
    capacity = max(1, 2 * n)
    split_dim = np.full(capacity, -1, dtype=np.intp)
    split_val = np.zeros(capacity, dtype=points.dtype)
    left = np.full(capacity, _NO_CHILD, dtype=np.intp)
    right = np.full(capacity, _NO_CHILD, dtype=np.intp)
    start = np.zeros(capacity, dtype=np.intp)
    stop = np.zeros(capacity, dtype=np.intp)
    indices = np.arange(n, dtype=np.intp)

    # Preorder allocation with an explicit stack (a recursive closure would
    # reference itself through its cell, a cycle that keeps the untrimmed
    # preallocations alive until the cyclic GC runs).  The left child is
    # pushed last, so its whole subtree is numbered before the right one.
    n_nodes = 0
    stack = [(0, n, -1, left)]
    while stack:
        lo, hi, parent, side = stack.pop()
        node = n_nodes
        n_nodes += 1
        if parent >= 0:
            side[parent] = node
        start[node] = lo
        stop[node] = hi
        count = hi - lo
        if count <= leaf_size:
            continue

        subset = indices[lo:hi]
        coords = points[subset]
        spreads = coords.max(axis=0) - coords.min(axis=0)
        dim = int(np.argmax(spreads))
        if spreads[dim] == 0.0:
            # All points identical along every axis: keep them in one leaf to
            # avoid infinite splitting on duplicate-heavy data.
            continue

        mid = count // 2
        order = np.argpartition(coords[:, dim], mid)
        indices[lo:hi] = subset[order]
        split_dim[node] = dim
        split_val[node] = float(points[indices[lo + mid], dim])
        stack.append((lo + mid, hi, node, right))
        stack.append((lo, lo + mid, node, left))

    # Bounding boxes, bottom-up: leaves take the coordinate-wise extrema of
    # their (now final) bucket slice; internal nodes merge their children.
    # Preorder allocation guarantees children have larger ids than their
    # parent, so one reverse sweep suffices.
    dim = points.shape[1]
    bbox_min = np.empty((n_nodes, dim), dtype=points.dtype)
    bbox_max = np.empty((n_nodes, dim), dtype=points.dtype)
    for node in range(n_nodes - 1, -1, -1):
        child_left = left[node]
        if child_left == _NO_CHILD:
            coords = points[indices[start[node] : stop[node]]]
            bbox_min[node] = coords.min(axis=0)
            bbox_max[node] = coords.max(axis=0)
        else:
            child_right = right[node]
            np.minimum(bbox_min[child_left], bbox_min[child_right], out=bbox_min[node])
            np.maximum(bbox_max[child_left], bbox_max[child_right], out=bbox_max[node])

    return KDTreeArrays(
        split_dim=split_dim[:n_nodes].copy(),
        split_val=split_val[:n_nodes].copy(),
        left=left[:n_nodes].copy(),
        right=right[:n_nodes].copy(),
        start=start[:n_nodes].copy(),
        stop=stop[:n_nodes].copy(),
        indices=indices,
        bbox_min=bbox_min,
        bbox_max=bbox_max,
    )


class KDTree:
    """Static bulk-loaded kd-tree with bucket leaves.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)``; a float64 copy is stored internally.
    leaf_size:
        Maximum number of points stored in a leaf bucket.  Larger leaves mean
        fewer Python-level node visits and more vectorised work per leaf; the
        default of 32 is a good compromise for the 2--8 dimensional data used
        throughout the paper.
    dtype:
        Point-storage dtype, ``"float64"`` (default) or ``"float32"``.  With
        ``"float32"`` the point matrix, split values and bounding boxes take
        half the memory and cache traffic, and every engine computes
        distances in float32 (results remain bit-for-bit consistent between
        the scalar, batch and dual engines at either precision).
    kernel:
        Kernel tier executing the blocked distance kernels:
        ``"numpy"`` (always available), ``"numba"`` (optional, a compiled
        implementation of the same ABI) or ``"auto"``
        (numba when installed, else numpy).  ``None`` (default) reads the
        ``REPRO_KERNEL`` environment variable.  Every tier produces
        bit-identical results and work counters (see :mod:`repro.kernels`
        and ``docs/kernels.md``); the choice only affects speed.

    Notes
    -----
    The classic analysis gives ``O(n^{1-1/d} + k)`` time for a range search
    reporting ``k`` points [Toth et al., Handbook of Discrete and Computational
    Geometry], which is the bound the paper's Lemma 1 builds on.
    """

    def __init__(
        self,
        points,
        leaf_size: int = 32,
        counter: WorkCounter | None = None,
        *,
        dtype: str = "float64",
        kernel: str | None = None,
    ):
        self._source_points = check_points(points, name="points")
        self._dtype = check_storage_dtype(dtype)
        self._points = np.ascontiguousarray(self._source_points, dtype=self._dtype)
        self._leaf_size = check_positive_int(leaf_size, "leaf_size")
        self._kernel_name = resolve_kernel(kernel)
        self._kernel = get_kernel(self._kernel_name)
        self._n, self._dim = self._points.shape
        #: Work counter accumulating distance evaluations and node visits
        #: performed by queries on this tree.
        self.counter = counter if counter is not None else WorkCounter()
        self._arrays = _build_tree_arrays(self._points, self._leaf_size)
        self._bind_arrays()

    def _bind_arrays(self) -> None:
        """Expose the structure-of-arrays fields under the query-code aliases."""
        arrays = self._arrays
        self._split_dim_arr = arrays.split_dim
        self._split_val_arr = arrays.split_val
        self._left_arr = arrays.left
        self._right_arr = arrays.right
        self._start_arr = arrays.start
        self._stop_arr = arrays.stop
        self._indices = arrays.indices
        self._bbox_min_arr = arrays.bbox_min
        self._bbox_max_arr = arrays.bbox_max
        self._root = 0
        # Query trees of vs-joins (for_queries) are terminal at leaves only.
        self._leaf_terminals = False
        # Leaf-contiguous point copy of the dual-tree engine; materialised
        # once per tree, on first use (see points_ordered).
        self._ordered_cache: np.ndarray | None = None
        self._terminal_cache: np.ndarray | None = None
        # Float64 pruning views of the nearest-denser join (identical to the
        # storage arrays for float64 trees; see _pruning_ordered/_pruning_bbox).
        self._ordered64_cache: np.ndarray | None = None
        self._bbox64_cache: tuple[np.ndarray, np.ndarray] | None = None
        # One-slot caches of the last seen density arrays and their per-node
        # aggregates (keyed by array identity): data-side maxima
        # (_density_bounds) and query-side minima (_query_density_bounds).
        self._density_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._q_density_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @classmethod
    def for_queries(
        cls, queries, like: "KDTree", *, dtype: str | None = None
    ) -> "KDTree":
        """Throwaway query-side tree of a vs-join against ``like``.

        The leaf size follows the batch size (:func:`query_leaf_size`) and
        only leaves are terminal, so a small batch splits down to tight
        boxes instead of joining one domain-wide node against every nearby
        data leaf.  The kernel tier is ``like``'s; the storage dtype is
        ``like``'s unless given.  Results of every join are unchanged --
        only the node pairs visited and the distance calcs differ.
        """
        queries = check_points(queries, name="queries")
        tree = cls(
            queries,
            leaf_size=query_leaf_size(queries.shape[0], like.leaf_size),
            counter=WorkCounter(),
            dtype=like.dtype_name if dtype is None else dtype,
            kernel=like.kernel_name,
        )
        tree._leaf_terminals = True
        return tree

    @classmethod
    def from_arrays(
        cls,
        points,
        arrays: KDTreeArrays,
        *,
        leaf_size: int = 32,
        counter: WorkCounter | None = None,
        validate: bool = False,
        kernel: str | None = None,
    ) -> "KDTree":
        """Wrap an existing flattened tree without rebuilding it.

        ``points`` and ``arrays`` are adopted as-is (typically zero-copy views
        over a shared-memory segment attached by a worker process); no data is
        copied and no O(n log n) build runs.  The storage dtype is inferred
        from ``arrays`` (its split values carry the build dtype); ``points``
        of a different dtype are cast once, which reproduces the exact storage
        a fresh build with that dtype would hold.  Pass ``validate=True`` to
        check the structural invariants of ``arrays`` first.
        """
        source = np.asarray(points, dtype=np.float64)
        if source.ndim != 2:
            raise ValueError("points must be a 2-D array")
        tree = cls.__new__(cls)
        tree._dtype = check_storage_dtype(arrays.split_val.dtype.name)
        tree._source_points = source
        tree._points = np.ascontiguousarray(source, dtype=tree._dtype)
        tree._leaf_size = check_positive_int(leaf_size, "leaf_size")
        tree._kernel_name = resolve_kernel(kernel)
        tree._kernel = get_kernel(tree._kernel_name)
        tree._n, tree._dim = tree._points.shape
        tree.counter = counter if counter is not None else WorkCounter()
        tree._arrays = arrays
        if validate:
            arrays.validate(tree._points, tree._leaf_size)
        tree._bind_arrays()
        return tree

    # ------------------------------------------------------------- properties

    @property
    def arrays(self) -> KDTreeArrays:
        """The flattened structure-of-arrays form of the tree."""
        return self._arrays

    @property
    def points(self) -> np.ndarray:
        """The indexed point set in storage dtype (read-only view)."""
        return self._points

    @property
    def source_points(self) -> np.ndarray:
        """The float64 point set the tree was built from.

        Identical to :attr:`points` for ``dtype="float64"`` trees; for
        ``float32`` trees this is the original full-precision matrix (the
        process backend shares it so worker-side scan kernels operating on
        raw coordinates stay bit-for-bit equal to the in-process ones).
        """
        return self._source_points

    @property
    def dtype_name(self) -> str:
        """Name of the point-storage dtype (``"float64"`` or ``"float32"``)."""
        return self._dtype.name

    @property
    def kernel_name(self) -> str:
        """Name of the *effective* kernel tier executing the blocked kernels.

        All tiers compute bit-identical results (see :mod:`repro.kernels`),
        so this only matters for performance accounting; ``"auto"`` requests
        resolve to a concrete tier at construction.
        """
        return self._kernel.name

    @property
    def points_ordered(self) -> np.ndarray:
        """The points permuted into leaf-traversal order (cache-aware layout).

        ``points_ordered[k] == points[arrays.indices[k]]``, so every tree
        node's bucket is one *contiguous* slice ``[start, stop)`` of this
        array.  The dual-tree kernels read their blocks straight out of these
        slices -- sequential cache lines, no permutation gather.  Materialised
        once per tree on first use; results are inverse-permuted back to the
        caller's point order at the API edge.
        """
        if self._ordered_cache is None:
            self._ordered_cache = np.ascontiguousarray(self._points[self._indices])
        return self._ordered_cache

    @property
    def size(self) -> int:
        """Number of indexed points."""
        return self._n

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed points."""
        return self._dim

    @property
    def leaf_size(self) -> int:
        """Maximum bucket size of a leaf."""
        return self._leaf_size

    @property
    def node_count(self) -> int:
        """Total number of tree nodes (internal + leaves)."""
        return self._arrays.node_count

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the index structure in bytes.

        Counts the flattened node arrays (including bounding boxes), the
        permutation array, and -- once materialised by a dual-tree query --
        the leaf-ordered point copy, but not the point matrix itself (which
        is shared with the caller).
        """
        total = self._arrays.nbytes
        if self._ordered_cache is not None:
            total += self._ordered_cache.nbytes
        return total

    # ---------------------------------------------------------------- queries

    def _is_leaf(self, node: int) -> bool:
        return self._left_arr[node] == _NO_CHILD

    def _check_query(self, query) -> np.ndarray:
        """Validate one query point and cast it to the storage dtype."""
        query = np.asarray(query, dtype=self._dtype).reshape(-1)
        if query.shape[0] != self._dim:
            raise ValueError(
                f"query has dimension {query.shape[0]}, expected {self._dim}"
            )
        return query

    def range_search(self, query, radius: float, strict: bool = True) -> np.ndarray:
        """Return the indices of all points within ``radius`` of ``query``.

        Parameters
        ----------
        query:
            Query point of shape ``(d,)``.
        radius:
            Search radius (must be positive).
        strict:
            When true (the default, matching Definition 1 of the paper) report
            points with ``dist < radius``; otherwise ``dist <= radius``.
        """
        query = self._check_query(query)
        radius = check_positive(radius, "radius")
        radius_sq = radius * radius

        hits: list[np.ndarray] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if self._is_leaf(node):
                idx = self._indices[self._start_arr[node] : self._stop_arr[node]]
                if idx.size == 0:
                    continue
                self.counter.add("distance_calcs", idx.size)
                d_sq = point_to_points_sq(query, self._points[idx])
                mask = d_sq < radius_sq if strict else d_sq <= radius_sq
                if mask.any():
                    hits.append(idx[mask])
                continue
            dim = self._split_dim_arr[node]
            diff = query[dim] - self._split_val_arr[node]
            near, far = (
                (self._left_arr[node], self._right_arr[node])
                if diff < 0.0
                else (self._right_arr[node], self._left_arr[node])
            )
            stack.append(near)
            if diff * diff <= radius_sq:
                stack.append(far)

        if not hits:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(hits)

    def range_count(self, query, radius: float, strict: bool = True) -> int:
        """Return the number of points within ``radius`` of ``query``.

        Equivalent to ``len(range_search(...))`` but avoids materialising the
        index list; this is the primitive used for local-density computation.
        """
        query = self._check_query(query)
        radius = check_positive(radius, "radius")
        radius_sq = radius * radius

        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if self._is_leaf(node):
                idx = self._indices[self._start_arr[node] : self._stop_arr[node]]
                if idx.size == 0:
                    continue
                self.counter.add("distance_calcs", idx.size)
                d_sq = point_to_points_sq(query, self._points[idx])
                if strict:
                    count += int(np.count_nonzero(d_sq < radius_sq))
                else:
                    count += int(np.count_nonzero(d_sq <= radius_sq))
                continue
            dim = self._split_dim_arr[node]
            diff = query[dim] - self._split_val_arr[node]
            near, far = (
                (self._left_arr[node], self._right_arr[node])
                if diff < 0.0
                else (self._right_arr[node], self._left_arr[node])
            )
            stack.append(near)
            if diff * diff <= radius_sq:
                stack.append(far)
        return count

    def nearest_neighbor(
        self,
        query,
        *,
        exclude: Optional[int] = None,
        mask: Optional[np.ndarray] = None,
    ) -> tuple[int, float]:
        """Return ``(index, distance)`` of the nearest indexed point to ``query``.

        Parameters
        ----------
        query:
            Query point of shape ``(d,)``.
        exclude:
            Optional index to ignore (typically the query point itself when it
            is part of the indexed set).
        mask:
            Optional boolean array of length ``n``; only points with
            ``mask[i] == True`` are eligible.  Used by the Approx-DPC exact
            fallback, which restricts the search to points with higher local
            density.

        Returns
        -------
        tuple
            ``(index, distance)``; ``index`` is ``-1`` and ``distance`` is
            ``inf`` when no eligible point exists.
        """
        query = self._check_query(query)
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape[0] != self._n:
                raise ValueError("mask must have one entry per indexed point")

        best_idx = -1
        best_sq = np.inf
        # Depth-first traversal ordered by the near child first; prune subtrees
        # whose splitting plane is strictly farther than the current best
        # distance.  The non-strict comparison keeps equal-distance candidates
        # reachable so the smallest-index tie-break is traversal-order
        # independent (and therefore identical to ``nearest_neighbor_batch``).
        stack: list[tuple[int, float]] = [(self._root, 0.0)]
        while stack:
            node, plane_sq = stack.pop()
            if plane_sq > best_sq:
                continue
            if self._is_leaf(node):
                idx = self._indices[self._start_arr[node] : self._stop_arr[node]]
                if idx.size == 0:
                    continue
                self.counter.add("distance_calcs", idx.size)
                d_sq = point_to_points_sq(query, self._points[idx])
                if exclude is not None:
                    d_sq = np.where(idx == exclude, np.inf, d_sq)
                if mask is not None:
                    d_sq = np.where(mask[idx], d_sq, np.inf)
                pos = int(np.lexsort((idx, d_sq))[0])
                if d_sq[pos] < best_sq or (
                    d_sq[pos] == best_sq and int(idx[pos]) < best_idx
                ):
                    best_sq = float(d_sq[pos])
                    best_idx = int(idx[pos])
                continue
            dim = self._split_dim_arr[node]
            diff = query[dim] - self._split_val_arr[node]
            near, far = (
                (self._left_arr[node], self._right_arr[node])
                if diff < 0.0
                else (self._right_arr[node], self._left_arr[node])
            )
            # Push the far child first so the near child is explored first.
            stack.append((far, diff * diff))
            stack.append((near, 0.0))
        return best_idx, float(np.sqrt(best_sq)) if np.isfinite(best_sq) else np.inf

    def knn(self, query, k: int, *, exclude: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
        """Return the ``k`` nearest neighbours of ``query``.

        Returns
        -------
        tuple
            ``(indices, distances)`` sorted by increasing distance.  Fewer than
            ``k`` entries are returned when the tree holds fewer eligible
            points.
        """
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        k = check_positive_int(k, "k")
        if query.shape[0] != self._dim:
            raise ValueError(
                f"query has dimension {query.shape[0]}, expected {self._dim}"
            )

        # Collect candidate (distance, index) pairs with a simple bounded list;
        # k is small in every caller (the dependency fallback uses k=1..8).
        best_sq = np.full(k, np.inf)
        best_idx = np.full(k, -1, dtype=np.intp)

        stack: list[tuple[int, float]] = [(self._root, 0.0)]
        while stack:
            node, plane_sq = stack.pop()
            if plane_sq > best_sq[-1]:
                continue
            if self._is_leaf(node):
                idx = self._indices[self._start_arr[node] : self._stop_arr[node]]
                if idx.size == 0:
                    continue
                self.counter.add("distance_calcs", idx.size)
                d_sq = point_to_points_sq(query, self._points[idx])
                if exclude is not None:
                    d_sq = np.where(idx == exclude, np.inf, d_sq)
                merged_sq = np.concatenate([best_sq, d_sq])
                merged_idx = np.concatenate([best_idx, idx])
                # Lexicographic (distance, index) order: exact distance ties
                # resolve to the smallest index regardless of traversal order,
                # matching knn_batch bit for bit.
                order = np.lexsort((merged_idx, merged_sq))[:k]
                best_sq = merged_sq[order]
                best_idx = merged_idx[order]
                continue
            dim = self._split_dim_arr[node]
            diff = query[dim] - self._split_val_arr[node]
            near, far = (
                (self._left_arr[node], self._right_arr[node])
                if diff < 0.0
                else (self._right_arr[node], self._left_arr[node])
            )
            stack.append((far, diff * diff))
            stack.append((near, 0.0))

        valid = best_idx >= 0
        return best_idx[valid], np.sqrt(best_sq[valid])

    # ---------------------------------------------------------- batch queries

    def _check_query_batch(self, queries) -> np.ndarray:
        """Validate a ``(q, d)`` query batch (a bare ``(d,)`` vector is promoted).

        Queries are cast to the storage dtype so every engine computes each
        pair distance with identical arithmetic.
        """
        queries = np.asarray(queries, dtype=self._dtype)
        if queries.ndim == 1 and queries.shape[0] == self._dim:
            queries = queries.reshape(1, -1)
        if queries.size == 0:
            return queries.reshape(0, self._dim)
        if queries.ndim != 2 or queries.shape[1] != self._dim:
            raise ValueError(
                f"queries must have shape (q, {self._dim}), got {queries.shape}"
            )
        return queries

    def _check_radius_sq_batch(self, radius, n_queries: int) -> np.ndarray:
        """Return per-query *squared* radii from a scalar or length-q array.

        The squared radii are cast to the storage dtype: the scalar methods
        compare float32 distances against a Python-float ``radius_sq``,
        which NumPy's weak scalar promotion evaluates as a float32
        comparison, so the batch engine must round the bound identically or
        the engines would disagree within one ulp of the radius.
        """
        radius_arr = np.asarray(radius, dtype=np.float64)
        if radius_arr.ndim == 0:
            radius_value = check_positive(float(radius_arr), "radius")
            radius_arr = np.full(n_queries, radius_value)
        else:
            radius_arr = radius_arr.reshape(-1)
            if radius_arr.shape[0] != n_queries:
                raise ValueError(
                    f"radius must be a scalar or have one entry per query "
                    f"({n_queries}), got {radius_arr.shape[0]}"
                )
            if radius_arr.size and float(radius_arr.min()) <= 0.0:
                raise ValueError("every radius must be positive")
        radius_sq = radius_arr * radius_arr
        if self._dtype != np.float64:
            radius_sq = radius_sq.astype(self._dtype)
        return radius_sq

    def _leaf_distances_sq(self, queries_sub: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Squared distances from every query in the subset to every leaf point.

        Dispatched through the tree's kernel tier; every tier uses the same
        canonical sequential accumulation as the scalar
        :func:`repro.utils.distance.point_to_points_sq`, so every pair
        produces the bit-identical squared distance in both code paths.
        """
        return self._kernel.pair_distances_sq(queries_sub, self._points[idx])

    def _range_traverse_batch(self, queries, radius_sq, on_leaf) -> None:
        """Shared frontier traversal of the batch range queries.

        ``on_leaf(qidx, idx, hits)`` receives the query subset that reached the
        leaf, the leaf's point indices and the boolean hit matrix.  The child
        routing replicates the scalar rule per query: the near side is always
        visited and the far side only when the splitting plane is within the
        query radius, so the set of visited ``(node, query)`` pairs -- and the
        recorded distance-calculation counts -- match the scalar methods
        exactly.
        """
        stack: list[tuple[int, np.ndarray]] = [
            (self._root, np.arange(queries.shape[0], dtype=np.intp))
        ]
        while stack:
            node, qidx = stack.pop()
            if self._is_leaf(node):
                idx = self._indices[self._start_arr[node] : self._stop_arr[node]]
                if idx.size == 0:
                    continue
                self.counter.add("distance_calcs", float(qidx.size) * float(idx.size))
                d_sq = self._leaf_distances_sq(queries[qidx], idx)
                on_leaf(qidx, idx, d_sq)
                continue
            dim = self._split_dim_arr[node]
            diff = queries[qidx, dim] - self._split_val_arr[node]
            within = diff * diff <= radius_sq[qidx]
            left_q = qidx[(diff < 0.0) | within]
            right_q = qidx[(diff >= 0.0) | within]
            if left_q.size:
                stack.append((self._left_arr[node], left_q))
            if right_q.size:
                stack.append((self._right_arr[node], right_q))

    def range_count_batch(self, queries, radius, strict: bool = True) -> np.ndarray:
        """Vectorised batch counterpart of :meth:`range_count`.

        Parameters
        ----------
        queries:
            Array of shape ``(q, d)``; an empty batch returns an empty array.
        radius:
            Scalar radius shared by every query, or an array of ``q`` per-query
            radii (Approx-DPC's joint range search uses per-cell radii).
        strict:
            Count ``dist < radius`` when true (Definition 1), else
            ``dist <= radius``.

        Returns
        -------
        numpy.ndarray
            Integer counts, one per query, identical to calling
            :meth:`range_count` per point.
        """
        queries = self._check_query_batch(queries)
        n_queries = queries.shape[0]
        radius_sq = self._check_radius_sq_batch(radius, n_queries)
        counts = np.zeros(n_queries, dtype=np.intp)
        if n_queries == 0:
            return counts

        def on_leaf(qidx: np.ndarray, idx: np.ndarray, d_sq: np.ndarray) -> None:
            bound = radius_sq[qidx, None]
            hits = d_sq < bound if strict else d_sq <= bound
            counts[qidx] += hits.sum(axis=1)

        self._range_traverse_batch(queries, radius_sq, on_leaf)
        return counts

    def range_search_batch(
        self, queries, radius, strict: bool = True
    ) -> list[np.ndarray]:
        """Vectorised batch counterpart of :meth:`range_search`.

        Returns one index array per query holding the same point set as the
        scalar method, but sorted in ascending index order (the scalar method
        reports hits in traversal order, which is an implementation detail).
        ``radius`` may be a scalar or an array of per-query radii.
        """
        queries = self._check_query_batch(queries)
        n_queries = queries.shape[0]
        radius_sq = self._check_radius_sq_batch(radius, n_queries)
        results: list[np.ndarray] = [
            np.empty(0, dtype=np.intp) for _ in range(n_queries)
        ]
        if n_queries == 0:
            return results
        hit_queries: list[np.ndarray] = []
        hit_points: list[np.ndarray] = []

        def on_leaf(qidx: np.ndarray, idx: np.ndarray, d_sq: np.ndarray) -> None:
            bound = radius_sq[qidx, None]
            hits = d_sq < bound if strict else d_sq <= bound
            rows, cols = np.nonzero(hits)
            if rows.size:
                hit_queries.append(qidx[rows])
                hit_points.append(idx[cols])

        self._range_traverse_batch(queries, radius_sq, on_leaf)
        if not hit_queries:
            return results
        all_queries = np.concatenate(hit_queries)
        all_points = np.concatenate(hit_points)
        order = np.argsort(all_queries, kind="stable")
        all_queries = all_queries[order]
        all_points = all_points[order]
        boundaries = np.searchsorted(all_queries, np.arange(n_queries + 1))
        for query in range(n_queries):
            start, stop = boundaries[query], boundaries[query + 1]
            if stop > start:
                results[query] = np.sort(all_points[start:stop])
        return results

    def range_profile_batch(
        self, queries, radius, strict: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-query sorted neighbor-distance profiles (CSR layout).

        For every query this collects the *squared* distances (and indices) of
        all indexed points within ``radius``, using the exact hit predicate
        and canonical blocked-kernel arithmetic of :meth:`range_count_batch`.
        Consequently, for any radius ``r <= radius``, the number of profile
        entries below the storage-dtype bound ``r*r`` equals
        ``range_count_batch([q], r)`` bit for bit -- this is the invariant the
        re-cluster index (:mod:`repro.core.recluster`) is built on.

        Returns
        -------
        tuple
            ``(values, ids, indptr)``: ``values`` are the squared distances in
            the tree's storage dtype, ``ids`` the matching point indices, and
            ``indptr`` the ``(q + 1,)`` row offsets (row ``i`` spans
            ``values[indptr[i]:indptr[i + 1]]``).  Rows are sorted by
            ``(squared distance, point index)`` ascending, so each row's
            values are non-decreasing and exact distance ties keep the global
            index order (the lexicographic tie-break of the dependency join).
        """
        queries = self._check_query_batch(queries)
        n_queries = queries.shape[0]
        radius_sq = self._check_radius_sq_batch(radius, n_queries)
        indptr = np.zeros(n_queries + 1, dtype=np.int64)
        if n_queries == 0:
            return np.empty(0, dtype=self._dtype), np.empty(0, dtype=np.intp), indptr
        hit_queries: list[np.ndarray] = []
        hit_points: list[np.ndarray] = []
        hit_values: list[np.ndarray] = []

        def on_leaf(qidx: np.ndarray, idx: np.ndarray, d_sq: np.ndarray) -> None:
            bound = radius_sq[qidx, None]
            hits = d_sq < bound if strict else d_sq <= bound
            rows, cols = np.nonzero(hits)
            if rows.size:
                hit_queries.append(qidx[rows])
                hit_points.append(idx[cols])
                hit_values.append(d_sq[rows, cols])

        self._range_traverse_batch(queries, radius_sq, on_leaf)
        if not hit_queries:
            return np.empty(0, dtype=self._dtype), np.empty(0, dtype=np.intp), indptr
        all_queries = np.concatenate(hit_queries)
        all_points = np.concatenate(hit_points)
        all_values = np.concatenate(hit_values)
        order = _row_lex_order(all_queries, all_values, all_points)
        indptr[1:] = np.cumsum(np.bincount(all_queries, minlength=n_queries))
        return all_values[order], all_points[order], indptr

    def _knn_batch_impl(
        self,
        queries: np.ndarray,
        k: int,
        exclude: Optional[np.ndarray],
        mask: Optional[np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Frontier-based batch k-nearest-neighbour search.

        Returns ``(indices, squared_distances)`` of shape ``(q, k)`` padded
        with ``-1`` / ``inf``.  Exact distance ties are broken by the smallest
        index, which (together with the non-strict pruning test) makes the
        result independent of traversal order and therefore identical to the
        scalar methods.
        """
        n_queries = queries.shape[0]
        best_sq = np.full((n_queries, k), np.inf)
        best_idx = np.full((n_queries, k), -1, dtype=np.intp)
        if n_queries == 0:
            return best_idx, best_sq

        # Leaf node each query was routed to by the seeding pass; refinement
        # skips that (query, leaf) pair so no leaf is merged twice per query.
        home_leaf = np.full(n_queries, -1, dtype=np.intp)

        def merge_leaf(qidx: np.ndarray, idx: np.ndarray, node: int = -1) -> None:
            """Fold one leaf's distance block into the per-query best arrays."""
            if node >= 0:
                fresh = home_leaf[qidx] != node
                if not fresh.all():
                    qidx = qidx[fresh]
                    if qidx.size == 0:
                        return
            self.counter.add("distance_calcs", float(qidx.size) * float(idx.size))
            d_sq = self._leaf_distances_sq(queries[qidx], idx)
            if exclude is not None:
                d_sq = np.where(idx[None, :] == exclude[qidx][:, None], np.inf, d_sq)
            if mask is not None:
                d_sq = np.where(mask[idx][None, :], d_sq, np.inf)
            # Merge only the rows this leaf can actually improve (or tie,
            # which may still lower the winning index).
            improving = d_sq.min(axis=1) <= best_sq[qidx, -1]
            if not improving.any():
                return
            rows = qidx[improving]
            d_sq = d_sq[improving]
            merged_sq = np.concatenate([best_sq[rows], d_sq], axis=1)
            merged_idx = np.concatenate(
                [best_idx[rows], np.broadcast_to(idx, (rows.size, idx.size))],
                axis=1,
            )
            # Lexicographic (distance, index) order: exact distance ties
            # resolve to the smallest index regardless of traversal order,
            # matching the scalar methods bit for bit.
            order = np.lexsort((merged_idx, merged_sq), axis=-1)[:, :k]
            best_sq[rows] = np.take_along_axis(merged_sq, order, axis=1)
            best_idx[rows] = np.take_along_axis(merged_idx, order, axis=1)

        # Seeding pass: route every query to its home leaf (near side only,
        # so the subsets partition and each node is visited at most once) and
        # initialise the best arrays from that leaf's bucket.  This tightens
        # the pruning bounds before the refinement pass starts, which keeps
        # the far-side frontier small; it only ever lowers bounds, so the
        # refinement pass still visits every node the scalar search would.
        seed_stack: list[tuple[int, np.ndarray]] = [
            (self._root, np.arange(n_queries, dtype=np.intp))
        ]
        while seed_stack:
            node, qidx = seed_stack.pop()
            if self._is_leaf(node):
                home_leaf[qidx] = node
                idx = self._indices[self._start_arr[node] : self._stop_arr[node]]
                if idx.size:
                    merge_leaf(qidx, idx)
                continue
            diff = queries[qidx, self._split_dim_arr[node]] - self._split_val_arr[node]
            on_left = diff < 0.0
            if on_left.any():
                seed_stack.append((self._left_arr[node], qidx[on_left]))
            if not on_left.all():
                seed_stack.append((self._right_arr[node], qidx[~on_left]))

        stack: list[tuple[int, np.ndarray, np.ndarray]] = [
            (self._root, np.arange(n_queries, dtype=np.intp), np.zeros(n_queries))
        ]
        while stack:
            node, qidx, plane_sq = stack.pop()
            # Bounds may have tightened since this entry was pushed; the
            # non-strict comparison keeps equal-distance candidates reachable
            # so the smallest-index tie-break is traversal-order independent.
            alive = plane_sq <= best_sq[qidx, -1]
            if not alive.all():
                qidx = qidx[alive]
                plane_sq = plane_sq[alive]
            if qidx.size == 0:
                continue
            if self._is_leaf(node):
                idx = self._indices[self._start_arr[node] : self._stop_arr[node]]
                if idx.size:
                    merge_leaf(qidx, idx, node)
                continue
            dim = self._split_dim_arr[node]
            diff = queries[qidx, dim] - self._split_val_arr[node]
            diff_sq = diff * diff
            bound = best_sq[qidx, -1]
            on_left = diff < 0.0
            left_take = on_left | (diff_sq <= bound)
            right_take = ~on_left | (diff_sq <= bound)
            # Pop order is LIFO: push the child that is the far side for the
            # majority of queries first, so most queries explore their near
            # side first and tighten the pruning bound early.
            left_first = np.count_nonzero(on_left) * 2 >= qidx.size
            children = (
                (
                    (self._right_arr[node], right_take, np.where(on_left, diff_sq, 0.0)),
                    (self._left_arr[node], left_take, np.where(on_left, 0.0, diff_sq)),
                )
                if left_first
                else (
                    (self._left_arr[node], left_take, np.where(on_left, 0.0, diff_sq)),
                    (self._right_arr[node], right_take, np.where(on_left, diff_sq, 0.0)),
                )
            )
            for child, take, child_plane in children:
                if take.all():
                    stack.append((child, qidx, child_plane))
                elif take.any():
                    stack.append((child, qidx[take], child_plane[take]))
        return best_idx, best_sq

    def knn_batch(
        self, queries, k: int, *, exclude: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised batch counterpart of :meth:`knn`.

        Parameters
        ----------
        queries:
            Array of shape ``(q, d)``.
        k:
            Number of neighbours per query.
        exclude:
            Optional array of ``q`` point indices, one per query, to ignore
            (typically the query points themselves).

        Returns
        -------
        tuple
            ``(indices, distances)`` of shape ``(q, k)`` sorted by increasing
            distance per row, ties broken by the smallest index.  When a query
            has fewer than ``k`` eligible neighbours the trailing slots hold
            ``-1`` / ``inf`` (the scalar :meth:`knn` trims them instead).
        """
        queries = self._check_query_batch(queries)
        k = check_positive_int(k, "k")
        if exclude is not None:
            exclude = np.asarray(exclude, dtype=np.intp).reshape(-1)
            if exclude.shape[0] != queries.shape[0]:
                raise ValueError("exclude must hold one point index per query")
        best_idx, best_sq = self._knn_batch_impl(queries, k, exclude, None)
        return best_idx, np.sqrt(best_sq)

    def nearest_neighbor_batch(
        self,
        queries,
        *,
        exclude: Optional[np.ndarray] = None,
        mask: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised batch counterpart of :meth:`nearest_neighbor`.

        ``exclude`` is an optional array of one point index per query;
        ``mask`` is the same per-point eligibility array the scalar method
        accepts (shared by every query in the batch).  Returns ``(indices,
        distances)`` arrays of length ``q`` with ``-1`` / ``inf`` for queries
        with no eligible neighbour.
        """
        queries = self._check_query_batch(queries)
        if exclude is not None:
            exclude = np.asarray(exclude, dtype=np.intp).reshape(-1)
            if exclude.shape[0] != queries.shape[0]:
                raise ValueError("exclude must hold one point index per query")
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape[0] != self._n:
                raise ValueError("mask must have one entry per indexed point")
        best_idx, best_sq = self._knn_batch_impl(queries, 1, exclude, mask)
        return best_idx[:, 0], np.sqrt(best_sq[:, 0])

    # ----------------------------------------------------- dual-tree queries

    def _check_dual_partner(self, other: "KDTree") -> None:
        """Validate that ``other`` can be joined against this tree."""
        if not isinstance(other, KDTree):
            raise TypeError("dual-tree joins require another KDTree")
        if other._dim != self._dim:
            raise ValueError(
                f"query tree has dimension {other._dim}, expected {self._dim}"
            )
        if other._dtype != self._dtype:
            raise ValueError(
                f"query tree stores {other.dtype_name} but this tree stores "
                f"{self.dtype_name}; build both with the same dtype"
            )

    @property
    def _terminal(self) -> np.ndarray:
        """Per-node flag: the dual traversal stops descending here.

        A node is terminal when it is a leaf or holds at most ``_DUAL_BLOCK``
        points (leaves only for query trees built by :meth:`for_queries`); a
        pair of terminal nodes runs one blocked kernel over its two
        contiguous slices.
        """
        if self._terminal_cache is None:
            block = 0 if self._leaf_terminals else _DUAL_BLOCK
            self._terminal_cache = (self._left_arr == _NO_CHILD) | (
                self._stop_arr - self._start_arr <= block
            )
        return self._terminal_cache

    def _pair_bounds_sq(
        self, other: "KDTree", a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised min/max squared box distance for node pairs ``(a, b)``.

        ``a`` indexes this tree's nodes, ``b`` indexes ``other``'s.  The
        bounds are floating-point safe against the blocked kernels: each
        per-dimension gap/span is one IEEE subtraction, squared and summed
        with the same sequential ascending-dimension reduction every kernel
        tier uses, so by monotonicity of IEEE round-to-nearest every
        computed pair distance in the block lies inside ``[min_sq, max_sq]``
        -- in float64 and float32 storage alike.
        """
        a_min = self._bbox_min_arr[a]
        a_max = self._bbox_max_arr[a]
        b_min = other._bbox_min_arr[b]
        b_max = other._bbox_max_arr[b]
        gap = np.maximum(b_min - a_max, a_min - b_max)
        np.maximum(gap, 0.0, out=gap)
        span = np.maximum(b_max - a_min, a_max - b_min)
        min_sq = squared_norms(gap)
        max_sq = squared_norms(span)
        return min_sq, max_sq

    def _self_kernel_blocks(
        self,
        kernel_a: np.ndarray,
        kernel_b: np.ndarray,
        radius_sq: float,
        strict: bool,
        counts: np.ndarray,
    ) -> None:
        """Blocked distance kernels of the self-join, grouped by query node.

        All data blocks joined against the same query node are concatenated
        (contiguous slices of :attr:`points_ordered`) and answered with one
        kernel-tier ``count_blocks`` evaluation; the column sums then credit
        each off-diagonal partner in the symmetric direction.  Per-pair
        arithmetic is unchanged by the grouping -- each pair's distances
        occupy their own columns of the group matrix.
        """
        order = np.argsort(kernel_a, kind="stable")
        ka = kernel_a[order]
        kb = kernel_b[order]
        ordered = self.points_ordered
        start, stop = self._start_arr, self._stop_arr
        dim = self._dim
        n_pairs = ka.size

        # Group structure (one group per distinct query node), fully
        # vectorised: first-pair index, pair count, total partner width.
        group_first = np.flatnonzero(np.r_[True, ka[1:] != ka[:-1]])
        pair_counts = np.diff(np.r_[group_first, n_pairs])
        q_nodes = ka[group_first]
        pair_w = stop[kb] - start[kb]
        g_width = np.add.reduceat(pair_w, group_first)
        q_lo, q_hi = start[q_nodes], stop[q_nodes]
        q_n = q_hi - q_lo

        # Reorder the groups by total partner width (tight padding within a
        # mega-batch) and lay their pairs out contiguously in that order.
        g_order = np.argsort(g_width, kind="stable")
        _, pair_src = _ragged_copy_indices(
            np.r_[0, np.cumsum(pair_counts[g_order])[:-1]],
            group_first[g_order],
            pair_counts[g_order],
        )
        kb = kb[pair_src]
        pair_w = pair_w[pair_src]
        pair_counts = pair_counts[g_order]
        q_nodes = q_nodes[g_order]
        q_lo, q_hi, q_n = q_lo[g_order], q_hi[g_order], q_n[g_order]
        g_width = g_width[g_order]
        group_first = np.r_[0, np.cumsum(pair_counts)[:-1]]
        n_groups = q_nodes.size
        pair_group = np.repeat(np.arange(n_groups, dtype=np.intp), pair_counts)
        # In-group exclusive width offset of every pair (its column base).
        pair_off = (np.cumsum(pair_w) - pair_w) - np.repeat(
            np.r_[0, np.cumsum(g_width)[:-1]], pair_counts
        )

        # Every product is an integer below 2**53, so this float sum is exact
        # and independent of chunking -- serial and process backends report
        # identical work counters.
        self.counter.add(
            "distance_calcs",
            float(np.dot(q_n.astype(np.float64), g_width.astype(np.float64))),
        )

        # Mega-batch the groups: several groups are padded (queries and data
        # alike) with +inf rows into one (groups, q, j, d) block and answered
        # by a single kernel-tier call -- bit-identical per group to an
        # unpadded evaluation (verified by the property suite) -- while the
        # padded pair distances come out inf/nan and never satisfy the
        # radius test.  Fills and credits run as ragged gathers/scatters, no
        # per-group Python.  The radius bound is pre-cast to the storage
        # dtype so every tier compares exactly as numpy's weak scalar
        # promotion does in the scalar/batch engines.
        kernel_tier = self._kernel
        radius_cmp = ordered.dtype.type(radius_sq)
        for pos, end, q_pad, w_pad in _iter_padded_chunks(
            kernel_tier.block_budget, dim, q_n, g_width
        ):
            rows = end - pos
            p0 = group_first[pos]
            p1 = group_first[end] if end < n_groups else n_pairs

            dest_q, src_q = _ragged_copy_indices(
                np.arange(rows, dtype=np.intp) * q_pad, q_lo[pos:end], q_n[pos:end]
            )
            q_block = np.full((rows * q_pad, dim), np.inf, dtype=ordered.dtype)
            q_block[dest_q] = ordered[src_q]

            dest_base = (pair_group[p0:p1] - pos) * w_pad + pair_off[p0:p1]
            dest_d, src_d = _ragged_copy_indices(
                dest_base, start[kb[p0:p1]], pair_w[p0:p1]
            )
            d_block = np.full((rows * w_pad, dim), np.inf, dtype=ordered.dtype)
            d_block[dest_d] = ordered[src_d]

            row_hits, col_hits = kernel_tier.count_blocks(
                q_block.reshape(rows, q_pad, dim),
                d_block.reshape(rows, w_pad, dim),
                radius_cmp,
                strict,
            )
            row_hits = row_hits.reshape(rows * q_pad)
            col_hits = col_hits.reshape(rows * w_pad)
            # Row credits: query nodes are distinct, their position slices
            # disjoint, so a fancy-index add is safe.
            counts[src_q] += row_hits[dest_q]
            # Column credits (the symmetric direction): a data node can
            # partner several query nodes, so accumulate with add.at; the
            # diagonal blocks are already covered by their row sums.
            nondiag = kb[p0:p1] != np.repeat(q_nodes[pos:end], pair_counts[pos:end])
            if nondiag.any():
                cred_dest, cred_src = _ragged_copy_indices(
                    dest_base[nondiag],
                    start[kb[p0:p1][nondiag]],
                    pair_w[p0:p1][nondiag],
                )
                np.add.at(counts, cred_src, col_hits[cred_dest])

    def _dual_self_pairs(
        self, pairs, radius_sq: float, strict: bool, counts: np.ndarray
    ) -> None:
        """Symmetric self-join over node ``pairs``; counts in position space.

        The traversal is breadth-first and fully vectorised per level: one
        bounds evaluation classifies every live pair as excluded, included
        (credited in O(1)), a blocked kernel, or descending.  Every unordered
        node pair ``{a, b}`` is visited at most once; off-diagonal blocks
        credit both directions from one distance matrix (``(a-b)^2`` equals
        ``(b-a)^2`` bit for bit), diagonal blocks count the full in-block
        matrix including the zero self-distance, matching the batch engine
        (a point lies inside its own ball).
        """
        pair_arr = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        if pair_arr.size == 0:
            return
        start, stop = self._start_arr, self._stop_arr
        left, right = self._left_arr, self._right_arr
        terminal = self._terminal
        a_nodes = pair_arr[:, 0]
        b_nodes = pair_arr[:, 1]
        kernel_a_parts: list[np.ndarray] = []
        kernel_b_parts: list[np.ndarray] = []
        while a_nodes.size:
            min_sq, max_sq = self._pair_bounds_sq(self, a_nodes, b_nodes)
            if strict:
                excluded = min_sq >= radius_sq
                included = max_sq < radius_sq
            else:
                excluded = min_sq > radius_sq
                included = max_sq <= radius_sq
            diagonal = a_nodes == b_nodes
            size_a = stop[a_nodes] - start[a_nodes]
            size_b = stop[b_nodes] - start[b_nodes]
            for i in np.flatnonzero(included):
                a, b = a_nodes[i], b_nodes[i]
                counts[start[a] : stop[a]] += size_b[i]
                if not diagonal[i]:
                    counts[start[b] : stop[b]] += size_a[i]
            live = ~(excluded | included)
            # Terminal x terminal pairs are deferred and grouped by query
            # node once the traversal finishes, so every terminal node runs
            # one blocked kernel against all of its partners.
            kernel = live & terminal[a_nodes] & terminal[b_nodes]
            if kernel.any():
                kernel_a_parts.append(a_nodes[kernel])
                kernel_b_parts.append(b_nodes[kernel])
            descend = live & ~kernel
            if not descend.any():
                break
            # Diagonal pairs expand into both children plus the cross pair;
            # off-diagonal pairs descend the larger (non-terminal) side.
            diag = a_nodes[descend & diagonal]
            off = descend & ~diagonal
            off_a, off_b = a_nodes[off], b_nodes[off]
            go_b = terminal[off_a] | (~terminal[off_b] & (size_b[off] > size_a[off]))
            ba, bb = off_a[go_b], off_b[go_b]
            aa, ab = off_a[~go_b], off_b[~go_b]
            a_nodes = np.concatenate(
                [left[diag], right[diag], left[diag], ba, ba, left[aa], right[aa]]
            )
            b_nodes = np.concatenate(
                [left[diag], right[diag], right[diag], left[bb], right[bb], ab, ab]
            )
        if kernel_a_parts:
            self._self_kernel_blocks(
                np.concatenate(kernel_a_parts),
                np.concatenate(kernel_b_parts),
                radius_sq,
                strict,
                counts,
            )

    def _scatter_counts(self, counts_pos: np.ndarray) -> np.ndarray:
        """Inverse-permute position-space counts back to caller point order."""
        out = np.empty_like(counts_pos)
        out[self._indices] = counts_pos
        return out

    def range_count_dual(self, radius, strict: bool = True) -> np.ndarray:
        """Count, for every indexed point, the points within ``radius`` of it.

        One simultaneous traversal of the tree against itself replaces the
        ``n`` per-point traversals of ``range_count_batch(points, radius)``
        and returns the identical counts (bit for bit; property-tested).
        This is the ``engine="dual"`` density primitive.
        """
        radius = check_positive(radius, "radius")
        radius_sq = radius * radius
        counts = np.zeros(self._n, dtype=np.intp)
        self._dual_self_pairs([(self._root, self._root)], radius_sq, strict, counts)
        return self._scatter_counts(counts)

    def dual_self_frontier(
        self, radius, strict: bool = True, target_pairs: int = DUAL_FRONTIER_TARGET
    ) -> tuple[np.ndarray, np.ndarray]:
        """Expand the self-join into independent node-pair work units.

        Returns ``(pairs, base_counts)``: an ``(m, 2)`` array of node pairs
        whose traversals are mutually independent, plus the counts already
        credited (in caller point order) by inclusion/exclusion decisions
        taken during the expansion.  Summing ``base_counts`` with the
        :meth:`range_count_dual_pairs` contributions of *all* pairs -- in any
        grouping, on any backend -- reproduces :meth:`range_count_dual`
        exactly, including the distance-calculation counters: the expansion
        is deterministic and independent of the worker count.
        """
        radius = check_positive(radius, "radius")
        radius_sq = radius * radius
        target_pairs = check_positive_int(target_pairs, "target_pairs")
        counts = np.zeros(self._n, dtype=np.intp)
        start, stop = self._start_arr, self._stop_arr
        left, right = self._left_arr, self._right_arr
        terminal = self._terminal
        seq = 0
        root = self._root
        size = int(stop[root] - start[root])
        heap: list[tuple[int, int, int, int]] = [(-size * size, seq, root, root)]
        done: list[tuple[int, int]] = []
        pair_buf = np.empty(1, dtype=np.intp)
        pair_buf_b = np.empty(1, dtype=np.intp)
        while heap and len(heap) + len(done) < target_pairs:
            _, _, a, b = heapq.heappop(heap)
            sa, ea = start[a], stop[a]
            sb, eb = start[b], stop[b]
            na, nb = int(ea - sa), int(eb - sb)
            pair_buf[0] = a
            pair_buf_b[0] = b
            min_arr, max_arr = self._pair_bounds_sq(self, pair_buf, pair_buf_b)
            min_sq, max_sq = float(min_arr[0]), float(max_arr[0])
            if a != b and ((min_sq >= radius_sq) if strict else (min_sq > radius_sq)):
                continue
            if (max_sq < radius_sq) if strict else (max_sq <= radius_sq):
                if a == b:
                    counts[sa:ea] += na
                else:
                    counts[sa:ea] += nb
                    counts[sb:eb] += na
                continue
            term_a = bool(terminal[a])
            term_b = bool(terminal[b])
            if a == b:
                if term_a:
                    done.append((a, b))
                    continue
                la, ra = int(left[a]), int(right[a])
                children = [(la, la), (ra, ra), (la, ra)]
            elif term_a and term_b:
                done.append((a, b))
                continue
            elif term_a or (not term_b and nb > na):
                children = [(a, int(left[b])), (a, int(right[b]))]
            else:
                children = [(int(left[a]), b), (int(right[a]), b)]
            for ca, cb in children:
                wa = int(stop[ca] - start[ca])
                wb = int(stop[cb] - start[cb])
                seq += 1
                heapq.heappush(heap, (-wa * wb, seq, ca, cb))
        pairs = done + [(a, b) for _, _, a, b in heap]
        pairs.sort()
        pairs_arr = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        return pairs_arr, self._scatter_counts(counts)

    def range_count_dual_pairs(
        self, pairs, radius, strict: bool = True
    ) -> np.ndarray:
        """Self-join count contribution (caller point order) of some pairs.

        ``pairs`` is a subset of the work units produced by
        :meth:`dual_self_frontier`; this is the kernel the parallel backends
        ship to workers.
        """
        radius = check_positive(radius, "radius")
        counts = np.zeros(self._n, dtype=np.intp)
        self._dual_self_pairs(pairs, radius * radius, strict, counts)
        return self._scatter_counts(counts)

    def range_count_dual_vs(self, queries_tree: "KDTree", radius, strict: bool = True) -> np.ndarray:
        """Count this tree's points within ``radius`` of every query point.

        ``queries_tree`` is a :class:`KDTree` over the query points (built
        with the same dtype); the result -- one count per query, in the
        query tree's original point order -- is bit-for-bit identical to
        ``range_count_batch(queries_tree.points, radius)``.  This is the
        join ``predict`` and the streaming layer use to score new points
        against a fitted tree.
        """
        self._check_dual_partner(queries_tree)
        radius = check_positive(radius, "radius")
        radius_sq = radius * radius
        qt = queries_tree
        counts = np.zeros(qt._n, dtype=np.intp)

        def on_included(a: int, b: int) -> None:
            counts[qt._start_arr[a] : qt._stop_arr[a]] += (
                self._stop_arr[b] - self._start_arr[b]
            )

        def on_kernel_groups(ka: np.ndarray, kb: np.ndarray) -> None:
            self._count_vs_kernel_groups(qt, ka, kb, radius_sq, strict, counts)

        self._dual_vs_traverse(
            qt,
            lambda _a, min_sq: (min_sq >= radius_sq) if strict else (min_sq > radius_sq),
            lambda _a, max_sq: (max_sq < radius_sq) if strict else (max_sq <= radius_sq),
            on_included,
            on_kernel_groups,
        )
        return qt._scatter_counts(counts)

    def _count_vs_kernel_groups(
        self,
        qt: "KDTree",
        ka: np.ndarray,
        kb: np.ndarray,
        radius_sq: float,
        strict: bool,
        counts: np.ndarray,
    ) -> None:
        """Mega-batched radius-count kernels of the vs-join.

        ``(ka, kb)`` are the deferred terminal kernel pairs, sorted by query
        node ``ka``.  All data blocks joined against the same query node
        form one group; groups are padded into shared block shapes and
        answered by the kernel tier's ``count_blocks`` (only the query side
        is credited -- the vs-join is asymmetric).  Per-pair arithmetic and
        the total distance-calculation count are unchanged by the grouping.
        """
        if ka.size == 0:
            return
        d_start, d_stop = self._start_arr, self._stop_arr
        q_start, q_stop = qt._start_arr, qt._stop_arr
        group_first = np.flatnonzero(np.r_[True, ka[1:] != ka[:-1]])
        groups_a = ka[group_first]
        d_run_len = d_stop[kb] - d_start[kb]
        d_lens = np.add.reduceat(d_run_len, group_first)
        d_pos = _concat_ranges(d_start[kb], d_run_len)
        q_lens = q_stop[groups_a] - q_start[groups_a]
        q_pos = _concat_ranges(q_start[groups_a], q_lens)

        self.counter.add(
            "distance_calcs",
            float(np.dot(q_lens.astype(np.float64), d_lens.astype(np.float64))),
        )

        ordered_q = qt.points_ordered
        ordered_d = self.points_ordered
        dim = self._dim
        kernel_tier = self._kernel
        radius_cmp = ordered_d.dtype.type(radius_sq)

        # Width-sorted groups pad tightly; the offsets below address each
        # group's slice of the concatenated position arrays.
        q_off = np.cumsum(q_lens) - q_lens
        d_off = np.cumsum(d_lens) - d_lens
        g_order = np.argsort(d_lens, kind="stable")
        q_lens, d_lens = q_lens[g_order], d_lens[g_order]
        q_off, d_off = q_off[g_order], d_off[g_order]

        for pos, end, q_pad, w_pad in _iter_padded_chunks(
            kernel_tier.block_budget, dim, q_lens, d_lens
        ):
            rows = end - pos
            dest_q, src_q = _ragged_copy_indices(
                np.arange(rows, dtype=np.intp) * q_pad, q_off[pos:end], q_lens[pos:end]
            )
            q_sel = q_pos[src_q]
            q_block = np.full((rows * q_pad, dim), np.inf, dtype=ordered_d.dtype)
            q_block[dest_q] = ordered_q[q_sel]

            dest_d, src_d = _ragged_copy_indices(
                np.arange(rows, dtype=np.intp) * w_pad, d_off[pos:end], d_lens[pos:end]
            )
            d_block = np.full((rows * w_pad, dim), np.inf, dtype=ordered_d.dtype)
            d_block[dest_d] = ordered_d[d_pos[src_d]]

            row_hits, _ = kernel_tier.count_blocks(
                q_block.reshape(rows, q_pad, dim),
                d_block.reshape(rows, w_pad, dim),
                radius_cmp,
                strict,
                with_col=False,
            )
            # Query nodes are distinct across groups, so their position
            # sets are disjoint and a fancy-index add is safe.
            counts[q_sel] += row_hits.reshape(rows * q_pad)[dest_q]

    def _gather_blocks(self, nodes: np.ndarray) -> np.ndarray:
        """Concatenate the contiguous ordered-point slices of ``nodes``."""
        start, stop = self._start_arr, self._stop_arr
        ordered = self.points_ordered
        if nodes.size == 1:
            node = nodes[0]
            return ordered[start[node] : stop[node]]
        return np.concatenate([ordered[start[b] : stop[b]] for b in nodes])

    def _dual_vs_traverse(
        self, qt: "KDTree", is_excluded, is_included, on_included, on_kernel_groups
    ) -> None:
        """Breadth-first vectorised pair traversal of ``qt`` against ``self``.

        ``is_excluded(a_nodes, min_sq)`` / ``is_included(a_nodes, max_sq)``
        receive the level's query node ids and vectorised node-pair bounds
        (the ids matter for per-query radii); ``on_included(a, b)`` handles
        one credited pair.  All terminal kernel pairs are deferred to the end
        of the traversal and handed over in a single
        ``on_kernel_groups(ka, kb)`` call, sorted by query node ``ka``, so
        implementations can mega-batch every kernel into padded blocks.
        """
        if qt._n == 0 or self._n == 0:
            return
        q_start, q_stop = qt._start_arr, qt._stop_arr
        q_left, q_right = qt._left_arr, qt._right_arr
        d_start, d_stop = self._start_arr, self._stop_arr
        d_left, d_right = self._left_arr, self._right_arr
        q_terminal = qt._terminal
        d_terminal = self._terminal
        a_nodes = np.asarray([qt._root], dtype=np.intp)
        b_nodes = np.asarray([self._root], dtype=np.intp)
        kernel_a_parts: list[np.ndarray] = []
        kernel_b_parts: list[np.ndarray] = []
        while a_nodes.size:
            min_sq, max_sq = qt._pair_bounds_sq(self, a_nodes, b_nodes)
            excluded = is_excluded(a_nodes, min_sq)
            included = is_included(a_nodes, max_sq)
            for i in np.flatnonzero(included):
                on_included(a_nodes[i], b_nodes[i])
            live = ~(excluded | included)
            kernel = live & q_terminal[a_nodes] & d_terminal[b_nodes]
            if kernel.any():
                kernel_a_parts.append(a_nodes[kernel])
                kernel_b_parts.append(b_nodes[kernel])
            descend = live & ~kernel
            if not descend.any():
                break
            off_a, off_b = a_nodes[descend], b_nodes[descend]
            size_a = q_stop[off_a] - q_start[off_a]
            size_b = d_stop[off_b] - d_start[off_b]
            go_b = q_terminal[off_a] | (~d_terminal[off_b] & (size_b > size_a))
            ba, bb = off_a[go_b], off_b[go_b]
            aa, ab = off_a[~go_b], off_b[~go_b]
            a_nodes = np.concatenate([ba, ba, q_left[aa], q_right[aa]])
            b_nodes = np.concatenate([d_left[bb], d_right[bb], ab, ab])
        if kernel_a_parts:
            ka = np.concatenate(kernel_a_parts)
            kb = np.concatenate(kernel_b_parts)
            order = np.argsort(ka, kind="stable")
            on_kernel_groups(ka[order], kb[order])

    def range_search_dual_vs(
        self, queries_tree: "KDTree", radius, strict: bool = True
    ) -> list[np.ndarray]:
        """Dual-tree counterpart of :meth:`range_search_batch`.

        Returns one ascending index array per query point (in the query
        tree's original point order) holding exactly the same hit sets as
        ``range_search_batch(queries_tree.points, radius)``.  ``radius`` may
        be a scalar or one radius per query (aligned with the query tree's
        original point order) -- the per-query form is what Approx-DPC's
        joint range search uses.  Included node pairs materialise their hits
        straight from the permutation slices without computing distances.
        """
        self._check_dual_partner(queries_tree)
        qt = queries_tree
        n_q = qt._n
        radius_sq = qt._check_radius_sq_batch(radius, n_q)
        # Per-position squared radii plus per-node min/max bounds on the
        # query side (an included pair must fit the *smallest* radius in the
        # query node, an excluded pair must miss the *largest*).
        r_sq_pos = radius_sq[qt._indices]
        node_count = qt.node_count
        rmin = np.empty(node_count, dtype=np.float64)
        rmax = np.empty(node_count, dtype=np.float64)
        q_start, q_stop, q_left, q_right = (
            qt._start_arr, qt._stop_arr, qt._left_arr, qt._right_arr,
        )
        for node in range(node_count - 1, -1, -1):
            child = q_left[node]
            if child == _NO_CHILD:
                block = r_sq_pos[q_start[node] : q_stop[node]]
                rmin[node] = block.min()
                rmax[node] = block.max()
            else:
                other = q_right[node]
                rmin[node] = min(rmin[child], rmin[other])
                rmax[node] = max(rmax[child], rmax[other])

        d_start, d_stop = self._start_arr, self._stop_arr
        d_indices = self._indices
        hit_q: list[np.ndarray] = []
        hit_p: list[np.ndarray] = []

        def on_included(a: int, b: int) -> None:
            sa, ea = q_start[a], q_stop[a]
            sb, eb = d_start[b], d_stop[b]
            hit_q.append(np.repeat(np.arange(sa, ea, dtype=np.intp), eb - sb))
            hit_p.append(np.tile(d_indices[sb:eb], ea - sa))

        def on_kernel_groups(ka: np.ndarray, kb: np.ndarray) -> None:
            # Hit *sets* are ragged (per-query radii), so groups are answered
            # one query node at a time; the distances themselves still run
            # through the kernel tier's blocked primitive.
            for lo, hi in _group_boundaries(ka):
                a, partners = ka[lo], kb[lo:hi]
                sa, ea = q_start[a], q_stop[a]
                data = self._gather_blocks(partners)
                data_idx = (
                    d_indices[d_start[partners[0]] : d_stop[partners[0]]]
                    if partners.size == 1
                    else np.concatenate(
                        [d_indices[d_start[b] : d_stop[b]] for b in partners]
                    )
                )
                d_sq = self._kernel.pair_distances_sq(
                    qt.points_ordered[sa:ea], data
                )
                bound = r_sq_pos[sa:ea, None]
                hits = d_sq < bound if strict else d_sq <= bound
                self.counter.add(
                    "distance_calcs", float(ea - sa) * float(data.shape[0])
                )
                rows, cols = np.nonzero(hits)
                if rows.size:
                    hit_q.append(sa + rows.astype(np.intp))
                    hit_p.append(data_idx[cols])

        if strict:
            is_excluded = lambda a_nodes, min_sq: min_sq >= rmax[a_nodes]
            is_included = lambda a_nodes, max_sq: max_sq < rmin[a_nodes]
        else:
            is_excluded = lambda a_nodes, min_sq: min_sq > rmax[a_nodes]
            is_included = lambda a_nodes, max_sq: max_sq <= rmin[a_nodes]
        self._dual_vs_traverse(qt, is_excluded, is_included, on_included, on_kernel_groups)

        results: list[np.ndarray] = [np.empty(0, dtype=np.intp) for _ in range(n_q)]
        if not hit_q:
            return results
        all_q = np.concatenate(hit_q)
        all_p = np.concatenate(hit_p)
        order = np.argsort(all_q, kind="stable")
        all_q = all_q[order]
        all_p = all_p[order]
        boundaries = np.searchsorted(all_q, np.arange(n_q + 1))
        q_indices = qt._indices
        for position in range(n_q):
            lo, hi = boundaries[position], boundaries[position + 1]
            if hi > lo:
                results[q_indices[position]] = np.sort(all_p[lo:hi])
        return results

    # ------------------------------------------- dual nearest-denser queries
    #
    # The dependency phase of every DPC variant asks, for each query point,
    # for the *nearest point with strictly higher local density*.  The
    # methods below answer that as one bulk join -- a simultaneous traversal
    # of a query tree against this tree carrying (a) a per-query
    # best-distance bound that tightens as candidates are found and (b) the
    # per-node density maxima attached by attach_density_bounds, so a node
    # pair prunes either because its boxes are farther apart than every
    # contained query's current bound or because the data subtree holds no
    # point denser than any contained query.
    #
    # Contract (shared with every other nearest-denser code path in the
    # library): candidates are compared by lexicographic (squared distance,
    # point index), squared distances use the canonical sequential kernel
    # arithmetic, and everything is computed in float64 regardless of
    # the tree's storage dtype -- so the scalar, batch and dual dependency
    # engines agree bit for bit even on duplicate-heavy data.

    @property
    def _pruning_ordered(self) -> np.ndarray:
        """Float64 leaf-ordered points of the nearest-denser join.

        Identical to :attr:`points_ordered` for float64 trees; float32 trees
        get a separate float64 copy gathered from :attr:`source_points`, so
        the dependency phase always runs in full precision (matching the
        scalar engine) while densities keep the storage precision.
        """
        if self._dtype == np.float64:
            return self.points_ordered
        if self._ordered64_cache is None:
            self._ordered64_cache = np.ascontiguousarray(
                self._source_points[self._indices]
            )
        return self._ordered64_cache

    @property
    def _pruning_bbox(self) -> tuple[np.ndarray, np.ndarray]:
        """Float64 per-node bounding boxes enclosing the float64 coordinates.

        The stored float32 boxes of a float32 tree bound the *rounded*
        coordinates and may exclude the float64 originals by an ulp, which
        would make the join's box-distance pruning unsound; this recomputes
        genuine float64 boxes once per tree when needed.
        """
        if self._dtype == np.float64:
            return self._bbox_min_arr, self._bbox_max_arr
        if self._bbox64_cache is None:
            ordered = self._pruning_ordered
            n_nodes = self.node_count
            bbox_min = np.empty((n_nodes, self._dim), dtype=np.float64)
            bbox_max = np.empty((n_nodes, self._dim), dtype=np.float64)
            left, right = self._left_arr, self._right_arr
            start, stop = self._start_arr, self._stop_arr
            for node in range(n_nodes - 1, -1, -1):
                child = left[node]
                if child == _NO_CHILD:
                    block = ordered[start[node] : stop[node]]
                    bbox_min[node] = block.min(axis=0)
                    bbox_max[node] = block.max(axis=0)
                else:
                    other = right[node]
                    np.minimum(bbox_min[child], bbox_min[other], out=bbox_min[node])
                    np.maximum(bbox_max[child], bbox_max[other], out=bbox_max[node])
            self._bbox64_cache = (bbox_min, bbox_max)
        return self._bbox64_cache

    def _node_reduce_positions(self, values_pos: np.ndarray, minimum: bool) -> np.ndarray:
        """Per-node min/max of a position-space value array (reverse sweep)."""
        n_nodes = self.node_count
        out = np.empty(n_nodes, dtype=np.float64)
        left, right = self._left_arr, self._right_arr
        start, stop = self._start_arr, self._stop_arr
        for node in range(n_nodes - 1, -1, -1):
            child = left[node]
            if child == _NO_CHILD:
                block = values_pos[start[node] : stop[node]]
                out[node] = block.min() if minimum else block.max()
            else:
                other = right[node]
                out[node] = (
                    min(out[child], out[other])
                    if minimum
                    else max(out[child], out[other])
                )
        return out

    def attach_density_bounds(self, rho, *, node_max: np.ndarray | None = None) -> np.ndarray:
        """Attach per-node maxima of a per-point density array (caller order).

        Computes (or adopts, when ``node_max`` comes from a trusted snapshot)
        the per-node maximum of ``rho`` over each node's point slice, stores
        it as :attr:`KDTreeArrays.rho_max` so snapshots carry it, and primes
        the cache :meth:`nn_dual_vs` reads.  Returns the per-node maxima.
        """
        source = rho
        rho = np.ascontiguousarray(rho, dtype=np.float64).reshape(-1)
        if rho.shape[0] != self._n:
            raise ValueError("rho must hold one density per indexed point")
        rho_pos = np.ascontiguousarray(rho[self._indices])
        if node_max is None:
            node_max = self._node_reduce_positions(rho_pos, minimum=False)
        else:
            node_max = np.ascontiguousarray(node_max, dtype=np.float64).reshape(-1)
            if node_max.shape[0] != self.node_count:
                raise ValueError("node_max must hold one value per node")
        self._arrays = replace(self._arrays, rho_max=node_max)
        # Key the cache on the object the caller passed (result.rho_), so
        # later joins against the same array hit it without recomputation.
        self._density_cache = (source, rho_pos, node_max)
        return node_max

    def _density_bounds(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(rho_pos, node_max)`` for a caller-order density array (cached)."""
        cached = self._density_cache
        if cached is not None and cached[0] is rho:
            return cached[1], cached[2]
        rho_pos = np.ascontiguousarray(rho[self._indices])
        node_max = self._node_reduce_positions(rho_pos, minimum=False)
        self._density_cache = (rho, rho_pos, node_max)
        return rho_pos, node_max

    def _query_density_bounds(self, rho_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(rho_q_pos, node_min)`` for a query-side density array (cached).

        The chunked join calls :meth:`nn_dual_vs` once per frontier slice
        with the same ``rho_q`` object; caching by identity avoids redoing
        the position gather and the pure-Python per-node reverse sweep per
        chunk.
        """
        cached = self._q_density_cache
        if cached is not None and cached[0] is rho_q:
            return cached[1], cached[2]
        rho_q_pos = np.ascontiguousarray(rho_q[self._indices])
        node_min = self._node_reduce_positions(rho_q_pos, minimum=True)
        self._q_density_cache = (rho_q, rho_q_pos, node_min)
        return rho_q_pos, node_min

    def node_frontier(self, target_nodes: int = DUAL_FRONTIER_TARGET) -> np.ndarray:
        """Expand the tree into ~``target_nodes`` disjoint subtree roots.

        The expansion is purely structural (largest node first, ties by
        insertion order) and therefore deterministic: it is the canonical
        work-unit decomposition of the nearest-denser join, shared by every
        execution backend so results and work counters stay bit-for-bit
        identical across backends and worker counts.  The returned node ids
        are sorted ascending and their point slices partition the tree.
        """
        target_nodes = check_positive_int(target_nodes, "target_nodes")
        start, stop = self._start_arr, self._stop_arr
        left, right = self._left_arr, self._right_arr
        terminal = self._terminal
        seq = 0
        heap: list[tuple[int, int, int]] = [
            (-int(stop[self._root] - start[self._root]), seq, self._root)
        ]
        done: list[int] = []
        while heap and len(heap) + len(done) < target_nodes:
            _, _, node = heapq.heappop(heap)
            if terminal[node]:
                done.append(node)
                continue
            for child in (int(left[node]), int(right[node])):
                seq += 1
                heapq.heappush(
                    heap, (-int(stop[child] - start[child]), seq, child)
                )
        nodes = done + [node for _, _, node in heap]
        nodes.sort()
        return np.asarray(nodes, dtype=np.intp)

    def node_positions(self, nodes) -> np.ndarray:
        """Caller-order point indices covered by the given nodes' slices."""
        nodes = np.asarray(nodes, dtype=np.intp).reshape(-1)
        if nodes.size == 0:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(
            [
                self._indices[self._start_arr[node] : self._stop_arr[node]]
                for node in nodes
            ]
        )

    def _nn_merge_groups(
        self,
        qt: "KDTree",
        q_pos: np.ndarray,
        q_lens: np.ndarray,
        d_pos: np.ndarray,
        d_lens: np.ndarray,
        rho_pos: np.ndarray,
        rho_q_pos: np.ndarray,
        best_sq: np.ndarray,
        best_idx: np.ndarray,
    ) -> None:
        """Mega-batched nearest-denser candidate kernels.

        ``q_pos`` / ``d_pos`` concatenate the query-tree / data-tree
        positions of all groups; group ``g`` owns the next ``q_lens[g]``
        queries and ``d_lens[g]`` candidates.  Groups are padded into shared
        ``(g, q, d)`` x ``(g, j, d)`` block shapes (padded queries carry
        ``rho == +inf``, padded candidates ``rho == -inf`` and sentinel
        indices, so neither side can ever be selected) and answered by the
        kernel tier's ``nn_blocks``, one call per budgeted chunk.
        Candidates fold into the running best arrays by lexicographic
        (squared distance, data point index), so the outcome is independent
        of grouping, chunking and arrival order.  The groups' query position
        sets must be pairwise disjoint (distinct query nodes, or routing
        that sends each query to exactly one region), which makes the
        fancy-index merge race-free.
        """
        q_lens = np.asarray(q_lens, dtype=np.intp)
        d_lens = np.asarray(d_lens, dtype=np.intp)
        # Logical (unpadded) pair count; exact because every addend is an
        # integer well below 2**53.
        self.counter.add(
            "distance_calcs",
            float(np.dot(q_lens.astype(np.float64), d_lens.astype(np.float64))),
        )
        q_ordered = qt._pruning_ordered
        d_ordered = self._pruning_ordered
        d_indices = self._indices
        dim = self._dim
        kernel_tier = self._kernel

        # Width-sorted groups pad tightly; the offsets address each group's
        # slice of the concatenated position arrays.
        q_off = np.cumsum(q_lens) - q_lens
        d_off = np.cumsum(d_lens) - d_lens
        g_order = np.argsort(d_lens, kind="stable")
        q_lens, d_lens = q_lens[g_order], d_lens[g_order]
        q_off, d_off = q_off[g_order], d_off[g_order]

        for pos, end, q_pad, w_pad in _iter_padded_chunks(
            kernel_tier.block_budget, dim, q_lens, d_lens
        ):
            rows = end - pos
            dest_q, src_q = _ragged_copy_indices(
                np.arange(rows, dtype=np.intp) * q_pad, q_off[pos:end], q_lens[pos:end]
            )
            q_sel = q_pos[src_q]
            q_block = np.full((rows * q_pad, dim), np.inf, dtype=np.float64)
            q_block[dest_q] = q_ordered[q_sel]
            rho_q_block = np.full(rows * q_pad, np.inf, dtype=np.float64)
            rho_q_block[dest_q] = rho_q_pos[q_sel]

            dest_d, src_d = _ragged_copy_indices(
                np.arange(rows, dtype=np.intp) * w_pad, d_off[pos:end], d_lens[pos:end]
            )
            d_sel = d_pos[src_d]
            d_block = np.full((rows * w_pad, dim), np.inf, dtype=np.float64)
            d_block[dest_d] = d_ordered[d_sel]
            rho_d_block = np.full(rows * w_pad, -np.inf, dtype=np.float64)
            rho_d_block[dest_d] = rho_pos[d_sel]
            idx_block = np.full(rows * w_pad, np.iinfo(np.intp).max, dtype=np.intp)
            idx_block[dest_d] = d_indices[d_sel]

            cand_sq, cand_idx = kernel_tier.nn_blocks(
                q_block.reshape(rows, q_pad, dim),
                rho_q_block.reshape(rows, q_pad),
                d_block.reshape(rows, w_pad, dim),
                rho_d_block.reshape(rows, w_pad),
                idx_block.reshape(rows, w_pad),
            )
            cand_sq = cand_sq.reshape(rows * q_pad)[dest_q]
            cand_idx = cand_idx.reshape(rows * q_pad)[dest_q]
            cur_sq = best_sq[q_sel]
            cur_idx = best_idx[q_sel]
            # cand_idx is unspecified where cand_sq == inf, so mask on
            # finiteness before the lexicographic comparison.
            better = np.isfinite(cand_sq) & (
                (cand_sq < cur_sq) | ((cand_sq == cur_sq) & (cand_idx < cur_idx))
            )
            hit = np.flatnonzero(better)
            if hit.size:
                best_sq[q_sel[hit]] = cand_sq[hit]
                best_idx[q_sel[hit]] = cand_idx[hit]

    def _nn_seed_level(
        self,
        qt: "KDTree",
        qpos: np.ndarray,
        max_size: int,
        rho_pos: np.ndarray,
        rho_q_pos: np.ndarray,
        best_sq: np.ndarray,
        best_idx: np.ndarray,
    ) -> None:
        """One seeding-pyramid level: join queries against their home region.

        Routes each query (given by query-tree position) down *this* tree to
        the smallest ancestor region of at most ``max_size`` points (or a
        leaf); every terminal region becomes one kernel group of a single
        mega-batched :meth:`_nn_merge_groups` call (each query reaches
        exactly one region per level, so the groups' query sets are
        disjoint).  Routing compares against the storage-dtype split values,
        which only decides *which* region seeds the query -- the merged
        distances are always the canonical float64 values.
        """
        q_ordered = qt._pruning_ordered
        start, stop = self._start_arr, self._stop_arr
        left, right = self._left_arr, self._right_arr
        q_groups: list[np.ndarray] = []
        region_lo: list[int] = []
        region_len: list[int] = []
        stack: list[tuple[int, np.ndarray]] = [(self._root, qpos)]
        while stack:
            node, sub = stack.pop()
            if left[node] == _NO_CHILD or stop[node] - start[node] <= max_size:
                q_groups.append(sub)
                region_lo.append(int(start[node]))
                region_len.append(int(stop[node] - start[node]))
                continue
            dim = self._split_dim_arr[node]
            diff = q_ordered[sub, dim] - np.float64(self._split_val_arr[node])
            on_left = diff < 0.0
            if on_left.any():
                stack.append((int(left[node]), sub[on_left]))
            if not on_left.all():
                stack.append((int(right[node]), sub[~on_left]))
        d_lens = np.asarray(region_len, dtype=np.intp)
        self._nn_merge_groups(
            qt,
            np.concatenate(q_groups),
            np.asarray([g.size for g in q_groups], dtype=np.intp),
            _concat_ranges(np.asarray(region_lo, dtype=np.intp), d_lens),
            d_lens,
            rho_pos,
            rho_q_pos,
            best_sq,
            best_idx,
        )

    def nn_dual_vs(
        self,
        queries_tree: "KDTree",
        rho,
        rho_q,
        *,
        q_nodes=None,
        seed_idx=None,
        seed_sq=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nearest strictly-denser point of this tree for every query point.

        Parameters
        ----------
        queries_tree:
            :class:`KDTree` over the query points (may be this tree itself:
            the self-join of the fit dependency phase).
        rho:
            Per-data-point densities in this tree's caller point order.
        rho_q:
            Per-query densities in the query tree's caller point order.  A
            data point is a candidate for a query iff its density is
            *strictly* larger, which also makes every point ineligible as
            its own dependent point in the self-join.
        q_nodes:
            Optional query-tree node ids restricting the join to the queries
            covered by those subtrees (the work units of
            :meth:`node_frontier`).  Uncovered queries keep ``(-1, inf)``.
        seed_idx, seed_sq:
            Optional per-query initial best candidates (both or neither), in
            the query tree's caller point order: a data point index (``-1``
            for no seed) and its squared distance (``inf`` for no seed).
            Every seed MUST be a genuinely denser data point whose squared
            distance was computed with the canonical float64 kernel
            arithmetic; the merges are exact lexicographic comparisons, so
            valid seeds can only tighten the traversal's pruning bounds --
            the returned answers are bit-identical with or without them.
            Callers that track an out-of-date dependency forest (the
            re-cluster index) use this to turn the worst-case queries --
            sparse-region points whose nearest denser neighbour is far away
            -- into nearly-free bound checks.

        Returns
        -------
        tuple
            ``(indices, distances)`` in the query tree's caller point order;
            ``-1`` / ``inf`` for queries with no denser point.  Identical --
            bit for bit, including exact-tie resolution by smallest index --
            to a brute-force masked scan with the batch-kernel arithmetic.
        """
        qt = queries_tree
        if not isinstance(qt, KDTree):
            raise TypeError("nearest-denser joins require a KDTree over the queries")
        if qt._dim != self._dim:
            raise ValueError(
                f"query tree has dimension {qt._dim}, expected {self._dim}"
            )
        # Normalisation must hand conforming inputs through *unchanged* (the
        # per-call aggregate caches key on array identity).
        rho = _as_density_vector(rho, self._n, "rho")
        rho_q = _as_density_vector(rho_q, qt._n, "rho_q")

        n_q = qt._n
        if (seed_idx is None) != (seed_sq is None):
            raise ValueError("seed_idx and seed_sq must be provided together")
        if seed_idx is not None:
            seed_idx = np.asarray(seed_idx, dtype=np.intp)
            seed_sq = np.asarray(seed_sq, dtype=np.float64)
            if seed_idx.shape != (n_q,) or seed_sq.shape != (n_q,):
                raise ValueError("seeds must provide one entry per query point")
            # Caller order -> query position space (fancy indexing copies,
            # so the caller's arrays are never written to).
            best_idx = seed_idx[qt._indices]
            best_sq = seed_sq[qt._indices]
        else:
            best_idx = np.full(n_q, -1, dtype=np.intp)  # query position space
            best_sq = np.full(n_q, np.inf)
        if n_q == 0 or self._n == 0:
            return best_idx, best_sq.copy()

        rho_pos, node_rho_max = self._density_bounds(rho)
        rho_q_pos, q_node_rho_min = qt._query_density_bounds(rho_q)
        # Queries at least as dense as the densest data point have no
        # candidate anywhere; fixing them up front keeps their infinite
        # "bound" from poisoning the per-node pruning bounds.
        hopeless = rho_q_pos >= node_rho_max[self._root]

        if q_nodes is None:
            q_nodes = np.asarray([qt._root], dtype=np.intp)
        else:
            q_nodes = np.asarray(q_nodes, dtype=np.intp).reshape(-1)
        if q_nodes.size == 0:
            return self._nn_scatter(qt, best_idx, best_sq)

        q_start, q_stop = qt._start_arr, qt._stop_arr
        q_left, q_right = qt._left_arr, qt._right_arr
        d_left, d_right = self._left_arr, self._right_arr
        d_start, d_stop = self._start_arr, self._stop_arr

        covered = np.concatenate(
            [np.arange(q_start[a], q_stop[a], dtype=np.intp) for a in q_nodes]
        )

        # ---- seeding pyramid: route every covered query to progressively
        # larger home regions of *this* tree until it has found some denser
        # point (any candidate is a valid upper bound; the merges are exact
        # lex comparisons, so seeding can only tighten, never change, the
        # final answer).  Queries denser than their entire largest home
        # region are resolved exactly against the full point set -- their
        # count shrinks geometrically with the region size, and the points
        # stream past them in _NN_EXACT_CHUNK slices, so the transient block
        # stays bounded.  Every step is per-query deterministic, which
        # keeps results *and* work counters invariant under q_nodes chunking.
        needs = covered[~hopeless[covered]]
        if seed_idx is not None:
            # Externally seeded queries already hold a valid upper bound;
            # they skip the pyramid and go straight to the pruned traversal.
            needs = needs[best_idx[needs] < 0]
        for multiplier in _NN_SEED_LEVELS:
            if needs.size == 0:
                break
            self._nn_seed_level(
                qt, needs, _DUAL_BLOCK * multiplier, rho_pos, rho_q_pos,
                best_sq, best_idx,
            )
            needs = needs[best_idx[needs] < 0]
        if needs.size:
            for lo in range(0, self._n, _NN_EXACT_CHUNK):
                hi = min(lo + _NN_EXACT_CHUNK, self._n)
                self._nn_merge_groups(
                    qt,
                    needs,
                    np.asarray([needs.size], dtype=np.intp),
                    np.arange(lo, hi, dtype=np.intp),
                    np.asarray([hi - lo], dtype=np.intp),
                    rho_pos,
                    rho_q_pos,
                    best_sq,
                    best_idx,
                )

        # ---- simultaneous pair traversal.
        a_min, a_max = qt._pruning_bbox
        b_min, b_max = self._pruning_bbox
        q_terminal = qt._terminal
        d_terminal = self._terminal
        # Bound staging array in query position space.  Only the covered
        # positions are ever spanned by a live pair's node slice, so only
        # they need refreshing per wavefront -- the rest stay at the -inf
        # initialisation (O(covered) per iteration, not O(n_q), which
        # matters when one chunked call covers a small frontier slice).
        eff_pad = np.full(n_q + 1, -np.inf, dtype=np.float64)
        not_hopeless_cov = covered[~hopeless[covered]]
        a_nodes = q_nodes.copy()
        b_nodes = np.full(q_nodes.size, self._root, dtype=np.intp)
        while a_nodes.size:
            # Per-pair minimum squared box distance (float64 boxes).
            gap = np.maximum(
                b_min[b_nodes] - a_max[a_nodes], a_min[a_nodes] - b_max[b_nodes]
            )
            np.maximum(gap, 0.0, out=gap)
            min_sq = squared_norms(gap)

            # Per-query-node pruning bound: the largest current best squared
            # distance of any contained, non-hopeless query.  Non-strict
            # comparison keeps exact-distance ties reachable so the
            # smallest-index tie-break is traversal-order independent.
            eff_pad[not_hopeless_cov] = best_sq[not_hopeless_cov]
            unique_a, inverse = np.unique(a_nodes, return_inverse=True)
            edges = np.stack([q_start[unique_a], q_stop[unique_a]], axis=1).ravel()
            bound = np.maximum.reduceat(eff_pad, edges)[::2][inverse]

            pruned = (min_sq > bound) | (
                node_rho_max[b_nodes] <= q_node_rho_min[a_nodes]
            )
            live = ~pruned
            kernel = live & q_terminal[a_nodes] & d_terminal[b_nodes]
            if kernel.any():
                # One mega-batched merge for the whole wavefront: the pruning
                # bound above was computed before any of these kernels, and
                # groups (distinct query nodes) touch disjoint query position
                # slices, so batching cannot change any result bit.
                ka = a_nodes[kernel]
                kb = b_nodes[kernel]
                order = np.lexsort((kb, ka))
                ka, kb = ka[order], kb[order]
                group_first = np.flatnonzero(np.r_[True, ka[1:] != ka[:-1]])
                groups_a = ka[group_first]
                d_run_len = d_stop[kb] - d_start[kb]
                q_lens = q_stop[groups_a] - q_start[groups_a]
                self._nn_merge_groups(
                    qt,
                    _concat_ranges(q_start[groups_a], q_lens),
                    q_lens,
                    _concat_ranges(d_start[kb], d_run_len),
                    np.add.reduceat(d_run_len, group_first),
                    rho_pos,
                    rho_q_pos,
                    best_sq,
                    best_idx,
                )
            descend = live & ~kernel
            if not descend.any():
                break
            off_a, off_b = a_nodes[descend], b_nodes[descend]
            size_a = q_stop[off_a] - q_start[off_a]
            size_b = d_stop[off_b] - d_start[off_b]
            go_b = q_terminal[off_a] | (~d_terminal[off_b] & (size_b > size_a))
            ba, bb = off_a[go_b], off_b[go_b]
            aa, ab = off_a[~go_b], off_b[~go_b]
            a_nodes = np.concatenate([ba, ba, q_left[aa], q_right[aa]])
            b_nodes = np.concatenate([d_left[bb], d_right[bb], ab, ab])

        return self._nn_scatter(qt, best_idx, best_sq)

    @staticmethod
    def _nn_scatter(
        qt: "KDTree", best_idx: np.ndarray, best_sq: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Inverse-permute position-space results to query caller order."""
        out_idx = np.empty_like(best_idx)
        out_sq = np.empty_like(best_sq)
        out_idx[qt._indices] = best_idx
        out_sq[qt._indices] = best_sq
        return out_idx, np.sqrt(out_sq)

    def range_nn_dual(self, rho, *, q_nodes=None) -> tuple[np.ndarray, np.ndarray]:
        """Nearest-denser *self*-join: every indexed point queries this tree.

        One simultaneous traversal of the tree against itself replaces the
        ``n`` per-point nearest-denser searches of the dependency phase;
        strict density comparison makes every point ineligible as its own
        dependent point, so no explicit self-exclusion is needed.  Returns
        ``(indices, distances)`` in caller point order (``-1`` / ``inf`` for
        the globally densest point).
        """
        return self.nn_dual_vs(self, rho, rho, q_nodes=q_nodes)


class _IncNode:
    """A node of the pointer-based incremental kd-tree."""

    __slots__ = ("index", "axis", "left", "right")

    def __init__(self, index: int, axis: int):
        self.index = index
        self.axis = axis
        self.left: Optional["_IncNode"] = None
        self.right: Optional["_IncNode"] = None


class IncrementalKDTree:
    """Pointer-based kd-tree supporting one-point-at-a-time insertion.

    Ex-DPC builds this tree incrementally in descending order of local
    density: when the dependent point of ``p_i`` is requested, the tree
    contains exactly the points with higher density than ``rho_i``, so a plain
    nearest-neighbour query yields the exact dependent point (§3).

    The tree cycles the split axis with depth (the classic Bentley insertion
    scheme).  Insertion order in Ex-DPC is essentially random with respect to
    the coordinates, so the expected depth stays ``O(log n)``.

    Two storage modes are supported:

    * **static** (``points`` given): the classic Ex-DPC mode -- the full point
      matrix exists up front and :meth:`insert` adds rows by index;
    * **dynamic** (``points=None, dim=d``): the tree owns a growable matrix
      and :meth:`append` adds brand-new points one at a time.  This is the
      *hot buffer* of the streaming layer (:mod:`repro.stream`): freshly
      ingested points are appended here between the amortized rebuilds of the
      static :class:`KDTree`.
    """

    def __init__(
        self,
        points=None,
        dim: int | None = None,
        counter: WorkCounter | None = None,
    ):
        if points is None:
            if dim is None:
                raise ValueError("dim is required when no point matrix is given")
            self._dim = check_positive_int(dim, "dim")
            self._store = np.empty((0, self._dim), dtype=np.float64)
            self._n_rows = 0
            self._dynamic = True
        else:
            self._store = check_points(points, name="points")
            self._dim = self._store.shape[1] if dim is None else int(dim)
            if self._dim != self._store.shape[1]:
                raise ValueError("dim does not match the point matrix width")
            self._n_rows = self._store.shape[0]
            self._dynamic = False
        self._root: Optional[_IncNode] = None
        self._size = 0
        #: Work counter accumulating distance evaluations of nearest-neighbour
        #: queries (one per visited node).
        self.counter = counter if counter is not None else WorkCounter()

    @property
    def size(self) -> int:
        """Number of points currently inserted."""
        return self._size

    @property
    def points(self) -> np.ndarray:
        """The rows addressable by :meth:`insert` (a read-only style view)."""
        return self._store[: self._n_rows]

    def append(self, point) -> int:
        """Add a brand-new point (dynamic mode) and return its index.

        Only available on trees created without a point matrix
        (``IncrementalKDTree(dim=d)``); the backing storage grows
        geometrically, so a long run of appends is amortized ``O(1)`` per
        point on top of the ``O(depth)`` tree insertion.
        """
        if not self._dynamic:
            raise RuntimeError(
                "append() requires a dynamic tree; construct with "
                "IncrementalKDTree(dim=...) instead of a point matrix"
            )
        point = np.asarray(point, dtype=np.float64).reshape(-1)
        if point.shape[0] != self._dim:
            raise ValueError(
                f"point has dimension {point.shape[0]}, expected {self._dim}"
            )
        if not np.isfinite(point).all():
            raise ValueError("point contains NaN or infinite coordinates")
        if self._n_rows == self._store.shape[0]:
            capacity = max(8, 2 * self._store.shape[0])
            store = np.empty((capacity, self._dim), dtype=np.float64)
            store[: self._n_rows] = self._store[: self._n_rows]
            self._store = store
        index = self._n_rows
        self._store[index] = point
        self._n_rows += 1
        self.insert(index)
        return index

    def insert(self, index: int) -> None:
        """Insert the point ``self.points[index]`` into the tree."""
        index = int(index)
        if not 0 <= index < self._n_rows:
            raise IndexError(f"point index {index} out of range")
        point = self._store[index]
        if self._root is None:
            self._root = _IncNode(index=index, axis=0)
            self._size = 1
            return
        node = self._root
        while True:
            axis = node.axis
            if point[axis] < self._store[node.index, axis]:
                if node.left is None:
                    node.left = _IncNode(index=index, axis=(axis + 1) % self._dim)
                    break
                node = node.left
            else:
                if node.right is None:
                    node.right = _IncNode(index=index, axis=(axis + 1) % self._dim)
                    break
                node = node.right
        self._size += 1

    def nearest_neighbor(self, query) -> tuple[int, float]:
        """Return ``(index, distance)`` of the nearest inserted point to ``query``.

        Returns ``(-1, inf)`` when the tree is empty.  Exact distance ties
        resolve to the smallest point index and per-pair squared distances
        use the same canonical sequential arithmetic as the batch and dual
        kernels (see :func:`repro.utils.distance.point_to_points_sq`),
        so Ex-DPC's incremental dependency phase agrees bit for bit with the
        unified nearest-denser join of the other engines.
        """
        if self._root is None:
            return -1, np.inf
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if query.shape[0] != self._dim:
            raise ValueError(
                f"query has dimension {query.shape[0]}, expected {self._dim}"
            )

        best_idx = -1
        best_sq = np.inf
        points = self._store
        counter = self.counter
        # The non-strict pruning comparison keeps equal-distance candidates
        # reachable, which makes the smallest-index tie-break independent of
        # traversal (insertion) order.
        stack: list[tuple[_IncNode, float]] = [(self._root, 0.0)]
        while stack:
            node, plane_sq = stack.pop()
            if plane_sq > best_sq:
                continue
            counter.add("distance_calcs", 1)
            coords = points[node.index]
            d_sq = float(point_to_points_sq(query, coords[None, :])[0])
            if d_sq < best_sq or (d_sq == best_sq and node.index < best_idx):
                best_sq = d_sq
                best_idx = node.index
            axis = node.axis
            diff = query[axis] - coords[axis]
            near, far = (node.left, node.right) if diff < 0.0 else (node.right, node.left)
            if far is not None:
                stack.append((far, diff * diff))
            if near is not None:
                stack.append((near, 0.0))
        return best_idx, float(np.sqrt(best_sq))

    def range_search(self, query, radius: float, strict: bool = True) -> np.ndarray:
        """Return the indices of inserted points within ``radius`` of ``query``.

        ``strict=True`` (the default, matching Definition 1 of the paper)
        reports points with ``dist < radius``; otherwise ``dist <= radius``.
        Results are sorted in ascending index order.  An empty tree returns an
        empty array.
        """
        radius = check_positive(radius, "radius")
        if self._root is None:
            return np.empty(0, dtype=np.intp)
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if query.shape[0] != self._dim:
            raise ValueError(
                f"query has dimension {query.shape[0]}, expected {self._dim}"
            )
        radius_sq = radius * radius

        hits: list[int] = []
        points = self._store
        counter = self.counter
        stack: list[_IncNode] = [self._root]
        while stack:
            node = stack.pop()
            counter.add("distance_calcs", 1)
            coords = points[node.index]
            # Same per-pair arithmetic as the static tree's kernels so a
            # boundary point counts identically in both indexes (the
            # streaming layer's density repair relies on this).
            d_sq = float(point_to_points_sq(query, coords[None, :])[0])
            if (d_sq < radius_sq) if strict else (d_sq <= radius_sq):
                hits.append(node.index)
            axis = node.axis
            diff = query[axis] - coords[axis]
            near, far = (node.left, node.right) if diff < 0.0 else (node.right, node.left)
            if near is not None:
                stack.append(near)
            if far is not None and diff * diff <= radius_sq:
                stack.append(far)
        return np.asarray(sorted(hits), dtype=np.intp)

    def range_count(self, query, radius: float, strict: bool = True) -> int:
        """Return the number of inserted points within ``radius`` of ``query``."""
        return int(self.range_search(query, radius, strict=strict).size)
