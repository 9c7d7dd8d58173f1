"""Re-cluster-at-any-parameter index with exact threshold semantics.

The paper's workflow is interactive: an analyst tours the decision graph
(Figures 1 and 8) moving ``d_cut``, ``rho_min`` and ``delta_min`` until the
clustering looks right.  A naive tour refits from scratch at every move.
Following the shape of FINEX (SIGMOD '23) -- persist enough per-point
structure at fit time that any later parameter choice is a lookup plus a
relabel, not a recomputation -- :class:`ReclusterIndex` makes the tour a
sub-second loop over one fitted Ex-DPC model while keeping the *exact*
semantics of a cold fit:

* **Density profiles.**  At build time the fitted kd-tree extracts, per
  point, the sorted squared distances of every neighbor strictly within a
  configurable ``d_cut_max``
  (:meth:`repro.index.kdtree.KDTree.range_profile_batch`, the same hit
  predicate and arithmetic as the fit-time density engines).  The local
  density at any ``d_cut <= d_cut_max`` is then one vectorised binary search
  per point over the profile matrix -- no tree traversal.
* **Count-first build.**  A strict self-count at ``d_cut_max`` (the fit's
  density kernels) gives every row's length up front, so the CSR offsets
  are known and the final arrays are allocated once.  One chunk kernel
  (:func:`repro.parallel.backends.kernel_range_profile`, on every backend)
  then writes the rows straight into them, in blocks of consecutive
  kd-tree positions, each row sorted on its own
  (:func:`write_profile_rows`): no sort ever spans the whole profile, and
  the build's transient memory stays a small fraction of the index.
* **Jitter replay.**  The fit's density tie-break jitter is kept (and
  snapshotted), so the tie-broken densities at a new ``d_cut`` are
  ``new_counts + same_jitter`` -- bit-identical to what a cold fit at that
  ``d_cut`` would draw from the same seed.
* **Forest repair from the profiles.**  The fitted dependency forest
  (``dependent_raw_``, ``delta_``) is kept, and repaired only where the
  density *order* changed: each profile row also stores its neighbors in
  the dependency join's float64 lexicographic ``(squared distance, index)``
  order, so a point's exact new dependent is simply the first row entry
  that is denser under the new densities -- one vectorised sweep over the
  profile entries, no tree traversal.  Only points whose nearest denser
  point may lie beyond ``d_cut_max`` (no denser profile entry, or a resolved
  pair inside the float32 boundary margin, see below) fall back to the real
  join (:func:`repro.core.dependency_join.nearest_denser_join`) -- typically
  a fraction of a percent of the data.
* **O(n) relabel.**  Any ``(rho_min, delta_min)`` / ``n_clusters``
  decision-graph cut reuses :func:`repro.core.assignment.assign_clusters`
  over the repaired forest: pure O(n), no distance computation at all.

Exactness argument for the profile repair: the join defines ``dependent(i)``
as the lexicographic minimum of ``(float64 squared distance, index)`` over
all points denser than ``i``.  If any profile entry of row ``i`` is denser,
the global lex-minimum lies at most that far away; the row contains *every*
point within ``d_cut_max``, so the first denser entry in the row's lex order
is the global answer, and its delta is the same ``sqrt`` of the same float64
squared distance the join would produce.  One caveat guards float32 trees:
profile membership is decided in *storage* arithmetic (that is what makes
the density counts exact), so a point whose float32 distance rounds to just
above the cap could in principle be missing from the row while its float64
distance sorts just below a resolved entry near the cap.  The index
therefore computes a rigorous safety bound ``safe_sq64`` from the data's
coordinate magnitudes (worst-case float32 representation-plus-arithmetic
error): any resolved pair with float64 squared distance below ``safe_sq64``
is provably unaffected by the boundary, anything at or beyond it is re-run
through the join.  On float64 trees storage and join arithmetic coincide and
the margin is zero.

Memory: the profiles cost ``O(sum_i rho_i(d_cut_max))`` entries (one squared
distance in the tree's storage dtype plus one index each); the build peaks
at about 1.2--1.4x the finished index.  See ``docs/recluster.md`` for the
cost model versus ``d_cut_max``.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.core.assignment import assign_clusters
from repro.core.dependency_join import nearest_denser_join
from repro.core.ex_dpc import strict_self_counts
from repro.core.result import DPCResult, canonical_rho_raw
from repro.index.kdtree import (
    _block_pair_distances_sq,
    _concat_ranges,
    _row_lex_order,
    adaptive_dual_frontier,
)
from repro.kernels import squared_norms
from repro.parallel.backends import TaskBuilder, kernel_range_profile
from repro.parallel.executor import ParallelExecutor
from repro.utils.counters import WorkCounter
from repro.utils.rng import draw_tiebreak_jitter, ensure_rng
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "DEFAULT_D_CUT_MAX_FACTOR",
    "ReclusterIndex",
    "resolve_tiebreak_jitter",
    "write_profile_rows",
]

#: Default profile cap: ``d_cut_max = factor * fitted d_cut``.  Doubling the
#: cutoff roughly quadruples the profile size on 2-D data (entries grow with
#: the d_cut_max-ball volume) while covering every plausible tour move.
DEFAULT_D_CUT_MAX_FACTOR = 2.0

#: Floor on profile row length: rows with fewer neighbors inside
#: ``d_cut_max`` (sparse-region points) are augmented to their
#: ``MIN_PROFILE_SIZE`` nearest neighbors at build time.  Without the floor,
#: exactly those rows dominate the repair cost -- a sparse point's nearest
#: denser neighbor usually lies beyond ``d_cut_max``, forcing the expensive
#: join fallback on every recluster.
MIN_PROFILE_SIZE = 64

#: Number of leading join-order entries per row scanned by the dense prefix
#: tier of the repair sweep.  Almost every point's first denser neighbor sits
#: among its nearest handful of neighbors, so a small prefix resolves most
#: rows at ``O(n * width)`` cost regardless of how dense the full profiles
#: are; the few unresolved rows fall through to an exact scan of their tails.
_SWEEP_PREFIX_WIDTH = 16

#: Rows per block of the profile build.  A block is a run of consecutive
#: kd-tree positions, so its queries share most of their tree path, and its
#: hit lists -- the build's only per-entry transients -- stay small.
_PROFILE_BLOCK = 256

#: Unit roundoff of float32 (the only non-float64 storage dtype).
_F32_EPS = float(np.finfo(np.float32).eps)


def _float32_coverage_sq(dim: int, coord_mag: float, r_sq64):
    """Float64 squared radius provably covered by a float32-decided member set.

    Row membership is decided in *storage* arithmetic (float32 squared
    distance against a float32 threshold ``r_sq64``-rounded); the join order
    is float64.  A pair whose float64 squared distance lies below the
    returned bound is guaranteed to be a member: the worst-case discrepancy
    between the two computations is dominated by the float32 rounding of the
    coordinates themselves (``2 * M * eps`` per coordinate difference, ``M``
    the largest absolute coordinate -- cancellation makes this the dominant
    term) plus the arithmetic rounding of the ``dim``-term square-sum.  The
    margin doubles that bound, so the guarantee holds with slack.  Works
    element-wise on an array of thresholds.
    """
    r = np.sqrt(r_sq64)
    margin = 2.0 * (
        2.0 * dim * r * (2.0 * coord_mag * _F32_EPS)
        + (dim + 2.0) * _F32_EPS * r_sq64
    )
    return r_sq64 - margin


def resolve_tiebreak_jitter(model) -> np.ndarray:
    """Return the density tie-break jitter of a fitted model, verifying it.

    Fresh fits stash the jitter on the estimator; models restored from
    pre-profile snapshots regenerate it from the integer seed (the jitter is
    the first draw of the fit's generator, see
    :func:`repro.utils.rng.draw_tiebreak_jitter`).  Either way the jitter is
    verified against the fitted densities -- ``rho_raw_ + jitter`` must equal
    ``rho_`` bit for bit -- because a wrong jitter would silently break the
    bit-identity contract of every later recluster.
    """
    result = model.check_is_fitted()
    jitter = getattr(model, "_tiebreak_jitter_", None)
    if jitter is None:
        seed = getattr(model, "seed", None)
        if seed is None or isinstance(seed, np.random.Generator):
            raise ValueError(
                "cannot recover the density tie-break jitter: the model was "
                "fitted without an integer seed and the fit did not record "
                "the jitter (old snapshot?); refit with an integer seed"
            )
        jitter = draw_tiebreak_jitter(result.rho_.shape, ensure_rng(seed))
    jitter = np.asarray(jitter, dtype=np.float64)
    rho_raw = np.asarray(result.rho_raw_, dtype=np.float64)
    if not np.array_equal(rho_raw + jitter, np.asarray(result.rho_)):
        raise ValueError(
            "density tie-break jitter does not reproduce the fitted rho_ "
            "(rho_raw_ + jitter != rho_); the snapshot's seed or arrays are "
            "inconsistent -- refit before building a recluster index"
        )
    model._tiebreak_jitter_ = jitter
    return jitter


def _csr_count_less(values: np.ndarray, indptr: np.ndarray, bound) -> np.ndarray:
    """Per-row count of entries ``< bound`` in a row-sorted CSR value array.

    A vectorised lower-bound binary search: every row advances one bisection
    step per pass, so the loop runs ``O(log max_row_length)`` times over
    plain ``O(n)`` array ops.  Comparisons happen in the values' own dtype,
    matching the hit predicate of the fit-time density engines.
    """
    base = indptr[:-1].astype(np.int64)
    lo = base.copy()
    hi = indptr[1:].astype(np.int64)
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) >> 1
        probe = values[np.where(active, mid, 0)]
        go_right = active & (probe < bound)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
    return (lo - base).astype(np.int64)


def _pair_distances_sq64(
    points: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Float64 squared distances of explicit point pairs.

    Same canonical sequential accumulation as the dependency join's kernels
    (:func:`repro.utils.distance.point_to_points_sq` and the blocked leaf
    kernels), so the values -- and the deltas derived from them -- are
    bit-identical to the join's arithmetic.
    """
    diff = points[rows] - points[cols]
    return squared_norms(diff)


def _join_order(points, owners, lengths, ids) -> np.ndarray:
    """Row-major ``ids`` re-sorted per row by the join's float64 ``(d², index)``.

    ``owners[r]`` owns the ``lengths[r]`` consecutive entries of row ``r``.
    """
    row = np.repeat(np.arange(owners.shape[0]), lengths)
    d_sq64 = _pair_distances_sq64(points, owners[row], ids)
    return ids[_row_lex_order(row, d_sq64, ids)]


def write_profile_rows(
    tree, points, rows, arrays, *, d_cut_max, k, base_cov, coord_mag
) -> None:
    """Emit the profile rows ``rows`` straight into the index's CSR arrays.

    ``arrays`` holds the row ``profile.counts`` (strict counts at
    ``d_cut_max``) and ``profile.indptr``, and the outputs written in place:
    ``profile.values`` and ``profile.join_ids`` at each row's offsets and
    ``profile.coverage_sq`` per row.  Rows go in blocks of
    :data:`_PROFILE_BLOCK`, each sorted on its own -- never across blocks:

    * a row with at least ``k`` in-cap neighbors is its cap profile
      (:meth:`~repro.index.kdtree.KDTree.range_profile_batch`), with
      coverage ``base_cov``;
    * a shorter row holds the owner's ``k`` nearest neighbors instead.  The
      k-NN set is a superset of the cap ball (every in-cap point beats every
      out-of-cap point in the storage distance order the search uses), so
      density bisection sees every in-cap entry with identical bits, while
      the row's proven coverage grows to its k-th neighbor radius.  The
      squared distances are recomputed in storage arithmetic, bit-compatible
      with the cap rows.

    On float64 trees the storage order is the join order; float32 rows are
    re-sorted by the join's float64 ``(squared distance, index)`` too.
    """
    counts = arrays["profile.counts"]
    indptr = arrays["profile.indptr"]
    values = arrays["profile.values"]
    join_ids = arrays["profile.join_ids"]
    coverage_sq = arrays["profile.coverage_sq"]
    storage = tree.points
    storage64 = storage.dtype == np.float64
    for lo in range(0, rows.shape[0], _PROFILE_BLOCK):
        block = rows[lo : lo + _PROFILE_BLOCK]
        is_short = counts[block] < k
        full = block[~is_short]
        if full.size:
            vals, ids, row_ptr = tree.range_profile_batch(
                points[full], d_cut_max, strict=True
            )
            lengths = counts[full]
            if not np.array_equal(np.diff(row_ptr), lengths):
                raise RuntimeError(
                    "profile rows disagree with the strict counts at d_cut_max"
                )
            dest = _concat_ranges(indptr[full], lengths)
            values[dest] = vals
            join_ids[dest] = (
                ids if storage64 else _join_order(points, full, lengths, ids)
            )
            coverage_sq[full] = base_cov
        short = block[is_short]
        if short.size:
            knn_ids = tree.knn_batch(points[short], k)[0]
            vals = squared_norms(storage[short][:, None, :] - storage[knn_ids])
            order = np.lexsort((knn_ids, vals), axis=-1)
            vals = np.take_along_axis(vals, order, axis=-1)
            ids = np.take_along_axis(knn_ids, order, axis=-1).ravel()
            dest = (indptr[short][:, None] + np.arange(k)).ravel()
            values[dest] = vals.ravel()
            kth_sq64 = vals[:, -1].astype(np.float64)
            if storage64:
                join_ids[dest] = ids
            else:
                join_ids[dest] = _join_order(points, short, k, ids)
                kth_sq64 = _float32_coverage_sq(points.shape[1], coord_mag, kth_sq64)
            # The cap-based bound stays valid for the superset rows, so
            # coverage can only grow.
            coverage_sq[short] = np.maximum(base_cov, kth_sq64)


class ReclusterIndex:
    """Re-cluster a fitted Ex-DPC model at any parameters, exactly.

    Build one with :meth:`from_estimator` (or through the estimator's
    ``recluster_index()`` / ``recluster()`` convenience methods; snapshot
    restore rebuilds persisted indexes through :meth:`from_arrays`), then
    call :meth:`recluster` freely -- the index is read-only and one instance
    serves any number of parameter choices.

    Internal layout (all rows share ``indptr``):

    * ``values``: squared neighbor distances per row, ascending, in the
      kd-tree's storage dtype -- the density side.  A row holds every point
      strictly within ``d_cut_max`` of its owner; rows that would hold fewer
      than :data:`MIN_PROFILE_SIZE` entries are augmented to the owner's
      ``MIN_PROFILE_SIZE`` nearest neighbors instead (a superset -- density
      bisection is unaffected, repair coverage grows).
    * ``join_ids``: the same neighbors per row, ordered by the dependency
      join's float64 lexicographic ``(squared distance, index)`` -- the
      repair side.  On float64 trees both orders coincide; float32 trees
      genuinely need both, because float32 rounding can locally reorder
      near-tied distances relative to the join's float64 ordering.
    * ``coverage_sq``: per-row float64 squared radius within which the row is
      *provably* complete (cap or k-NN radius, shrunk by the float32
      representation margin on float32 trees).  A repaired dependent pair is
      trusted only below its row's coverage; at or beyond it, the row falls
      back to the real join.
    """

    def __init__(
        self,
        model,
        *,
        d_cut_max: float,
        values: np.ndarray,
        join_ids: np.ndarray,
        indptr: np.ndarray,
        coverage_sq: np.ndarray,
        jitter: np.ndarray,
    ):
        result = model.check_is_fitted()
        if result.dependent_raw_ is None:
            raise ValueError(
                "the fitted result lacks dependent_raw_ (unmasked dependency "
                "forest); refit to build a recluster index"
            )
        tree = model._predict_tree()
        if tree is None:
            raise ValueError("the model has no fitted kd-tree to recluster over")
        # What re-clustering needs of the model, copied rather than a
        # reference to it: the model caches its index, and a back-reference
        # would make the pair a cycle only the cyclic GC could free.
        self._params = dict(model.get_params())
        self._algorithm = model.algorithm_name
        self._tree = tree
        self._points = np.asarray(model._fit_points_, dtype=np.float64)
        self.d_cut_max = float(check_positive(float(d_cut_max), "d_cut_max"))
        self.d_cut_fit = float(model.d_cut)
        self._values = values
        self._join_ids = np.asarray(join_ids, dtype=np.intp)
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._coverage_sq = np.asarray(coverage_sq, dtype=np.float64)
        self._jitter = np.asarray(jitter, dtype=np.float64)
        self._rho_fit = np.asarray(result.rho_, dtype=np.float64)
        self._delta_fit = np.asarray(result.delta_, dtype=np.float64)
        self._dependent_fit = np.asarray(result.dependent_raw_, dtype=np.intp)
        n = self._points.shape[0]
        for name, array, length in (
            ("values", np.asarray(values), None),
            ("join_ids", self._join_ids, None),
            ("indptr", self._indptr, n + 1),
            ("coverage_sq", self._coverage_sq, n),
            ("jitter", self._jitter, n),
        ):
            if array.ndim != 1 or (length is not None and array.shape[0] != length):
                raise ValueError(f"recluster index array {name!r} has the wrong shape")
        if self._values.shape[0] != self._join_ids.shape[0]:
            raise ValueError("recluster index values/join_ids length mismatch")
        self._lengths = np.diff(self._indptr)
        # Tiered sweep prefix: the first _SWEEP_PREFIX_WIDTH join-order
        # entries of every row as a dense matrix (short rows repeat their
        # last entry, which cannot introduce a spurious *first* denser hit).
        # Scanning this O(n * width) block resolves the overwhelming
        # majority of rows; only the leftovers walk their full CSR tails,
        # which makes the per-parameter sweep cost nearly independent of
        # the profile density (and hence of ``d_cut_max``).
        width = _SWEEP_PREFIX_WIDTH
        cols = np.minimum(
            np.arange(width, dtype=np.int64)[None, :],
            np.maximum(self._lengths, 1)[:, None] - 1,
        )
        self._prefix_ids = self._join_ids[self._indptr[:-1, None] + cols]
        self._prefix_covers = self._lengths <= width
        counter = getattr(model, "_counter", None)
        self._counter = counter if counter is not None else WorkCounter()

    # ------------------------------------------------------------ construction

    @classmethod
    def from_estimator(
        cls, model, *, d_cut_max: float | None = None
    ) -> "ReclusterIndex":
        """Extract the index from a fitted estimator (one-time cost).

        ``d_cut_max`` caps the profiles and therefore the largest ``d_cut``
        the index can serve; it defaults to
        ``DEFAULT_D_CUT_MAX_FACTOR * fitted d_cut`` and must cover the fitted
        ``d_cut`` itself.  Rows of sparse-region points are floored at
        :data:`MIN_PROFILE_SIZE` entries.
        """
        if not getattr(model, "supports_recluster", False):
            raise ValueError(
                f"{type(model).__name__} does not support re-clustering: only "
                "exact algorithms whose density/dependency definitions are "
                "pure functions of (points, d_cut, seed) can replay a cold "
                "fit from persisted profiles (use ExDPC, or refit)"
            )
        model.check_is_fitted()
        tree = model._predict_tree()
        if tree is None:
            raise ValueError("the model has no fitted kd-tree to profile")
        if d_cut_max is None:
            d_cut_max = DEFAULT_D_CUT_MAX_FACTOR * float(model.d_cut)
        d_cut_max = check_positive(float(d_cut_max), "d_cut_max")
        if d_cut_max < float(model.d_cut):
            raise ValueError(
                f"d_cut_max ({d_cut_max}) must cover the fitted d_cut "
                f"({model.d_cut}); profiles capped below the fitted cutoff "
                "cannot reproduce the fitted clustering"
            )
        jitter = resolve_tiebreak_jitter(model)

        points = np.asarray(model._fit_points_, dtype=np.float64)
        n = points.shape[0]
        coord_mag = float(np.abs(points).max()) if points.size else 0.0
        base_cov = float(np.float64(d_cut_max) * np.float64(d_cut_max))
        if tree.points.dtype != np.float64:
            base_cov = float(_float32_coverage_sq(points.shape[1], coord_mag, base_cov))
        k = min(MIN_PROFILE_SIZE, n)
        executor = ParallelExecutor(model.n_jobs, backend=model.backend)
        count_builder = TaskBuilder(executor.backend, points, tree, counter=tree.counter)
        profile_builder = None
        try:
            # Row lengths first: the strict count at d_cut_max is exactly the
            # length of a row's cap profile (the range_profile_batch
            # invariant); rows with fewer than k in-cap neighbors hold their
            # k nearest neighbors instead.  So indptr is known before any
            # entry is emitted, and the final arrays are allocated once.
            counts = strict_self_counts(
                tree,
                d_cut_max,
                engine="dual" if model.engine_ == "dual" else "batch",
                frontier_target=adaptive_dual_frontier(n, model.leaf_size),
                executor=executor,
                task_builder=count_builder,
            ).astype(np.int64)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.where(counts < k, k, counts), out=indptr[1:])
            values = np.empty(indptr[-1], dtype=tree.points.dtype)
            join_ids = np.empty(indptr[-1], dtype=np.intp)
            coverage_sq = np.empty(n, dtype=np.float64)
            profile_builder = TaskBuilder(
                executor.backend,
                points,
                tree,
                arrays={"profile.counts": counts, "profile.indptr": indptr},
                outputs={
                    "profile.values": values,
                    "profile.join_ids": join_ids,
                    "profile.coverage_sq": coverage_sq,
                },
                counter=tree.counter,
            )
            payload = {
                "d_cut_max": d_cut_max,
                "k": k,
                "base_cov": base_cov,
                "coord_mag": coord_mag,
            }
            task = profile_builder(kernel_range_profile, payload)
            executor.map_index_chunks(task, n)
            profile_builder.collect_outputs()
        finally:
            # The pool goes down before the segments are unlinked.
            executor.close()
            count_builder.close()
            if profile_builder is not None:
                profile_builder.close()

        return cls(
            model,
            d_cut_max=d_cut_max,
            values=values,
            join_ids=join_ids,
            indptr=indptr,
            coverage_sq=coverage_sq,
            jitter=jitter,
        )

    @classmethod
    def from_arrays(
        cls,
        model,
        *,
        d_cut_max: float,
        values: np.ndarray,
        join_ids: np.ndarray,
        indptr: np.ndarray,
        coverage_sq: np.ndarray,
    ) -> "ReclusterIndex":
        """Re-attach a persisted index (snapshot restore path).

        The arrays must come from :meth:`from_estimator` on the same fitted
        model (format v4 snapshots store them verbatim); they may be
        read-only memory maps -- the index never writes to them.
        """
        return cls(
            model,
            d_cut_max=float(d_cut_max),
            values=values,
            join_ids=join_ids,
            indptr=indptr,
            coverage_sq=coverage_sq,
            jitter=resolve_tiebreak_jitter(model),
        )

    # ----------------------------------------------------------------- queries

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return int(self._indptr.shape[0] - 1)

    @property
    def n_profile_entries(self) -> int:
        """Total number of (point, neighbor) profile entries."""
        return int(self._values.shape[0])

    def memory_bytes(self) -> int:
        """Approximate footprint of the profile arrays."""
        return int(
            self._values.nbytes
            + self._join_ids.nbytes
            + self._indptr.nbytes
            + self._coverage_sq.nbytes
            + self._jitter.nbytes
            + self._prefix_ids.nbytes
        )

    def _radius_sq_bound(self, d_cut: float):
        """The storage-dtype squared-radius bound of the density engines.

        Replicates :meth:`repro.index.kdtree.KDTree._check_radius_sq_batch`:
        square in float64 first, then round once to the storage dtype, so the
        profile search counts exactly the pairs the fit-time engines count.
        """
        bound = np.float64(d_cut) * np.float64(d_cut)
        if self._values.dtype != np.float64:
            bound = self._values.dtype.type(bound)
        return bound

    def density(self, d_cut: float) -> np.ndarray:
        """Integer local density of every point at ``d_cut`` (Definition 1).

        Bit-identical to the fit-time density engines for any
        ``d_cut <= d_cut_max``; one vectorised binary search per point.
        """
        d_cut = check_positive(float(d_cut), "d_cut")
        if d_cut > self.d_cut_max:
            raise ValueError(
                f"d_cut ({d_cut}) exceeds the profiled d_cut_max "
                f"({self.d_cut_max}); rebuild the index with a larger "
                "d_cut_max (recluster_index(d_cut_max=..., rebuild=True))"
            )
        return _csr_count_less(self._values, self._indptr, self._radius_sq_bound(d_cut))

    def _repair_forest(
        self, rho: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Exact dependency forest at the new tie-broken densities ``rho``.

        Resolves every point's nearest denser neighbor from its profile row
        (first entry in join order that is denser; see the module docstring
        for why that is the global lexicographic minimum), keeps the fitted
        ``delta`` verbatim where the dependent did not change, and falls back
        to :func:`nearest_denser_join` for the points the profiles cannot
        decide.  Returns ``(dependent, delta, n_changed, n_joined)``.
        """
        indptr = self._indptr
        join_ids = self._join_ids
        total = join_ids.shape[0]
        width = self._prefix_ids.shape[1]

        # Tier 1 -- dense prefix: first denser entry among each row's leading
        # ``width`` join-order entries (repeated trailing entries of short
        # rows can never create a spurious *first* hit).
        denser_p = rho[self._prefix_ids] > rho[:, None]
        found_p = denser_p.any(axis=1)
        rows = np.flatnonzero(found_p)
        fid = self._prefix_ids[rows, np.argmax(denser_p[rows], axis=1)]

        rest = np.flatnonzero(~found_p)
        covered = self._prefix_covers[rest]
        # Prefix covered the whole row and found nothing denser: the profile
        # cannot decide this row, it goes to the join fallback.
        join_rows = rest[covered]

        # Tier 2 -- CSR tails of the unresolved rows that extend past the
        # prefix.  Join order is preserved, so the first denser tail entry is
        # the row's global first.  reduceat never sees an empty segment:
        # every tail row has length > width by construction.
        tail_rows = rest[~covered]
        if tail_rows.size:
            tail_len = self._lengths[tail_rows] - width
            m = int(tail_len.sum())
            seg_end = np.cumsum(tail_len)
            within = np.arange(m, dtype=np.int64) - np.repeat(
                seg_end - tail_len, tail_len
            )
            pos = np.repeat(indptr[tail_rows] + width, tail_len) + within
            denser_t = rho[join_ids[pos]] > np.repeat(rho[tail_rows], tail_len)
            pos_or_total = np.where(denser_t, pos, total)
            first_t = np.minimum.reduceat(
                pos_or_total, seg_end - tail_len
            )
            found_t = first_t < total
            rows = np.concatenate([rows, tail_rows[found_t]])
            fid = np.concatenate([fid, join_ids[first_t[found_t]]])
            join_rows = np.concatenate([join_rows, tail_rows[~found_t]])

        dependent = np.array(self._dependent_fit, dtype=np.intp, copy=True)
        delta = np.array(self._delta_fit, dtype=np.float64, copy=True)
        pair_sq64 = _pair_distances_sq64(self._points, rows, fid)
        # A resolved pair at or beyond its row's proven coverage could in
        # principle be beaten by a just-outside point the row missed (k-NN
        # radius ties, or float32 boundary rounding); re-run those rows
        # through the join.  For full-precision in-cap pairs the test always
        # passes.
        safe = pair_sq64 < self._coverage_sq[rows]
        unsafe_rows = rows[~safe]
        rows, fid, pair_sq64 = rows[safe], fid[safe], pair_sq64[safe]
        if unsafe_rows.size:
            join_rows = np.concatenate([join_rows, unsafe_rows])
        join_rows = np.sort(join_rows)

        changed = fid != dependent[rows]
        changed_rows = rows[changed]
        dependent[changed_rows] = fid[changed]
        # The join keeps squared distances through the lexicographic
        # comparison and takes one final sqrt; replaying sqrt on the same
        # float64 squared distance reproduces its delta bit for bit.
        delta[changed_rows] = np.sqrt(pair_sq64[changed])
        n_changed = int(changed_rows.size)
        n_joined = int(join_rows.size)

        if n_joined:
            dep_j, delta_j = self._resolve_fallback(join_rows, rho)
            dependent[join_rows] = dep_j
            delta[join_rows] = delta_j

        return dependent, delta, n_changed, n_joined

    #: Total candidate-pair budget of the brute-force fallback resolver per
    #: recluster call.  Fallback rows are local density maxima whose strictly
    #: denser candidates are spatially scattered, which defeats the dual
    #: traversal's per-node density pruning; a direct scan of each row's
    #: denser set is both exact and, for realistic parameter shifts, orders
    #: of magnitude smaller than a tree search.  Rows whose denser sets
    #: overflow the budget (pathologically small ``d_cut``) fall back to the
    #: seeded dual-tree join.
    _FALLBACK_BRUTE_BUDGET = 32_000_000

    #: Fallback rows scanned per brute-force block (padded to the largest
    #: denser set in the block; sorting rows by denser-set size first keeps
    #: the padding waste small).
    _FALLBACK_BRUTE_BLOCK = 32

    def _resolve_fallback(
        self, join_rows: np.ndarray, rho: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact nearest strictly-denser neighbor of the fallback rows.

        Splits the rows between the brute-force denser-set scan (cheap rows
        first, until :data:`_FALLBACK_BRUTE_BUDGET` candidate pairs are
        spent) and the seeded dual-tree join (whatever overflows).  Both
        paths use the canonical float64 pair kernel and the lexicographic
        ``(squared distance, index)`` tie-break, so the combined answer is
        bit-identical to a cold fit's dependency phase.
        """
        params = self._params
        n = rho.shape[0]
        dep_out = np.full(join_rows.shape[0], -1, dtype=np.intp)
        delta_out = np.full(join_rows.shape[0], np.inf)

        # Strictly-denser candidate prefix: after a descending stable sort,
        # the first k entries are exactly the points strictly denser than a
        # row with k = n - searchsorted(ascending, rho_row, side="right")
        # (correct even under exact density ties).
        order = np.argsort(-rho, kind="stable")
        asc = rho[order[::-1]]
        k = (n - np.searchsorted(asc, rho[join_rows], side="right")).astype(
            np.int64
        )

        by_k = np.argsort(k, kind="stable")
        cum = np.cumsum(k[by_k])
        n_brute = int(np.searchsorted(cum, self._FALLBACK_BRUTE_BUDGET, side="right"))
        brute_sel = by_k[:n_brute]
        rows_b, k_b = join_rows[brute_sel], k[brute_sel]
        intp_max = np.iinfo(np.intp).max
        block = self._FALLBACK_BRUTE_BLOCK
        for lo in range(0, rows_b.shape[0], block):
            hi = min(lo + block, rows_b.shape[0])
            kmax = int(k_b[hi - 1])
            if kmax == 0:
                continue
            cand = order[:kmax]
            d_sq = _block_pair_distances_sq(
                self._points[rows_b[lo:hi]][None], self._points[cand][None]
            )[0]
            self._counter.add("distance_calcs", float(hi - lo) * float(kmax))
            d_sq[np.arange(kmax)[None, :] >= k_b[lo:hi, None]] = np.inf
            best_sq = d_sq.min(axis=1)
            has = np.isfinite(best_sq)
            if not has.any():
                continue
            best_id = np.where(
                d_sq == best_sq[:, None], cand[None, :], intp_max
            ).min(axis=1)
            dest = brute_sel[lo:hi][has]
            dep_out[dest] = best_id[has]
            delta_out[dest] = np.sqrt(best_sq[has])

        overflow_sel = by_k[n_brute:]
        if overflow_sel.size:
            overflow_rows = join_rows[np.sort(overflow_sel)]
            seed_idx, seed_sq = self._join_seeds(overflow_rows, rho)
            executor = ParallelExecutor(params["n_jobs"], backend=params["backend"])
            try:
                # The dual engine serves the overflow regardless of the
                # model's fit engine: every join engine is bit-identical per
                # query, and only the dual traversal can exploit the seeded
                # bounds.
                outcome = nearest_denser_join(
                    self._points,
                    rho,
                    engine="dual",
                    executor=executor,
                    counter=self._counter,
                    query_indices=overflow_rows,
                    tree=self._tree,
                    leaf_size=params.get("leaf_size", 32),
                    seed_dependent=seed_idx,
                    seed_delta_sq=seed_sq,
                )
            finally:
                executor.close()
            dest = np.sort(overflow_sel)
            dep_out[dest] = outcome.dependent
            delta_out[dest] = outcome.delta

        return dep_out, delta_out

    _SEED_CLIMB_LIMIT = 64

    def _join_seeds(
        self, join_rows: np.ndarray, rho: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Denser-candidate seeds for the join fallback rows.

        Climbs the *fitted* dependency forest from each row's old dependent
        until it reaches a point that is still denser under the new
        densities (the fitted forest ascends the old density order, so a
        few hops almost always suffice; the climb is capped and unresolved
        rows are simply left unseeded).  The seed distances use the same
        float64 pair kernel as the join, so a seed that survives as the
        final answer reports a bit-identical delta.
        """
        cur = self._dependent_fit[join_rows]
        rho_rows = rho[join_rows]
        for _ in range(self._SEED_CLIMB_LIMIT):
            alive = cur >= 0
            stale = alive.copy()
            stale[alive] = rho[cur[alive]] <= rho_rows[alive]
            if not stale.any():
                break
            cur[stale] = self._dependent_fit[cur[stale]]
        valid = cur >= 0
        valid[valid] = rho[cur[valid]] > rho_rows[valid]
        seed_idx = np.full(join_rows.shape[0], -1, dtype=np.intp)
        seed_sq = np.full(join_rows.shape[0], np.inf)
        seed_idx[valid] = cur[valid]
        seed_sq[valid] = _pair_distances_sq64(
            self._points, join_rows[valid], cur[valid]
        )
        return seed_idx, seed_sq

    def recluster(
        self,
        d_cut: float | None = None,
        *,
        rho_min: float | None = None,
        delta_min: float | None = None,
        n_clusters: int | None = None,
    ) -> DPCResult:
        """Cluster the fitted points at new parameters, bit-identical to ``fit``.

        Exactly one of ``delta_min`` / ``n_clusters`` selects the centers
        (same contract as the estimator constructors, including the
        ``delta_min > d_cut`` requirement of Definition 5); ``d_cut=None``
        keeps the fitted cutoff.  Returns a fresh :class:`DPCResult` whose
        per-point arrays equal a cold ``fit`` at the same parameters bit for
        bit; the index and the fitted model are left untouched.
        """
        d_cut = self.d_cut_fit if d_cut is None else check_positive(float(d_cut), "d_cut")
        if rho_min is not None:
            rho_min = check_non_negative(rho_min, "rho_min")
        if delta_min is not None and n_clusters is not None:
            raise ValueError("delta_min and n_clusters are mutually exclusive")
        if delta_min is None and n_clusters is None:
            raise ValueError(
                "specify either delta_min (threshold on dependent distance) or "
                "n_clusters (number of centers to select)"
            )
        if delta_min is not None:
            delta_min = check_positive(delta_min, "delta_min")
            if delta_min <= d_cut:
                raise ValueError(
                    f"delta_min ({delta_min}) must exceed d_cut ({d_cut}); "
                    "see Definition 5 of the paper"
                )
        if n_clusters is not None and int(n_clusters) <= 0:
            raise ValueError(f"n_clusters must be positive, got {n_clusters}")

        timings: dict[str, float] = {}
        work: dict[str, float] = {}
        start_total = time.perf_counter()

        start = time.perf_counter()
        counts = self.density(d_cut)
        rho_raw = counts.astype(np.float64)
        rho = rho_raw + self._jitter
        timings["local_density"] = time.perf_counter() - start

        start = time.perf_counter()
        if np.array_equal(rho, self._rho_fit):
            # Same tie-broken densities => the fitted forest is exact as-is.
            dependent = np.array(self._dependent_fit, dtype=np.intp, copy=True)
            delta = np.array(self._delta_fit, dtype=np.float64, copy=True)
            n_changed = n_joined = 0
        else:
            dependent, delta, n_changed, n_joined = self._repair_forest(rho)
        timings["dependency"] = time.perf_counter() - start
        work["repaired_dependencies"] = float(n_changed)
        work["joined_dependencies"] = float(n_joined)
        work["profile_entries"] = float(self.n_profile_entries)

        start = time.perf_counter()
        labels, centers, noise_mask = assign_clusters(
            rho,
            rho_raw,
            delta,
            dependent,
            rho_min=rho_min,
            delta_min=delta_min,
            n_clusters=n_clusters,
        )
        timings["assignment"] = time.perf_counter() - start
        timings["total"] = time.perf_counter() - start_total

        dependent_raw = dependent.copy()
        dependent[centers] = -1  # a center's dependent point is itself (§2.1)

        params: dict[str, Any] = dict(self._params)
        params.update(
            {
                "d_cut": d_cut,
                "rho_min": rho_min,
                "delta_min": delta_min,
                "n_clusters": n_clusters,
                "recluster": True,
            }
        )
        return DPCResult(
            labels_=labels,
            rho_=rho,
            rho_raw_=canonical_rho_raw(rho_raw),
            delta_=delta,
            dependent_=dependent,
            centers_=np.asarray(centers, dtype=np.intp),
            noise_mask_=np.asarray(noise_mask, dtype=bool),
            n_clusters_=int(len(centers)),
            exact_dependency_mask_=np.ones(rho.shape[0], dtype=bool),
            timings_=timings,
            work_=work,
            memory_bytes_=self.memory_bytes(),
            params_=params,
            algorithm_=self._algorithm,
            dependent_raw_=dependent_raw,
        )
