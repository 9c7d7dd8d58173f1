"""Out-of-sample assignment kernels and their references.

A fitted DPC model assigns a new point ``q`` the same way ``fit`` assigns any
non-center point: ``q`` attaches to its *dependency target* -- the nearest
fitted point whose (tie-broken) local density exceeds ``q``'s density -- and
inherits that point's cluster label (Definition 6 applied one step beyond the
training set).  Tree-backed models run that search as a dual-tree join
(:func:`repro.core.dependency_join.attach_targets`); the helpers here are
the index-free path and the references it is tested against:

* :func:`nearest_denser_bruteforce` / :func:`predict_density_bruteforce` --
  the index-free attach and density used by the ``O(n^2)`` baselines (Scan,
  CFSFDP-A), by restored snapshots without a stored tree and by the
  streaming repair;
* :func:`nearest_denser_targets` -- kd-tree batch search with an escalating-k
  kNN frontier, kept as a tree-backed reference for the predict tests.
  Among the ``k`` nearest neighbours sorted by ``(distance, index)``, the
  first one denser than the query *is* the global masked nearest neighbour
  (every point outside the top ``k`` is lexicographically larger), so the
  escalation never changes the answer, only the cost;
* :func:`float32_density_recheck` -- the float64 re-check of float32 models.

Both primitives break exact distance ties by the smallest point index and
both use the canonical sequential squared-distance arithmetic of
:mod:`repro.kernels`, so tree and brute-force paths agree bit for bit.

When no fitted point is denser than the query (a brand-new global density
peak), the target falls back to the plain nearest neighbour: a serving layer
cannot mint a new cluster, so the query joins the closest existing structure
(the ``rho_min`` noise rule still applies on top).
"""

from __future__ import annotations

import numpy as np

from repro.kernels import pair_distances_sq

__all__ = [
    "float32_density_recheck",
    "nearest_denser_targets",
    "nearest_denser_bruteforce",
    "predict_density_bruteforce",
]

#: Queries processed per vectorised brute-force block, bounding the
#: ``chunk x n x d`` temporary.
_BRUTE_CHUNK = 256


def nearest_denser_targets(
    tree,
    rho_train,
    queries,
    rho_q,
    *,
    k_initial: int = 8,
    attach_fallback: bool = True,
    return_distance: bool = False,
):
    """Per-query index of the nearest fitted point denser than the query.

    Parameters
    ----------
    tree:
        A fitted :class:`repro.index.kdtree.KDTree` over the training points.
    rho_train:
        Tie-broken training densities (``result.rho_``), one per tree point.
    queries:
        Query matrix of shape ``(q, d)``.
    rho_q:
        Query densities on the *raw* (integer-count) scale.  Tie-broken
        training densities exceed their integer part, so a query colliding
        with a training point always resolves to that point at distance zero.
    k_initial:
        First kNN frontier size; unresolved queries escalate ``k`` by 4x.
    attach_fallback:
        When true (default), queries denser than every fitted point attach to
        their plain nearest neighbour instead of returning ``-1``.
    return_distance:
        When true, also return the distance to each target (``inf`` for
        queries without one).
    """
    rho_train = np.asarray(rho_train, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    rho_q = np.asarray(rho_q, dtype=np.float64).reshape(-1)
    n_train = tree.size
    n_q = queries.shape[0]
    targets = np.full(n_q, -1, dtype=np.intp)
    distances = np.full(n_q, np.inf, dtype=np.float64)
    if n_q == 0 or n_train == 0:
        return (targets, distances) if return_distance else targets

    unresolved = np.arange(n_q, dtype=np.intp)
    k = min(max(1, int(k_initial)), n_train)
    while unresolved.size:
        idx, dist = tree.knn_batch(queries[unresolved], k)
        valid = idx >= 0
        denser = valid & (
            rho_train[np.where(valid, idx, 0)] > rho_q[unresolved, None]
        )
        has = denser.any(axis=1)
        rows = np.flatnonzero(has)
        if rows.size:
            first = np.argmax(denser[rows], axis=1)
            targets[unresolved[rows]] = idx[rows, first]
            distances[unresolved[rows]] = dist[rows, first]
        unresolved = unresolved[~has]
        if k >= n_train:
            break
        k = min(n_train, k * 4)

    if attach_fallback and unresolved.size:
        nn_idx, nn_dist = tree.nearest_neighbor_batch(queries[unresolved])
        targets[unresolved] = nn_idx
        distances[unresolved] = nn_dist
    if return_distance:
        return targets, distances
    return targets


def _block_sq_distances(queries: np.ndarray, train_points: np.ndarray) -> np.ndarray:
    """``(q, n)`` squared distances with the canonical kernel arithmetic."""
    return pair_distances_sq(queries, train_points)


def nearest_denser_bruteforce(
    train_points,
    rho_train,
    queries,
    rho_q,
    *,
    attach_fallback: bool = True,
    counter=None,
    return_distance: bool = False,
):
    """Brute-force counterpart of :func:`nearest_denser_targets`.

    With ``return_distance=True`` also returns the distance to each target
    (``inf`` for queries without one) -- this is the nearest-denser kernel the
    streaming repair uses to recompute ``(dependent, delta)`` pairs, kept
    here so the tie-break and arithmetic contract lives in exactly one place.
    """
    train_points = np.asarray(train_points, dtype=np.float64)
    rho_train = np.asarray(rho_train, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    rho_q = np.asarray(rho_q, dtype=np.float64).reshape(-1)
    n_q = queries.shape[0]
    targets = np.full(n_q, -1, dtype=np.intp)
    target_sq = np.full(n_q, np.inf, dtype=np.float64)
    for start in range(0, n_q, _BRUTE_CHUNK):
        stop = min(start + _BRUTE_CHUNK, n_q)
        d_sq = _block_sq_distances(queries[start:stop], train_points)
        if counter is not None:
            counter.add(
                "distance_calcs", float(stop - start) * float(train_points.shape[0])
            )
        eligible = rho_train[None, :] > rho_q[start:stop, None]
        masked = np.where(eligible, d_sq, np.inf)
        # argmin returns the first minimum, i.e. the smallest index on ties,
        # matching the kd-tree's lexicographic (distance, index) order.
        pos = np.argmin(masked, axis=1)
        has = eligible.any(axis=1)
        block = np.where(has, pos, -1)
        if attach_fallback and (~has).any():
            rows = np.flatnonzero(~has)
            block[rows] = np.argmin(d_sq[rows], axis=1)
        targets[start:stop] = block
        rows = np.arange(stop - start)
        target_sq[start:stop] = np.where(
            block >= 0, d_sq[rows, np.clip(block, 0, None)], np.inf
        )
    if return_distance:
        return targets, np.sqrt(target_sq)
    return targets


def float32_density_recheck(
    train_points,
    queries,
    d_cut: float,
    *,
    ulps: int = 8,
    counter=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Float64 density re-check of the serving float32 policy.

    A float32 kernel can misclassify a (query, train) pair against the
    ``dist < d_cut`` predicate only when the pair's true distance lies within
    a few float32 ulps of ``d_cut`` (the relative error of the storage cast,
    the squared-distance accumulation and the rounded cutoff add up to
    roughly ``(d + 4) / 2`` ulps; ``ulps=8`` covers every dimensionality the
    paper uses with margin).  This scans the full-precision coordinates once
    and returns ``(exact_counts, uncertain_mask)``: the exact float64 strict
    count of every query, and the mask of queries holding at least one train
    point inside the ``d_cut +- ulps`` band.  Callers keep the float32 count
    where the mask is false (provably equal to the float64 count outside the
    band) and substitute the exact count where it is true; see
    ``docs/performance.md`` for the resulting accuracy envelope.
    """
    train_points = np.asarray(train_points, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    d_cut = float(d_cut)
    band = float(ulps) * float(np.spacing(np.float32(d_cut)))
    lo_sq = max(d_cut - band, 0.0) ** 2
    hi_sq = (d_cut + band) ** 2
    d_cut_sq = d_cut * d_cut
    n_q = queries.shape[0]
    exact = np.zeros(n_q, dtype=np.intp)
    uncertain = np.zeros(n_q, dtype=bool)
    for start in range(0, n_q, _BRUTE_CHUNK):
        stop = min(start + _BRUTE_CHUNK, n_q)
        d_sq = _block_sq_distances(queries[start:stop], train_points)
        if counter is not None:
            counter.add(
                "distance_calcs", float(stop - start) * float(train_points.shape[0])
            )
        exact[start:stop] = (d_sq < d_cut_sq).sum(axis=1)
        uncertain[start:stop] = ((d_sq > lo_sq) & (d_sq < hi_sq)).any(axis=1)
    return exact, uncertain


def predict_density_bruteforce(
    train_points, queries, d_cut: float, *, counter=None
) -> np.ndarray:
    """Raw local density of each query over the fitted set (``dist < d_cut``)."""
    train_points = np.asarray(train_points, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    d_cut_sq = float(d_cut) * float(d_cut)
    n_q = queries.shape[0]
    counts = np.zeros(n_q, dtype=np.intp)
    for start in range(0, n_q, _BRUTE_CHUNK):
        stop = min(start + _BRUTE_CHUNK, n_q)
        d_sq = _block_sq_distances(queries[start:stop], train_points)
        if counter is not None:
            counter.add(
                "distance_calcs", float(stop - start) * float(train_points.shape[0])
            )
        counts[start:stop] = (d_sq < d_cut_sq).sum(axis=1)
    return counts
