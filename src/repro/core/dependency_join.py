"""Unified nearest-denser join layer: one engine for every dependency search.

The dependency phase of density-peaks clustering asks, for each query point,
for the *nearest point with strictly higher local density* (Definitions 2-3).
Historically that search was scattered over three divergent code paths -- the
partition-based per-point/batch queries of the fit fallbacks (§4.3), the
escalating-kNN attachment pass of ``predict``, and the brute-force dirty-set
repair of the streaming layer.  This module owns all of them.  The fit joins
dispatch on ``engine={"scalar", "batch", "dual"}``, mirroring the density
phase; ``predict``'s :func:`attach_targets` always runs the dual join:

* ``"scalar"`` / ``"batch"`` -- the paper's partition-based exact search
  (:class:`PartitionedDependencySearcher`): density-ordered partitions,
  per-partition kd-trees, one NN search or one vectorised scan per
  (query, partition) pair.
* ``"dual"`` -- a bulk *nearest-denser join*
  (:meth:`repro.index.kdtree.KDTree.nn_dual_vs` /
  :meth:`~repro.index.kdtree.KDTree.range_nn_dual`): one simultaneous
  traversal of a query tree against the data tree, carrying per-query
  best-distance bounds and per-node density maxima so whole subtrees with no
  denser points prune in a single box test -- the same "one structured
  traversal instead of n lookups" move the density self-join makes.

Shared exactness contract
-------------------------
Every engine -- and every other nearest-denser code path in the library
(Ex-DPC's incremental tree, :func:`repro.core.predict.nearest_denser_targets`,
:func:`repro.core.predict.nearest_denser_bruteforce`) -- selects candidates by
lexicographic **(squared distance, point index)**, computes squared distances
with the canonical sequential arithmetic of :mod:`repro.kernels`, and runs
the comparison in float64 regardless of the tree storage dtype.  Results are
therefore bit-for-bit identical across engines (dependencies, deltas and
labels), including on duplicate-heavy data with exact distance ties; the
property suite ``tests/property/test_dependency_join_equivalence.py`` locks
that in.

Backend determinism
-------------------
The dual join is decomposed into independent query-subtree work units
(:meth:`~repro.index.kdtree.KDTree.node_frontier`); each unit's traversal is
per-query deterministic, so any grouping of units onto serial, thread or
process workers reproduces identical results *and* identical work counters.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

import numpy as np

from repro.core.predict import nearest_denser_bruteforce
from repro.index.kdtree import KDTree, adaptive_dual_frontier
from repro.kernels import pair_distances_sq
from repro.parallel.backends import (
    TaskBuilder,
    kernel_dual_nn,
    kernel_partitioned_dependency,
)
from repro.utils.counters import WorkCounter

__all__ = [
    "JoinOutcome",
    "PartitionedDependencySearcher",
    "attach_targets",
    "build_join_trees",
    "nearest_denser_join",
    "repair_nearest_denser",
    "solve_partition_count",
]

#: Minimum ``|queries| * |data|`` brute-force work at which the streaming
#: repair builds throwaway kd-trees and runs the dual join instead of the
#: vectorised scan.  Below it the scan's single blocked kernel beats two
#: tree builds.
_DUAL_REPAIR_MIN_WORK = 1 << 18


def solve_partition_count(n: int, dim: int) -> int:
    """Return the partition count ``s`` implied by Equation (2) of the paper.

    Equation (2) asks for ``n/s = Theta((s-1)(n/s)^{1-1/d})``, i.e.
    ``(n/s)^{1/d} = Theta(s-1)``, whose solution grows like ``n^{1/(d+1)}``.
    The result is clamped to ``[2, n]`` so small inputs stay valid.
    """
    if n <= 2:
        return max(1, n)
    s = int(round(n ** (1.0 / (dim + 1.0)))) + 1
    return int(min(max(s, 2), n))


@dataclass
class _Partition:
    """One density slice ``P_j`` with its kd-tree.

    ``member_indices`` is stored sorted ascending by *global point index*
    (the density slicing only decides membership), so the per-partition
    kd-tree's local smallest-index tie-break coincides with the global one.
    """

    member_indices: np.ndarray
    min_rho: float
    max_rho: float
    tree: KDTree


class PartitionedDependencySearcher:
    """Exact dependent-point queries over density-ordered partitions (§4.3).

    The paper sorts the candidate set in ascending density order, splits it
    into ``s`` equal slices (Equation (2)), builds a kd-tree per slice and
    classifies every (query, partition) pair: a wholly denser partition is
    answered with one nearest-neighbour search (case i), the single
    straddling partition with a vectorised scan of its denser members
    (case ii), and wholly at-most-as-dense partitions are skipped (case
    iii).  Exact distance ties resolve to the smallest global point index
    and all arithmetic follows the shared join contract (module docstring),
    so the scalar and batch engines agree bit for bit with each other and
    with the dual join.

    Parameters
    ----------
    points:
        The full point matrix of shape ``(n, d)``.
    rho:
        Tie-broken local densities (all distinct).
    candidate_indices:
        Optional subset of points allowed to serve as dependent points
        (S-Approx-DPC restricts candidates to the picked points); ``None``
        means every point is a candidate.
    n_partitions:
        Number of density slices ``s``; defaults to Equation (2).
    leaf_size:
        kd-tree leaf size for the per-partition trees.
    """

    def __init__(
        self,
        points: np.ndarray,
        rho: np.ndarray,
        *,
        candidate_indices: np.ndarray | None = None,
        n_partitions: int | None = None,
        leaf_size: int = 32,
        counter: WorkCounter | None = None,
    ):
        self._points = points
        self._rho = rho
        self._counter = counter if counter is not None else WorkCounter()
        self._leaf_size = int(leaf_size)
        if candidate_indices is None:
            candidates = np.arange(points.shape[0], dtype=np.intp)
            self._candidate_indices = None
        else:
            candidates = np.asarray(candidate_indices, dtype=np.intp)
            self._candidate_indices = candidates
        if candidates.size == 0:
            raise ValueError("candidate set must not be empty")

        order = candidates[np.argsort(rho[candidates], kind="stable")]
        count = order.shape[0]
        dim = points.shape[1]
        s = (
            solve_partition_count(count, dim)
            if n_partitions is None
            else max(1, min(int(n_partitions), count))
        )
        self._n_partitions = s

        bounds = np.linspace(0, count, s + 1, dtype=int)
        self._partitions: list[_Partition] = []
        for j in range(s):
            members = order[bounds[j] : bounds[j + 1]]
            if members.size == 0:
                continue
            min_rho = float(rho[members].min())
            max_rho = float(rho[members].max())
            members = np.sort(members)  # index order: local lex == global lex
            self._partitions.append(
                _Partition(
                    member_indices=members,
                    min_rho=min_rho,
                    max_rho=max_rho,
                    tree=KDTree(points[members], leaf_size=leaf_size, counter=self._counter),
                )
            )

    @property
    def n_partitions(self) -> int:
        """Number of density slices actually built."""
        return len(self._partitions)

    @property
    def counter(self) -> WorkCounter:
        """The work counter queries report into."""
        return self._counter

    def shared_query_params(self) -> dict:
        """Small picklable parameters from which a worker can rebuild this searcher.

        Construction is deterministic in ``(points, rho, candidate_indices,
        n_partitions, leaf_size)``, so a worker holding the shared point
        matrix reproduces identical partitions and kd-trees; the resolved
        partition count is passed so Equation (2) is not re-derived.
        """
        return {
            "rho": self._rho,
            "candidates": self._candidate_indices,
            "n_partitions": self._n_partitions,
            "leaf_size": self._leaf_size,
        }

    def memory_bytes(self) -> int:
        """Approximate footprint of the per-partition kd-trees."""
        return int(
            sum(
                part.tree.memory_bytes() + part.member_indices.nbytes
                for part in self._partitions
            )
        )

    def query_costs(self, rho_values) -> np.ndarray:
        """Vectorised ``cost_dep`` estimates (§4.5) for an array of densities.

        ``n/s + (m-1)(n/s)^{1-1/d}`` when some partition straddles the
        density (case ii), ``m (n/s)^{1-1/d}`` otherwise, where ``m`` is the
        number of partitions that may contain the dependent point.
        """
        rho_values = np.asarray(rho_values, dtype=np.float64).reshape(-1)
        if not self._partitions:
            return np.zeros(rho_values.shape[0])
        dim = self._points.shape[1]
        avg_size = float(
            np.mean([part.member_indices.size for part in self._partitions])
        )
        nn_cost = avg_size ** (1.0 - 1.0 / dim)
        mins = np.asarray([part.min_rho for part in self._partitions])
        maxs = np.asarray([part.max_rho for part in self._partitions])
        active = maxs[None, :] > rho_values[:, None]
        m = active.sum(axis=1)
        straddles = (active & ~(mins[None, :] > rho_values[:, None])).any(axis=1)
        return np.where(
            m == 0,
            nn_cost,
            np.where(straddles, avg_size + (m - 1) * nn_cost, m * nn_cost),
        )

    def query_cost(self, rho_value: float) -> float:
        """The paper's ``cost_dep`` estimate (§4.5) for one query density."""
        return float(self.query_costs([rho_value])[0])

    def query(self, index: int) -> tuple[int, float]:
        """Return ``(dependent_index, distance)`` for the point ``index``.

        Returns ``(-1, inf)`` when no candidate has higher density (the
        globally densest point).  Delegates to :meth:`query_batch` so the
        scalar and batch engines share one classification and one arithmetic
        path -- bit-for-bit equality by construction.
        """
        neighbors, distances = self.query_batch([index])
        return int(neighbors[0]), float(distances[0])

    def query_batch(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised exact dependent-point search for a batch of queries.

        Classifies every (query, partition) pair into the paper's three
        cases at once: case (i) pairs are answered with one batch
        nearest-neighbour search per partition, case (ii) pairs with a
        single vectorised scan of the straddling partition, and case (iii)
        pairs are skipped.  Returns ``(dependent_indices, distances)``
        (``-1`` / ``inf`` for the globally densest candidate); ties resolve
        by the smallest global index per the shared join contract.
        """
        indices = np.asarray(indices, dtype=np.intp).reshape(-1)
        n_queries = indices.size
        best_idx = np.full(n_queries, -1, dtype=np.intp)
        best_sq = np.full(n_queries, np.inf)
        if n_queries == 0:
            return best_idx, best_sq.copy()

        def merge(rows: np.ndarray, cand_idx: np.ndarray, cand_sq: np.ndarray) -> None:
            better = (cand_sq < best_sq[rows]) | (
                (cand_sq == best_sq[rows]) & (cand_idx < best_idx[rows])
            )
            targets = rows[better]
            best_sq[targets] = cand_sq[better]
            best_idx[targets] = cand_idx[better]

        query_points = self._points[indices]
        query_rho = self._rho[indices]
        for part in self._partitions:
            active = part.max_rho > query_rho
            if not active.any():
                continue
            denser_all = part.min_rho > query_rho
            case_i = np.flatnonzero(active & denser_all)
            case_ii = np.flatnonzero(active & ~denser_all)
            if case_i.size:
                # Batch NN on the partition tree; the impl returns *squared*
                # distances, so no sqrt/square round trip perturbs the lex
                # comparison against the scan candidates.
                tree = part.tree
                local_idx, local_sq = tree._knn_batch_impl(
                    tree._check_query_batch(query_points[case_i]), 1, None, None
                )
                found = local_idx[:, 0] >= 0
                rows = case_i[found]
                merge(
                    rows,
                    part.member_indices[local_idx[found, 0]],
                    local_sq[found, 0],
                )
            if case_ii.size:
                members = part.member_indices
                eligible = self._rho[members][None, :] > query_rho[case_ii, None]
                self._counter.add("distance_calcs", float(eligible.sum()))
                d_sq = pair_distances_sq(
                    query_points[case_ii], self._points[members]
                )
                d_sq = np.where(eligible, d_sq, np.inf)
                cand_sq = d_sq.min(axis=1)
                has = np.isfinite(cand_sq)
                if not has.any():
                    continue
                cand_idx = np.where(
                    d_sq == cand_sq[:, None],
                    members[None, :],
                    np.iinfo(np.intp).max,
                ).min(axis=1)
                merge(case_ii[has], cand_idx[has], cand_sq[has])

        return best_idx, np.sqrt(best_sq)


@dataclass
class JoinOutcome:
    """Result of one :func:`nearest_denser_join` call.

    ``dependent`` / ``delta`` are aligned with the query set (``-1`` /
    ``inf`` for queries with no denser candidate); ``memory_bytes`` is the
    footprint of any auxiliary index built for the join and
    ``cost_estimates`` feeds the caller's parallel-phase profile.
    """

    dependent: np.ndarray
    delta: np.ndarray
    memory_bytes: int
    cost_estimates: np.ndarray


def nearest_denser_join(
    points: np.ndarray,
    rho: np.ndarray,
    *,
    engine: str,
    executor,
    counter: WorkCounter,
    query_indices=None,
    candidate_indices=None,
    tree: KDTree | None = None,
    leaf_size: int = 32,
    n_partitions: int | None = None,
    frontier_target: int | None = None,
    task_builder=None,
    seed_dependent=None,
    seed_delta_sq=None,
) -> JoinOutcome:
    """Resolve the exact nearest-denser point of every query (fit phase).

    This is the single entry point of the fit-time dependency searches:
    Ex-DPC's full dependency phase (``query_indices=None``: every point
    queries), Approx-DPC's undecided cell maxima, and S-Approx-DPC's
    partitioned second phase (``candidate_indices`` restricted to picked
    points).  ``engine`` selects the strategy -- partition-based
    (``"scalar"`` maps per-point queries, ``"batch"`` maps vectorised query
    chunks) or the dual-tree nearest-denser join (``"dual"``).  The batch
    and dual joins run as chunk tasks (:func:`kernel_partitioned_dependency`,
    :func:`kernel_dual_nn`) on ``executor``; ``task_builder`` makes their
    tasks with the call signature of
    :class:`~repro.parallel.backends.TaskBuilder` (an estimator passes
    ``_chunk_task``, reusing its fit's shared segment), and without one the
    join builds its own over ``points`` and ``tree`` for the call.  Results
    and work counters are identical on serial, thread and process backends.

    ``tree`` is the caller's fitted kd-tree over *all* points; the dual
    engine joins against it directly when the candidate set is unrestricted
    and builds a float64 candidate tree otherwise.

    ``seed_dependent`` / ``seed_delta_sq`` (both or neither, one entry per
    query in ``query_indices`` order) optionally seed the dual traversal's
    per-query best bounds with known denser candidates (``-1`` / ``inf`` for
    unseeded queries); see :meth:`repro.index.kdtree.KDTree.nn_dual_vs`.
    Seeds are a pure pruning hint -- every engine returns bit-identical
    results with or without them -- and require the unrestricted candidate
    set.
    """
    n = points.shape[0]
    if (seed_dependent is None) != (seed_delta_sq is None):
        raise ValueError("seed_dependent and seed_delta_sq must be given together")
    if seed_dependent is not None and candidate_indices is not None:
        raise ValueError("join seeds require the unrestricted candidate set")
    qi = (
        None
        if query_indices is None
        else np.asarray(query_indices, dtype=np.intp).reshape(-1)
    )
    n_q = n if qi is None else qi.size
    if n_q == 0:
        return JoinOutcome(
            dependent=np.empty(0, dtype=np.intp),
            delta=np.empty(0, dtype=np.float64),
            memory_bytes=0,
            cost_estimates=np.empty(0, dtype=np.float64),
        )

    own_builder = None
    if task_builder is None:
        task_builder = own_builder = TaskBuilder(
            executor.backend, points, tree, counter=counter
        )
    try:
        if engine == "dual":
            frontier = frontier_target
            if frontier is None:
                # Scale-aware deterministic default: a function of the query
                # count and leaf size only, so results replay identically.
                frontier = adaptive_dual_frontier(n_q, leaf_size)
            dependent, delta, memory_bytes = _dual_join(
                points,
                rho,
                qi,
                candidate_indices,
                tree,
                leaf_size,
                frontier,
                executor,
                counter,
                task_builder,
                seed_dependent,
                seed_delta_sq,
            )
            return JoinOutcome(
                dependent=dependent,
                delta=delta,
                memory_bytes=memory_bytes,
                cost_estimates=np.ones(n_q, dtype=np.float64),
            )

        searcher = PartitionedDependencySearcher(
            points,
            rho,
            candidate_indices=candidate_indices,
            n_partitions=n_partitions,
            leaf_size=leaf_size,
            counter=counter,
        )
        q_arr = qi if qi is not None else np.arange(n, dtype=np.intp)
        if engine == "batch":
            # In-process the task queries this searcher; process workers
            # rebuild it once per phase (cached by the token in the payload)
            # from the shared point matrix plus the small deterministic
            # construction parameters instead of unpickling its trees.
            token = secrets.token_hex(8)
            payload = {"token": token, "undecided": q_arr}
            payload.update(searcher.shared_query_params())
            task = task_builder(
                kernel_partitioned_dependency, payload, state={token: searcher}
            )
            resolutions = executor.map_index_chunks(
                task, n_q, chunks_per_worker=_chunks_per_worker(executor)
            )
            dependent = np.concatenate([r[0] for r in resolutions])
            delta = np.concatenate([r[1] for r in resolutions])
        else:
            def resolve(index: int) -> tuple[int, float]:
                return searcher.query(int(index))

            resolved = executor.map(resolve, list(q_arr))
            dependent = np.asarray([r[0] for r in resolved], dtype=np.intp)
            delta = np.asarray([r[1] for r in resolved], dtype=np.float64)

        return JoinOutcome(
            dependent=dependent,
            delta=delta,
            memory_bytes=searcher.memory_bytes(),
            cost_estimates=searcher.query_costs(rho[q_arr]),
        )
    finally:
        if own_builder is not None:
            own_builder.close()


def _chunks_per_worker(executor) -> int:
    # Process payloads carry O(n) arrays pickled per submission: one chunk
    # per worker beats the default split that in-process runs keep.
    return 1 if executor.backend == "process" else 4


def build_join_trees(
    points: np.ndarray,
    rho: np.ndarray,
    qi: np.ndarray | None,
    candidate_indices,
    leaf_size: int,
    *,
    data_tree: KDTree | None = None,
    counter: WorkCounter | None = None,
) -> tuple[KDTree, np.ndarray, KDTree, np.ndarray, np.ndarray | None]:
    """Construct the (data, query) tree pair of one dual nearest-denser join.

    Returns ``(data_tree, rho_data, queries_tree, rho_q, cand_sorted)``.
    This is the SINGLE construction path shared by the driver
    (:func:`_dual_join`) and the process-backend worker's rebuild in
    :func:`repro.parallel.backends.kernel_dual_nn`: construction is
    deterministic in its inputs, so a worker rebuilding the trees from the
    shared point matrix reproduces the driver's node ids -- and therefore
    its frontier decomposition -- exactly.  ``data_tree`` (the caller's
    fitted tree, or the worker's shared-memory view) is adopted when the
    candidate set is unrestricted; candidate subsets build a float64 tree
    over the candidates sorted ascending, so the candidate tree's local
    index order -- the tie-break order of the join -- matches the global
    index order.
    """
    # Auxiliary trees inherit the caller tree's kernel tier (all tiers are
    # bit-identical, but the whole join should run on the tier the caller
    # selected, not silently fall back to the environment default).
    kernel = data_tree.kernel_name if data_tree is not None else None
    if candidate_indices is None:
        cand_sorted = None
        if data_tree is None:
            data_tree = KDTree(
                points, leaf_size=leaf_size, counter=counter, kernel=kernel
            )
        rho_data = rho
    else:
        cand_sorted = np.sort(np.asarray(candidate_indices, dtype=np.intp))
        data_tree = KDTree(
            points[cand_sorted], leaf_size=leaf_size, counter=counter, kernel=kernel
        )
        rho_data = rho[cand_sorted]

    if qi is None and cand_sorted is None:
        queries_tree = data_tree
        rho_q = rho
    else:
        q_arr = qi if qi is not None else np.arange(points.shape[0], dtype=np.intp)
        queries_tree = KDTree.for_queries(points[q_arr], data_tree, dtype="float64")
        rho_q = rho[q_arr]
    return data_tree, rho_data, queries_tree, rho_q, cand_sorted


def _dual_join(
    points: np.ndarray,
    rho: np.ndarray,
    qi: np.ndarray | None,
    candidate_indices,
    tree: KDTree | None,
    leaf_size: int,
    frontier_target: int,
    executor,
    counter: WorkCounter,
    task_builder,
    seed_dependent=None,
    seed_delta_sq=None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Dual-tree nearest-denser join over the query-subtree frontier."""
    data_tree, rho_data, queries_tree, rho_q, cand_sorted = build_join_trees(
        points, rho, qi, candidate_indices, leaf_size,
        data_tree=tree, counter=counter,
    )
    memory_bytes = 0
    if data_tree is not tree:
        memory_bytes += data_tree.memory_bytes()
    if queries_tree is not data_tree:
        memory_bytes += queries_tree.memory_bytes()
    n_q = rho_q.shape[0]

    q_nodes = queries_tree.node_frontier(frontier_target)
    token = secrets.token_hex(8)

    def payload_fn(chunk: np.ndarray) -> dict:
        return {
            "token": token,
            "rho": rho,
            "undecided": qi,
            "candidates": cand_sorted,
            "leaf_size": leaf_size,
            "q_nodes": q_nodes[chunk],
            "seed_idx": seed_dependent,
            "seed_sq": seed_delta_sq,
        }

    # In-process the task joins the trees built above; process workers
    # rebuild them once per phase from the shared points (same node ids).
    task = task_builder(
        kernel_dual_nn,
        payload_fn=payload_fn,
        state={token: (data_tree, rho_data, queries_tree, rho_q)},
    )
    results = executor.map_index_chunks(
        task, len(q_nodes), chunks_per_worker=_chunks_per_worker(executor)
    )
    dependent = np.full(n_q, -1, dtype=np.intp)
    delta = np.full(n_q, np.inf, dtype=np.float64)
    for cov, idx, dist in results:
        dependent[cov] = idx
        delta[cov] = dist
    if cand_sorted is not None:
        dependent = np.where(
            dependent >= 0, cand_sorted[np.clip(dependent, 0, None)], -1
        )
    return dependent, delta, memory_bytes


def attach_targets(
    tree: KDTree,
    rho_train,
    queries: np.ndarray,
    rho_q: np.ndarray,
) -> np.ndarray:
    """Dependency target of each out-of-sample query (``predict`` phase).

    Joins a throwaway tree over the queries against the fitted tree
    (:meth:`~repro.index.kdtree.KDTree.nn_dual_vs`) in one traversal on the
    calling thread, which is backend-invariant by construction.  Queries denser
    than every fitted point attach to their plain nearest neighbour (serving
    cannot mint new clusters).
    """
    rho_train = np.asarray(rho_train, dtype=np.float64)
    if queries.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    queries_tree = KDTree.for_queries(queries, tree, dtype="float64")
    targets, _ = tree.nn_dual_vs(queries_tree, rho_train, rho_q)
    unresolved = np.flatnonzero(targets < 0)
    if unresolved.size:
        nn_idx, _ = tree.nearest_neighbor_batch(queries[unresolved])
        targets[unresolved] = nn_idx
    return targets


def repair_nearest_denser(
    points: np.ndarray,
    rho: np.ndarray,
    queries: np.ndarray,
    rho_q: np.ndarray,
    *,
    engine: str,
    counter: WorkCounter | None = None,
    leaf_size: int = 32,
    kernel: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Recompute ``(dependent, delta)`` for a streaming dirty set.

    The streaming layer's repair is the same nearest-denser join over the
    current window (no attach fallback: a point denser than all others is
    the forest root).  Small dirty sets run the vectorised brute-force scan;
    with ``engine="dual"`` and enough work to amortise two tree builds, the
    dual join takes over.  Both paths follow the shared contract, so the
    choice never changes a single bit of the result.
    """
    n = points.shape[0]
    n_q = queries.shape[0]
    if (
        engine == "dual"
        and n_q
        and float(n_q) * float(n) >= _DUAL_REPAIR_MIN_WORK
    ):
        data_tree = KDTree(points, leaf_size=leaf_size, counter=counter, kernel=kernel)
        queries_tree = KDTree.for_queries(queries, data_tree)
        return data_tree.nn_dual_vs(queries_tree, rho, rho_q)
    return nearest_denser_bruteforce(
        points,
        rho,
        queries,
        rho_q,
        attach_fallback=False,
        counter=counter,
        return_distance=True,
    )
