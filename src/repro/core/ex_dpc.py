"""Ex-DPC: the exact density-peaks clustering algorithm of §3.

Local densities are computed with one kd-tree range count per point
(``O(n(n^{1-1/d} + rho_avg))`` under Assumption 1).  The default
``engine="auto"`` resolves per fit by dimension: ``"dual"`` up to
``AUTO_DUAL_MAX_DIM`` (5) dimensions, where the counts come from one
dual-tree self-join (:meth:`repro.index.kdtree.KDTree.range_count_dual`),
and ``"batch"`` above, where they are issued as chunked vectorised batch
queries (:meth:`repro.index.kdtree.KDTree.range_count_batch`).  Every engine
produces identical results.

Dependent points are computed exactly; the strategy follows the engine:

* ``engine="scalar"`` keeps the paper's incremental-tree idea: points are
  sorted in descending order of (tie-broken) local density and inserted one
  by one into an initially empty kd-tree; right before inserting point
  ``p_i`` the tree contains exactly the points denser than ``p_i``, so a
  nearest-neighbour query on the current tree returns ``p_i``'s dependent
  point.  This phase is inherently sequential (§3) because the tree must be
  grown in density order.
* ``engine="batch"`` routes the whole point set through the unified
  nearest-denser join layer's partition-based search
  (:func:`repro.core.dependency_join.nearest_denser_join`, the §4.3
  machinery over *all* points), which is both faster and embarrassingly
  parallel -- every query is independent.
* ``engine="dual"`` runs the dependency phase as a dual-tree nearest-denser
  *self-join* (:meth:`repro.index.kdtree.KDTree.range_nn_dual`): one
  simultaneous traversal with per-query best-distance bounds and per-node
  density maxima replaces the ``n`` individual searches.

All three strategies return bit-for-bit identical dependencies, deltas and
labels (the shared lexicographic tie-break and arithmetic contract of
:mod:`repro.core.dependency_join`; property-tested).

Parallelization (§3, "Implementation for parallel processing"): the density
phase is embarrassingly parallel and is scheduled dynamically (OpenMP
``schedule(dynamic)`` in the paper) because per-point costs are unknown in
advance.  The scalar dependency phase is recorded as one sequential block --
reproducing Ex-DPC's thread-scaling plateau (Figure 9) -- while the
batch/dual joins are recorded as dynamically scheduled parallel work.
"""

from __future__ import annotations

import numpy as np

from repro.core.dependency_join import nearest_denser_join
from repro.core.framework import DensityPeaksBase
from repro.index.kdtree import (
    IncrementalKDTree,
    KDTree,
    check_storage_dtype,
)
from repro.parallel.backends import (
    kernel_dual_self_count,
    kernel_range_count,
    pack_tree_arrays,
)

__all__ = ["ExDPC"]


class ExDPC(DensityPeaksBase):
    """Exact DPC over a kd-tree (§3 of the paper).

    Parameters
    ----------
    d_cut:
        Cutoff distance of Definition 1.
    rho_min, delta_min, n_clusters, n_jobs, seed, record_costs, engine:
        See :class:`repro.core.framework.DensityPeaksBase`.
    leaf_size:
        Leaf bucket size of the kd-tree.
    dtype:
        Point-storage dtype of the kd-tree (``"float64"`` or ``"float32"``;
        see :class:`repro.index.kdtree.KDTree`).  Densities are computed in
        the storage precision; the dependency phase always runs in float64.
    """

    algorithm_name = "Ex-DPC"

    # Ex-DPC is exact: densities and dependencies are pure functions of
    # (points, d_cut, seed), so its fits can be replayed at any d_cut from
    # persisted neighbor profiles (see repro.core.recluster).
    supports_recluster = True

    def __init__(
        self,
        d_cut: float,
        *,
        rho_min: float | None = None,
        delta_min: float | None = None,
        n_clusters: int | None = None,
        n_jobs: int = 1,
        backend: str | None = None,
        seed: int | None = 0,
        record_costs: bool = True,
        leaf_size: int = 32,
        engine: str | None = None,
        dtype: str = "float64",
        dual_frontier=None,
        kernel: str | None = None,
    ):
        super().__init__(
            d_cut,
            rho_min=rho_min,
            delta_min=delta_min,
            n_clusters=n_clusters,
            n_jobs=n_jobs,
            backend=backend,
            seed=seed,
            record_costs=record_costs,
            engine=engine,
            dual_frontier=dual_frontier,
            kernel=kernel,
        )
        self.leaf_size = leaf_size
        self.dtype = check_storage_dtype(dtype).name
        self._tree: KDTree | None = None

    # ------------------------------------------------------------------ index

    def _build_index(self, points: np.ndarray) -> None:
        self._tree = KDTree(
            points,
            leaf_size=self.leaf_size,
            counter=self._counter,
            dtype=self.dtype,
            kernel=self.kernel,
        )

    def get_params(self):
        params = super().get_params()
        params["leaf_size"] = self.leaf_size
        params["dtype"] = self.dtype
        return params

    def _index_memory_bytes(self) -> int:
        return self._tree.memory_bytes() if self._tree is not None else 0

    def _shared_arrays(self):
        return pack_tree_arrays(self._tree)

    # ---------------------------------------------------------------- density

    def _compute_local_density(self, points: np.ndarray) -> np.ndarray:
        tree = self._tree
        n = points.shape[0]

        if self.engine_ == "dual":
            # Dual-tree self-join: expand the (root, root) pair into a fixed
            # frontier of independent node-pair work units, then traverse
            # each unit's subjoin.  The frontier is the canonical chunking
            # for every backend -- under the process backend the pair slices
            # ship as picklable tasks against the shared-memory tree -- so
            # counts *and* work counters match the serial run bit for bit.
            pairs, base = tree.dual_self_frontier(
                self.d_cut, strict=True, target_pairs=self.dual_frontier_
            )
            task = self._process_task(
                kernel_dual_self_count,
                payload_fn=lambda chunk: {"d_cut": self.d_cut, "pairs": pairs[chunk]},
            )

            def count_pair_chunk(chunk: np.ndarray) -> np.ndarray:
                return tree.range_count_dual_pairs(
                    pairs[chunk], self.d_cut, strict=True
                )

            contributions = self._executor.map_index_chunks(
                count_pair_chunk, len(pairs), task=task
            )
            rho = base.astype(np.float64)
            for contribution in contributions:
                rho += contribution
        elif self.engine_ == "batch":
            # Chunked batch queries: each worker answers a contiguous block of
            # points with one vectorised tree traversal.  Under the process
            # backend the same computation runs as a picklable chunk task
            # against the shared-memory copy of the flattened tree.
            task = self._process_task(kernel_range_count, {"d_cut": self.d_cut})

            def density_of_chunk(chunk: np.ndarray) -> np.ndarray:
                return tree.range_count_batch(points[chunk], self.d_cut, strict=True)

            counts = self._executor.map_index_chunks(density_of_chunk, n, task=task)
            rho = np.concatenate(counts).astype(np.float64)
        else:
            def density_of(index: int) -> int:
                return tree.range_count(points[index], self.d_cut, strict=True)

            rho = np.asarray(
                self._executor.map(density_of, list(range(n))), dtype=np.float64
            )

        # The range-search cost of point i is O(n^{1-1/d} + rho_i); the paper
        # parallelises this loop with dynamic scheduling because rho_i is not
        # known beforehand.
        traversal = float(n ** (1.0 - 1.0 / points.shape[1]))
        self._record_phase("local_density", "dynamic", rho + traversal)
        return rho

    # ------------------------------------------------------------ dependencies

    def _compute_dependencies(
        self, points: np.ndarray, rho: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = points.shape[0]
        exact_mask = np.ones(n, dtype=bool)
        engine = self.engine_

        if engine != "scalar":
            # Unified nearest-denser join over the full point set: the batch
            # engine classifies (query, partition) pairs over density
            # slices, the dual engine runs one simultaneous tree-vs-itself
            # traversal; both are embarrassingly parallel over queries (and
            # bit-identical to the incremental scalar phase below).
            outcome = nearest_denser_join(
                points,
                rho,
                engine=engine,
                executor=self._executor,
                counter=self._counter,
                tree=self._tree,
                leaf_size=self.leaf_size,
                frontier_target=self.dual_frontier_,
                process_task_builder=self._process_task,
            )
            self._record_phase("dependency", "dynamic", outcome.cost_estimates)
            return outcome.dependent, outcome.delta, exact_mask

        dependent = np.full(n, -1, dtype=np.intp)
        delta = np.full(n, np.inf, dtype=np.float64)
        order = np.argsort(rho, kind="stable")[::-1]

        # Incrementally grow a kd-tree in descending density order: the tree
        # always holds exactly the points denser than the current query.
        incremental = IncrementalKDTree(points, counter=self._counter)
        densest = int(order[0])
        incremental.insert(densest)
        for position in range(1, n):
            index = int(order[position])
            neighbor, distance = incremental.nearest_neighbor(points[index])
            dependent[index] = neighbor
            delta[index] = distance
            incremental.insert(index)

        # Sequential by construction (§3): record the whole phase as one
        # non-parallelisable block so the simulated thread scaling shows the
        # plateau observed in Figure 9.
        self._record_phase("dependency", "sequential", [float(n)])
        return dependent, delta, exact_mask
