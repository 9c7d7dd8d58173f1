"""Approx-DPC: the parameter-free approximate algorithm of §4.

Approx-DPC keeps Ex-DPC's exact local densities but removes its two
weaknesses:

* **Joint range search** (§4.2).  Points in the same grid cell (side length
  ``d_cut / sqrt(d)``) have heavily overlapping range-search balls, so one
  range search per *cell* -- centred at the cell center with radius
  ``d_cut + max_{p in c} dist(center, p)`` -- returns a superset of every
  member's ball.  Each member's exact density is then obtained by scanning
  that single result set.
* **Cell-based dependent-point approximation** (§4.3).  A point that is not
  the densest of its cell takes the cell's densest point ``p*(c)`` as its
  approximate dependent point (their distance is at most ``d_cut``).  A cell
  maximum looks for a neighbouring cell whose minimum density exceeds its own;
  only the points for which neither rule applies fall back to the exact
  nearest-denser search of the unified join layer
  (:func:`repro.core.dependency_join.nearest_denser_join`: the paper's
  partition-based search for the scalar/batch engines, a dual-tree
  nearest-denser join for ``engine="dual"``).

Because the approximation only ever assigns dependent distances of exactly
``d_cut`` -- and computes the exact dependent distance whenever it exceeds
``d_cut`` -- the algorithm selects the same cluster centers as Ex-DPC for any
``delta_min > d_cut`` (Theorem 4).

Every phase is embarrassingly parallel; tasks are partitioned over threads
with the cost-based greedy LPT policy of §4.5, which is what the recorded
parallel profile reproduces.

With ``engine="batch"`` (what the default ``engine="auto"`` resolves to above
``AUTO_DUAL_MAX_DIM`` dimensions), the joint range searches and the exact
dependency fallback are issued as chunked vectorised batch queries
(:meth:`repro.index.kdtree.KDTree.range_search_batch`,
:meth:`repro.core.dependency_join.PartitionedDependencySearcher.query_batch`)
that produce results identical to the scalar per-cell code; on
low-dimensional data ``"auto"`` runs them as dual-tree joins instead
(:meth:`repro.index.kdtree.KDTree.range_search_dual_vs`), again with
identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dependency_join import nearest_denser_join
from repro.core.framework import DensityPeaksBase
from repro.index.grid import UniformGrid, distinct_lattice_keys
from repro.index.kdtree import KDTree, check_storage_dtype
from repro.parallel.backends import kernel_joint_density
from repro.utils.counters import WorkCounter
from repro.utils.distance import point_to_points_sq

__all__ = ["ApproxDPC", "CellDensitySummary", "cell_density_summary"]


@dataclass
class CellDensitySummary:
    """Result of one cell's density scan (picklable; see §4.2).

    Produced by :func:`cell_density_summary` for one grid cell: the exact
    member densities read off the joint range-search result, the cell's
    densest point, the ``N(c)`` neighbour keys, and the bookkeeping the cost
    model and work counters need.
    """

    counts: np.ndarray
    best_point: int
    neighbor_keys: list[tuple[int, ...]]
    n_candidates: int
    n_distance_calcs: float


def cell_density_summary(
    points: np.ndarray,
    lattice: np.ndarray,
    members: np.ndarray,
    candidates: np.ndarray,
    d_cut_sq: float,
    cell_key: tuple[int, ...],
) -> CellDensitySummary:
    """Exact member densities and cell bookkeeping from one joint result.

    Shared by the scalar and dual per-cell scans and the batch engine's
    chunk kernel (:func:`repro.parallel.backends.kernel_joint_density`), so
    every engine and backend performs bit-identical arithmetic on identical
    inputs.
    """
    candidate_points = points[candidates]
    member_points = points[members]

    # Exact density of every member by scanning the shared result.
    diffs_sq = (
        np.einsum("ij,ij->i", member_points, member_points)[:, None]
        + np.einsum("ij,ij->i", candidate_points, candidate_points)[None, :]
        - 2.0 * member_points @ candidate_points.T
    )
    np.maximum(diffs_sq, 0.0, out=diffs_sq)
    counts = (diffs_sq < d_cut_sq).sum(axis=1)

    # Cell bookkeeping: densest point and N(c).
    best_pos = int(np.argmax(counts))
    best_point = int(members[best_pos])
    best_sq = point_to_points_sq(points[best_point], candidate_points)
    close = candidates[best_sq < d_cut_sq]
    neighbor_keys = distinct_lattice_keys(lattice, close, exclude=cell_key)

    n_distance_calcs = float(members.size) * float(candidates.size) + float(
        candidates.size
    )
    return CellDensitySummary(
        counts=counts,
        best_point=best_point,
        neighbor_keys=neighbor_keys,
        n_candidates=int(candidates.size),
        n_distance_calcs=n_distance_calcs,
    )


class ApproxDPC(DensityPeaksBase):
    """Approximate DPC with exact densities and cell-level dependencies (§4).

    Parameters
    ----------
    d_cut:
        Cutoff distance of Definition 1.
    rho_min, delta_min, n_clusters, n_jobs, seed, record_costs, engine:
        See :class:`repro.core.framework.DensityPeaksBase`.
    leaf_size:
        Leaf bucket size of the kd-tree.
    n_partitions:
        Number of density partitions ``s`` used by the exact dependency
        fallback.  ``None`` (default) applies Equation (2) of the paper.
    dtype:
        Point-storage dtype of the kd-tree (``"float64"`` or ``"float32"``).
    """

    algorithm_name = "Approx-DPC"

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
        n_partitions: int | None = None,
        engine: str | None = None,
        dtype: str = "float64",
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
            kernel=kernel,
        )
        self.leaf_size = leaf_size
        self.n_partitions = n_partitions
        self.dtype = check_storage_dtype(dtype).name
        self._tree: KDTree | None = None
        self._grid: UniformGrid | None = None
        self._fallback_memory = 0

    # ------------------------------------------------------------------ index

    def _build_index(self, points: np.ndarray) -> None:
        self._tree = KDTree(
            points,
            leaf_size=self.leaf_size,
            counter=self._counter,
            dtype=self.dtype,
            kernel=self.kernel,
        )
        cell_side = self.d_cut / np.sqrt(points.shape[1])
        self._grid = UniformGrid(points, cell_side)
        self._fallback_memory = 0

    def get_params(self):
        params = super().get_params()
        params["leaf_size"] = self.leaf_size
        params["n_partitions"] = self.n_partitions
        params["dtype"] = self.dtype
        return params

    def _index_memory_bytes(self) -> int:
        total = 0
        if self._tree is not None:
            total += self._tree.memory_bytes()
        if self._grid is not None:
            total += self._grid.memory_bytes()
        return total + self._fallback_memory

    def _kernel_arrays(self):
        return {"lattice": self._grid.lattice}

    # ---------------------------------------------------------------- density

    def _compute_local_density(self, points: np.ndarray) -> np.ndarray:
        tree = self._tree
        grid = self._grid
        lattice = grid.lattice
        n = points.shape[0]
        d_cut = self.d_cut
        d_cut_sq = d_cut * d_cut
        rho = np.zeros(n, dtype=np.float64)

        cells = grid.cells()
        range_costs = np.zeros(len(cells), dtype=np.float64)
        scan_costs = np.zeros(len(cells), dtype=np.float64)

        def summarize(position: int, candidates: np.ndarray) -> CellDensitySummary:
            cell = cells[position]
            summary = cell_density_summary(
                points, lattice, cell.point_indices, candidates, d_cut_sq, cell.key
            )
            self._counter.add("distance_calcs", summary.n_distance_calcs)
            return summary

        # Joint range search of cell c: center c, radius d_cut + max member
        # distance from the center (covers every member's d_cut-ball).
        centers = np.stack([cell.center for cell in cells])
        radii = np.asarray(
            [d_cut + cell.max_center_dist for cell in cells], dtype=np.float64
        )
        if self.engine_ == "dual":
            # Dual-tree joint range search (§4.2 over node pairs): one
            # simultaneous traversal of a small tree over the cell centers
            # (with per-center radii) against the point tree answers every
            # cell's joint search at once, producing the exact candidate
            # sets the batch engine materialises.  The join runs driver-side
            # -- it is cheap and backend-invariant -- and the per-cell
            # density scans are parallelised over cell chunks as usual
            # (threads under the process backend; the scan is identical
            # arithmetic on identical inputs on every backend).
            centers_tree = KDTree(
                centers,
                leaf_size=self.leaf_size,
                counter=WorkCounter(),
                dtype=tree.dtype_name,
                kernel=tree.kernel_name,
            )
            candidate_lists = tree.range_search_dual_vs(
                centers_tree, radii, strict=False
            )

            def scan_cell_chunk(chunk: np.ndarray) -> list[CellDensitySummary]:
                return [
                    summarize(int(position), candidate_lists[int(position)])
                    for position in chunk
                ]

            chunk_summaries = self._executor.map_index_chunks(
                scan_cell_chunk, len(cells)
            )
            summaries = [summary for chunk in chunk_summaries for summary in chunk]
        elif self.engine_ == "batch":
            # One batch kd-tree traversal answers the joint range search of
            # every cell in a chunk.  The payload is sliced per chunk so each
            # process-backend submission carries only its own cells'
            # centers/radii/members; the tree and lattice travel through
            # shared memory.
            def payload_fn(chunk: np.ndarray) -> dict:
                return {
                    "d_cut": d_cut,
                    "centers": centers[chunk],
                    "radii": radii[chunk],
                    "members": [cells[int(p)].point_indices for p in chunk],
                    "cell_keys": [cells[int(p)].key for p in chunk],
                }

            task = self._chunk_task(kernel_joint_density, payload_fn=payload_fn)
            chunk_summaries = self._executor.map_index_chunks(task, len(cells))
            summaries = [summary for chunk in chunk_summaries for summary in chunk]
        else:
            def process_cell(position: int) -> CellDensitySummary:
                candidates = tree.range_search(
                    centers[position], radii[position], strict=False
                )
                return summarize(position, candidates)

            summaries = self._executor.map(process_cell, list(range(len(cells))))

        # Scatter the (backend-agnostic) per-cell summaries: exact member
        # densities, densest point, density extrema, N(c), and the §4.5 cost
        # model inputs.
        for position, (cell, summary) in enumerate(zip(cells, summaries)):
            members = cell.point_indices
            rho[members] = summary.counts
            cell.best_point = summary.best_point
            cell.min_density = float(summary.counts.min())
            cell.max_density = float(summary.counts.max())
            cell.neighbor_cells = summary.neighbor_keys
            range_costs[position] = members.size
            scan_costs[position] = members.size * max(summary.n_candidates, 1)

        # §4.5: the range-search pass is balanced by |P(c)|, the scan pass by
        # |P(c)| * |R(...)|; both use the greedy LPT partitioner.
        self._record_phase("local_density:range", "greedy", range_costs)
        self._record_phase("local_density:scan", "greedy", scan_costs)
        return rho

    # ------------------------------------------------------------ dependencies

    def _compute_dependencies(
        self, points: np.ndarray, rho: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        grid = self._grid
        n = points.shape[0]
        d_cut = self.d_cut

        dependent = np.full(n, -1, dtype=np.intp)
        delta = np.full(n, np.inf, dtype=np.float64)
        exact_mask = np.zeros(n, dtype=bool)
        undecided: list[int] = []

        # Refresh per-cell extrema against the tie-broken densities so that the
        # "denser" relation used below is a strict total order.
        for cell in grid:
            members = cell.point_indices
            member_rho = rho[members]
            cell.best_point = int(members[int(np.argmax(member_rho))])
            cell.min_density = float(member_rho.min())
            cell.max_density = float(member_rho.max())

        # Approximate rules (O(1) per point).
        for cell in grid:
            best = cell.best_point
            for index in cell.point_indices:
                index = int(index)
                if index != best:
                    dependent[index] = best
                    delta[index] = d_cut
                    continue
                # Cell maximum: look for a neighbouring cell that is denser
                # everywhere.
                assigned = False
                for key in cell.neighbor_cells:
                    other = grid.cell(key)
                    if other.min_density > rho[index]:
                        dependent[index] = other.best_point
                        delta[index] = d_cut
                        assigned = True
                        break
                if not assigned:
                    undecided.append(index)

        approx_count = n - len(undecided)
        self._record_phase(
            "dependency:approx", "greedy", np.ones(max(approx_count, 1))
        )

        # Exact fallback for the undecided cell maxima (§4.3, "Exact
        # computation"), routed through the unified nearest-denser join.
        if undecided:
            undecided_arr = np.asarray(undecided, dtype=np.intp)
            outcome = nearest_denser_join(
                points,
                rho,
                engine=self.engine_,
                executor=self._executor,
                counter=self._counter,
                query_indices=undecided_arr,
                tree=self._tree,
                leaf_size=self.leaf_size,
                n_partitions=self.n_partitions,
                frontier_target=self._dual_frontier,
                task_builder=self._chunk_task,
            )
            dependent[undecided_arr] = outcome.dependent
            delta[undecided_arr] = outcome.delta
            exact_mask[undecided_arr] = True
            self._fallback_memory = outcome.memory_bytes
            self._record_phase("dependency:exact", "greedy", outcome.cost_estimates)

        return dependent, delta, exact_mask
