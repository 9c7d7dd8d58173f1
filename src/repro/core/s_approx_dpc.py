"""S-Approx-DPC: the sampling-based approximate algorithm of §5.

S-Approx-DPC trades a user-controlled amount of accuracy for speed by turning
point clustering into *cell* clustering.  It overlays the data with a grid
whose cells have side ``epsilon * d_cut / sqrt(d)`` and picks one
representative point per cell:

* **Local density** is computed only for picked points (one kd-tree range
  count each); non-picked points never run a range search.
* **Dependencies.**  A non-picked point takes the picked point of its cell as
  its approximate dependent point.  Picked points run a two-phase procedure:

  - *first phase*: if a neighbouring cell (a member of ``N(c)``) holds a
    denser picked point, take it -- the dependent distance is bounded by
    ``(1 + epsilon) * d_cut``;
  - *second phase*: the remaining picked points become the roots of
    *temporary clusters*.  For each such root the algorithm first finds the
    nearest denser root, then uses the triangle inequality (with each
    temporary cluster's radius) to prune whole clusters that cannot contain a
    closer denser picked point, and scans only the survivors.

  When the number of undecided roots is too large for the quadratic
  root-to-root pass (the paper assumes ``|P'_pick|^2 <= O(n)``), the
  implementation falls back to the same unified nearest-denser join used by
  Approx-DPC (:func:`repro.core.dependency_join.nearest_denser_join`),
  restricted to picked points as the candidate set.

Larger ``epsilon`` means fewer cells, fewer range searches, and a coarser
result (Table 5); ``epsilon -> 0`` degenerates towards Approx-DPC's grid.

With ``engine="batch"`` (what the default ``engine="auto"`` resolves to above
``AUTO_DUAL_MAX_DIM`` dimensions), the per-cell range searches and the
partitioned exact fallback are issued as chunked vectorised batch queries
that produce results identical to the scalar per-cell code; on
low-dimensional data ``"auto"`` runs them as dual-tree joins instead, again
with identical results.
"""

from __future__ import annotations

import numpy as np

from repro.core.dependency_join import nearest_denser_join
from repro.core.framework import DensityPeaksBase
from repro.index.grid import distinct_lattice_keys
from repro.index.kdtree import KDTree, check_storage_dtype
from repro.index.sample_grid import SampledGrid
from repro.parallel.backends import kernel_picked_density
from repro.utils.counters import WorkCounter
from repro.utils.distance import point_to_points_sq
from repro.utils.validation import check_positive

__all__ = ["SApproxDPC"]


class SApproxDPC(DensityPeaksBase):
    """Sampling-based approximate DPC (§5 of the paper).

    Parameters
    ----------
    d_cut:
        Cutoff distance of Definition 1.
    epsilon:
        Approximation parameter (> 0).  The grid cell side is
        ``epsilon * d_cut / sqrt(d)``; larger values mean faster, coarser
        clustering.
    rho_min, delta_min, n_clusters, n_jobs, seed, record_costs, engine:
        See :class:`repro.core.framework.DensityPeaksBase`.  Note that
        ``rho_min`` only applies to picked points (non-picked points inherit
        their representative's density), mirroring §5.
    leaf_size:
        Leaf bucket size of the kd-tree.
    fallback_factor:
        The second phase switches to the partition-based exact search when
        ``|P'_pick|^2 > fallback_factor * n``.
    """

    algorithm_name = "S-Approx-DPC"

    def __init__(
        self,
        d_cut: float,
        epsilon: float = 0.5,
        *,
        rho_min: float | None = None,
        delta_min: float | None = None,
        n_clusters: int | None = None,
        n_jobs: int = 1,
        backend: str | None = None,
        seed: int | None = 0,
        record_costs: bool = True,
        leaf_size: int = 32,
        fallback_factor: float = 4.0,
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
        self.epsilon = check_positive(epsilon, "epsilon")
        self.leaf_size = leaf_size
        self.fallback_factor = check_positive(fallback_factor, "fallback_factor")
        self.dtype = check_storage_dtype(dtype).name
        self._tree: KDTree | None = None
        self._grid: SampledGrid | None = None
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
        cell_side = self.epsilon * self.d_cut / np.sqrt(points.shape[1])
        self._grid = SampledGrid(points, cell_side)
        self._fallback_memory = 0

    def get_params(self):
        params = super().get_params()
        params["epsilon"] = self.epsilon
        params["leaf_size"] = self.leaf_size
        params["fallback_factor"] = self.fallback_factor
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
        rho = np.zeros(n, dtype=np.float64)

        cells = grid.cells()
        picked_arr = np.asarray([cell.picked for cell in cells], dtype=np.intp)
        costs = np.zeros(len(cells), dtype=np.float64)

        def summarize(position: int, neighbors: np.ndarray) -> tuple[float, list]:
            # A strict range search already returns exactly the points within
            # d_cut of the picked point, so N(c) is read straight off it.
            cell = cells[position]
            keys = distinct_lattice_keys(lattice, neighbors, exclude=cell.key)
            return float(neighbors.size), keys

        if self.engine_ == "dual":
            # Dual-tree picked-point range search: one simultaneous
            # traversal of a small tree over the picked representatives
            # against the point tree answers every cell's range search at
            # once (inclusion-credited subtrees materialise their hits
            # straight from the permutation, no distance computations); the
            # per-cell summaries then run over the identical neighbour sets
            # the batch engine produces.
            picked_tree = KDTree(
                points[picked_arr],
                leaf_size=self.leaf_size,
                counter=WorkCounter(),
                dtype=tree.dtype_name,
                kernel=tree.kernel_name,
            )
            neighbor_lists = tree.range_search_dual_vs(
                picked_tree, d_cut, strict=True
            )

            def summarize_chunk(chunk: np.ndarray) -> list[tuple[float, list]]:
                return [
                    summarize(int(position), neighbor_lists[int(position)])
                    for position in chunk
                ]

            chunk_results = self._executor.map_index_chunks(
                summarize_chunk, len(cells)
            )
            summaries = [summary for chunk in chunk_results for summary in chunk]
        elif self.engine_ == "batch":
            task = self._chunk_task(
                kernel_picked_density,
                payload_fn=lambda chunk: {"d_cut": d_cut, "picked": picked_arr[chunk]},
            )
            chunk_results = self._executor.map_index_chunks(task, len(cells))
            summaries = [summary for chunk in chunk_results for summary in chunk]
        else:
            def process_cell(position: int) -> tuple[float, list]:
                neighbors = tree.range_search(
                    points[picked_arr[position]], d_cut, strict=True
                )
                return summarize(position, neighbors)

            summaries = self._executor.map(process_cell, list(range(len(cells))))

        for position, (cell, (density, neighbor_keys)) in enumerate(
            zip(cells, summaries)
        ):
            cell.density = density
            rho[cell.picked] = density
            cell.neighbor_cells = neighbor_keys
            costs[position] = density + 1.0

        # Non-picked points inherit their representative's density (the paper
        # exempts them from rho_min; sharing the picked density keeps the
        # noise decision consistent within a cell).
        for cell in cells:
            members = cell.point_indices
            rho[members] = np.where(rho[members] > 0.0, rho[members], cell.density)

        self._record_phase("local_density", "greedy", costs)
        return rho

    # ----------------------------------------------------------------- predict

    def _predict_density(self, queries: np.ndarray, executor) -> np.ndarray:
        """Out-of-sample density with the §5 cell-inheritance rule.

        A query falling into a non-empty fitted cell inherits that cell's
        density -- exactly what ``fit`` assigns to the cell's own members, so
        predicting a training point reproduces its fitted density.  Queries in
        brand-new cells behave like freshly picked representatives: one dual
        range count against the fitted tree.

        The cell map is derived from the stored points and raw densities (all
        members of a cell share its density), not from the fitted grid object,
        so restored snapshots (which persist no grid) predict identically.
        """
        result = self.check_is_fitted()
        cell_side = self.epsilon * self.d_cut / np.sqrt(self._fit_points_.shape[1])

        cached = getattr(self, "_predict_cells_cache", None)
        if cached is not None and cached[0] is result:
            density_of = cached[1]
        else:
            train_lattice = np.floor(self._fit_points_ / cell_side).astype(np.int64)
            rho_raw = np.asarray(result.rho_raw_, dtype=np.float64)
            density_of: dict[tuple[int, ...], float] = {}
            for key, value in zip(map(tuple, train_lattice.tolist()), rho_raw.tolist()):
                density_of.setdefault(key, value)
            self._predict_cells_cache = (result, density_of)

        rho_q = np.full(queries.shape[0], -1.0, dtype=np.float64)
        query_lattice = np.floor(queries / cell_side).astype(np.int64)
        for position, key in enumerate(map(tuple, query_lattice.tolist())):
            hit = density_of.get(key)
            if hit is not None:
                rho_q[position] = hit

        unknown = np.flatnonzero(rho_q < 0.0)
        if unknown.size:
            rho_q[unknown] = self._dual_density_vs_tree(
                self._predict_tree(), queries[unknown]
            ).astype(np.float64)
        return rho_q

    # ------------------------------------------------------------ dependencies

    def _compute_dependencies(
        self, points: np.ndarray, rho: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        grid = self._grid
        n = points.shape[0]

        dependent = np.full(n, -1, dtype=np.intp)
        delta = np.full(n, np.inf, dtype=np.float64)
        exact_mask = np.zeros(n, dtype=bool)

        cells = grid.cells()
        picked_indices = grid.picked_points()
        picked_set = set(int(i) for i in picked_indices)

        # Non-picked points: dependent point is the cell's picked point.
        for cell in cells:
            picked = cell.picked
            members = cell.point_indices
            others = members[members != picked]
            if others.size == 0:
                continue
            dependent[others] = picked
            self._counter.add("distance_calcs", float(others.size))
            delta[others] = np.sqrt(
                point_to_points_sq(points[picked], points[others])
            )

        self._record_phase(
            "dependency:cells", "greedy", np.ones(max(len(cells), 1))
        )

        # First phase for picked points: a denser picked point in a
        # neighbouring cell, if one exists.
        undecided: list[int] = []
        for cell in cells:
            picked = int(cell.picked)
            best_neighbor = -1
            best_rho = rho[picked]
            for key in cell.neighbor_cells:
                other = grid.cell(key)
                other_picked = int(other.picked)
                if rho[other_picked] > best_rho:
                    best_rho = rho[other_picked]
                    best_neighbor = other_picked
            if best_neighbor >= 0:
                dependent[picked] = best_neighbor
                self._counter.add("distance_calcs", 1.0)
                delta[picked] = float(
                    np.sqrt(point_to_points_sq(points[picked], points[[best_neighbor]])[0])
                )
            else:
                undecided.append(picked)

        self._record_phase(
            "dependency:phase1", "greedy", np.ones(max(len(picked_indices), 1))
        )

        # Second phase: undecided picked points (roots of temporary clusters).
        if undecided:
            if len(undecided) ** 2 > self.fallback_factor * n:
                self._resolve_roots_partitioned(
                    points, rho, picked_indices, undecided, dependent, delta, exact_mask
                )
            else:
                self._resolve_roots_temporary_clusters(
                    points, rho, picked_indices, picked_set, undecided,
                    dependent, delta, exact_mask,
                )

        return dependent, delta, exact_mask

    # ----------------------------------------------------------------- helpers

    def _resolve_roots_partitioned(
        self,
        points: np.ndarray,
        rho: np.ndarray,
        picked_indices: np.ndarray,
        undecided: list[int],
        dependent: np.ndarray,
        delta: np.ndarray,
        exact_mask: np.ndarray,
    ) -> None:
        """Fallback: exact nearest-denser join restricted to picked points."""
        undecided_arr = np.asarray(undecided, dtype=np.intp)
        outcome = nearest_denser_join(
            points,
            rho,
            engine=self.engine_,
            executor=self._executor,
            counter=self._counter,
            query_indices=undecided_arr,
            candidate_indices=picked_indices,
            tree=self._tree,
            leaf_size=self.leaf_size,
            frontier_target=self._dual_frontier,
            task_builder=self._chunk_task,
        )
        dependent[undecided_arr] = outcome.dependent
        delta[undecided_arr] = outcome.delta
        exact_mask[undecided_arr] = True
        self._fallback_memory = outcome.memory_bytes
        self._record_phase("dependency:phase2", "greedy", outcome.cost_estimates)

    def _resolve_roots_temporary_clusters(
        self,
        points: np.ndarray,
        rho: np.ndarray,
        picked_indices: np.ndarray,
        picked_set: set[int],
        undecided: list[int],
        dependent: np.ndarray,
        delta: np.ndarray,
        exact_mask: np.ndarray,
    ) -> None:
        """§5 second phase: temporary clusters plus triangle-inequality pruning."""
        undecided_arr = np.asarray(undecided, dtype=np.intp)
        undecided_set = set(int(i) for i in undecided)

        # (1) Form temporary clusters: follow first-phase dependencies from
        # every picked point up to its root (an undecided picked point).
        members_of: dict[int, list[int]] = {int(i): [int(i)] for i in undecided}
        for picked in picked_indices:
            picked = int(picked)
            if picked in undecided_set:
                continue
            node = picked
            while node not in undecided_set:
                parent = int(dependent[node])
                if parent < 0 or parent == node or parent not in picked_set:
                    break
                node = parent
            if node in members_of and picked != node:
                members_of[node].append(picked)

        # (2) Radius of every temporary cluster.
        radius_of: dict[int, float] = {}
        for root, members in members_of.items():
            member_arr = np.asarray(members, dtype=np.intp)
            dists_sq = point_to_points_sq(points[root], points[member_arr])
            radius_of[root] = float(np.sqrt(dists_sq.max())) if member_arr.size else 0.0

        # (3) Nearest denser root for every undecided root (the pruning bound).
        costs = np.zeros(len(undecided), dtype=np.float64)
        root_rho = rho[undecided_arr]
        for position, index in enumerate(undecided_arr):
            index = int(index)
            denser = undecided_arr[root_rho > rho[index]]
            if denser.size == 0:
                # Globally densest picked point: no dependent point exists.
                delta[index] = np.inf
                dependent[index] = -1
                exact_mask[index] = True
                continue
            self._counter.add("distance_calcs", float(denser.size))
            d_sq = point_to_points_sq(points[index], points[denser])
            nearest_pos = int(np.argmin(d_sq))
            bound = float(np.sqrt(d_sq[nearest_pos]))
            best_idx = int(denser[nearest_pos])
            best_dist = bound

            # (4) Prune temporary clusters that cannot contain anything closer,
            # scan the survivors.
            scanned = 0
            for root, members in members_of.items():
                if root == index:
                    continue
                root_dist = float(
                    np.sqrt(point_to_points_sq(points[index], points[[root]])[0])
                )
                if root_dist - radius_of[root] > best_dist:
                    continue
                member_arr = np.asarray(members, dtype=np.intp)
                denser_members = member_arr[rho[member_arr] > rho[index]]
                if denser_members.size == 0:
                    continue
                scanned += denser_members.size
                self._counter.add("distance_calcs", float(denser_members.size) + 1.0)
                d_sq_members = point_to_points_sq(points[index], points[denser_members])
                pos = int(np.argmin(d_sq_members))
                if d_sq_members[pos] < best_dist * best_dist:
                    best_dist = float(np.sqrt(d_sq_members[pos]))
                    best_idx = int(denser_members[pos])

            dependent[index] = best_idx
            delta[index] = best_dist
            exact_mask[index] = True
            costs[position] = denser.size + scanned

        # This quadratic pass parallelises over the undecided roots.
        self._record_phase("dependency:phase2", "greedy", np.maximum(costs, 1.0))
