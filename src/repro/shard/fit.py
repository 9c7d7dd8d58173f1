"""Sharded out-of-core fit: per-shard shared memory + halo exchange.

:class:`ShardedDPC` runs the exact Ex-DPC lifecycle over ``n_shards``
disjoint shards cut along the kd-tree's own top split planes
(:func:`repro.shard.partition.plan_shards`) so that every tree and
shared-memory segment holds one shard, not the whole dataset:

1. **Density** -- each shard runs its own dual/batch/scalar self-count over
   its own kd-tree, executed through a *per-shard* executor and (under the
   process backend) a per-shard :class:`~repro.parallel.shm.SharedArrayBundle`
   that is unlinked when its stage ends, so the largest segment is bounded
   by the largest shard, not by ``n``.  Cross-border pairs
   are then repaired by *halo exchange*: for every ordered shard pair the
   querying shard's slab of points within ``d_cut`` of the separating plane
   (:func:`repro.shard.partition.slab_indices`) is counted against the
   partner's slab with the same canonical strict range-count kernel, and the
   integer credits are added.  Counting is a pure per-pair function of the
   storage-dtype coordinates, so the credited densities equal the
   single-tree counts bit for bit.
2. **Dependencies** -- each shard resolves its local nearest-denser join
   (:func:`repro.core.dependency_join.nearest_denser_join` over the shard
   tree, same engine dispatch as Ex-DPC), then a cross-shard pass joins each
   shard's still-improvable points against every partner tree
   (:meth:`~repro.index.kdtree.KDTree.nn_dual_vs`), pruned by the partner's
   ``rho_max`` aggregate and a float-safe bounding-box test.  All merges
   compare canonical float64 squared distances recomputed from the original
   coordinates (never the sqrt'd outputs), with exact ties resolved to the
   smallest global index -- the shared join contract -- so the final
   ``(rho_, delta_, labels_)`` is bit-identical to a single-shard fit.

Both phases are expressed as per-shard / per-pair *building blocks*
(:meth:`~ShardedDPC._build_shard_tree`, :meth:`~ShardedDPC._shard_self_counts`,
:meth:`~ShardedDPC._halo_pair`, :meth:`~ShardedDPC._local_join`,
:meth:`~ShardedDPC._cross_pass_shard`) whose outputs combine commutatively.
One driver runs them: :class:`repro.shard.pipeline.ShardPipeline`, a stage
DAG on ``pipeline_workers`` threads.  Without ``memory_budget_bytes`` it
runs one stage at a time by default; under a budget it overlaps stages of
different shards while they fit the budget and spills finished shard trees
to disk (mmapped back on demand).

Streaming input: ``fit`` also accepts a path to a ``.npy``/``.npz`` file
(memory-mapped, never fully materialised) or an *iterator* of ``(m, d)``
chunks (spooled once to a float64 memmap), with the shard plan computed by
:func:`repro.shard.partition.plan_shards_streaming`.

The equivalence is property-tested across ``n_shards x engine x dtype`` (and
across budgets and worker counts, including work counters) in
``tests/property/test_shard_equivalence.py``.  Work counters differ from the
single-tree fit only by documented shard-accounting deltas (halo pairs are
counted from both sides, per-shard tree builds replace one big build); see
``docs/sharding.md``.
"""

from __future__ import annotations

import tempfile
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core.dependency_join import nearest_denser_join
from repro.core.ex_dpc import ExDPC, strict_self_counts
from repro.index.kdtree import KDTree
from repro.kernels import pair_distances_sq, squared_norms
from repro.parallel.backends import TaskBuilder
from repro.parallel.executor import ParallelExecutor, resolve_n_jobs
from repro.shard.partition import (
    ShardPlan,
    plan_shards,
    plan_shards_streaming,
    separating_plane,
    slab_indices,
)
from repro.shard.pipeline import ShardPipeline
from repro.stream.snapshot import load_npz_arrays
from repro.utils.counters import WorkCounter
from repro.utils.validation import check_positive_int

__all__ = ["ShardedDPC"]

#: Rows per streaming-validation / spool chunk (8 MB of float64 at d=16).
_STREAM_CHUNK_ROWS = 65536

# Guards lazy creation of the per-estimator spool TemporaryDirectory, which
# concurrent pipeline persist stages may request at the same time.
_SPOOL_DIR_LOCK = threading.Lock()

# Guards the read-modify-write of shard_stats_["shm_peak_bytes"], which
# concurrent pipeline stages under the process backend update.
_SHM_STATS_LOCK = threading.Lock()


def _elementwise_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical squared distance of aligned point pairs (rows of a vs b).

    Calls the blocked kernel on ``(m, 1, d) x (m, 1, d)`` blocks so every
    pair runs the exact sequential accumulation the tree kernels use; the
    result dtype follows the operand dtype (float64 here unless the caller
    passes storage-dtype coordinates).
    """
    if a.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    return pair_distances_sq(a[:, None, :], b[:, None, :])[:, 0, 0]


def _box_reach_sq(
    points: np.ndarray, bbox: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Squared distance from each float64 point to a shard's bounding box.

    ``squared_norms`` rounds no higher than the canonical pair distance to
    any point inside the box, so pruning a box whose reach is *strictly*
    greater than a current best is float-safe; a box tying the best is kept
    because a smaller global index inside it could still win the lex tie.
    """
    bbox_min, bbox_max = bbox
    gap = np.maximum(bbox_min[None, :] - points, points - bbox_max[None, :])
    return squared_norms(np.maximum(gap, 0.0))


class ShardedDPC(ExDPC):
    """Ex-DPC over kd-plane shards with halo exchange (out-of-core fit).

    Parameters are those of :class:`repro.core.ex_dpc.ExDPC` plus:

    n_shards:
        Number of shards (a power of two, at most ``n``).  ``1`` degenerates
        to a single-tree fit over one shard.  Each shard's density and
        dependency phases run over their own kd-tree, executor and (process
        backend) shared-memory segment, so each is bounded by the largest
        shard rather than the full dataset.
    memory_budget_bytes:
        Global cap on the pipeline-managed anonymous memory of the fit
        (resident shard trees + shared-memory segments + per-stage halo /
        query temporaries; *not* the O(n) result vectors or a non-streaming
        input matrix).  ``None`` (default) keeps every shard tree resident
        and admits stages without accounting; a budget admits stages against
        it and spills finished shard trees to disk.  Too small a budget
        (below the single largest shard plus its stage temporaries) raises
        ``ValueError`` up front.  The observed peak is recorded as
        ``shard_stats_["peak_rss_bytes"]`` next to ``"budget_bytes"``.
    pipeline_workers:
        Concurrent stages of the :class:`repro.shard.pipeline.ShardPipeline`
        driver (default: ``1`` without a budget, ``max(2, n_jobs)`` under
        one).  Without a budget, more workers are faster but nothing bounds
        the stages' combined temporaries (under the process backend, one
        pool and shard segment each).  Affects wall-clock and peak memory
        only, never results.
    spool_dir:
        Directory for spilled shard archives and spooled streaming input
        (default: a private temporary directory tied to the estimator).

    ``fit`` accepts, besides an in-memory matrix: a path to a ``.npy`` or
    uncompressed ``.npz`` file (memory-mapped; the fit never materialises
    the full matrix) or an iterator of ``(m, d)`` chunks (spooled to a
    float64 memmap once, then treated as a mapped file).

    Results are bit-identical to ``ExDPC`` at the same parameters whenever
    both fit in memory; re-clustering is unsupported (the per-shard neighbor
    profiles are never materialised globally).
    """

    algorithm_name = "Sharded-Ex-DPC"
    supports_recluster = False

    def __init__(
        self,
        d_cut: float,
        *,
        n_shards: int = 2,
        memory_budget_bytes: int | None = None,
        pipeline_workers: int | None = None,
        spool_dir=None,
        **kwargs,
    ):
        super().__init__(d_cut, **kwargs)
        self.n_shards = int(n_shards)
        self.memory_budget_bytes = (
            None
            if memory_budget_bytes is None
            else check_positive_int(int(memory_budget_bytes), "memory_budget_bytes")
        )
        self.pipeline_workers = (
            None
            if pipeline_workers is None
            else check_positive_int(int(pipeline_workers), "pipeline_workers")
        )
        self.spool_dir = None if spool_dir is None else str(spool_dir)

    def get_params(self):
        params = super().get_params()
        params["n_shards"] = self.n_shards
        params["memory_budget_bytes"] = self.memory_budget_bytes
        return params

    # -------------------------------------------------------- streaming input

    def fit(self, X):
        """Fit on a matrix, a ``.npy``/``.npz`` path, or a chunk iterator."""
        points, streaming = self._resolve_fit_input(X)
        self._streaming_input = streaming
        return super().fit(points)

    def _check_fit_points(self, points) -> np.ndarray:
        if getattr(self, "_streaming_input", False):
            # Streamed inputs were validated chunk by chunk while resolving
            # the source; re-running check_points here would materialise the
            # full matrix, which is exactly what the streaming path avoids.
            if points.shape[0] < 2:
                raise ValueError("need at least 2 points to cluster")
            return points
        return super()._check_fit_points(points)

    def _resolve_fit_input(self, X) -> tuple[np.ndarray, bool]:
        if isinstance(X, (str, Path)):
            path = Path(X)
            if path.suffix == ".npy":
                matrix = np.load(path, mmap_mode="r")
            elif path.suffix == ".npz":
                data = load_npz_arrays(path, mmap=True)
                if "points" in data:
                    matrix = data["points"]
                elif len(data) == 1:
                    matrix = next(iter(data.values()))
                else:
                    raise ValueError(
                        f"{path} holds {sorted(data)}; name the point matrix "
                        "'points' (or store a single array)"
                    )
            else:
                raise ValueError(
                    f"streaming fit reads .npy or .npz files, got {path.suffix!r}"
                )
            return self._validated_stream_matrix(matrix), True
        if isinstance(X, np.memmap):
            return self._validated_stream_matrix(X), True
        if isinstance(X, Iterator):
            return self._spool_chunks(X), True
        return X, False

    def _validated_stream_matrix(self, matrix) -> np.ndarray:
        """Chunk-validate a mapped matrix; spool-convert when not float64-C."""
        if matrix.ndim != 2:
            raise ValueError("streamed points must form a 2-D matrix")
        if matrix.dtype == np.float64 and matrix.flags["C_CONTIGUOUS"]:
            for start in range(0, matrix.shape[0], _STREAM_CHUNK_ROWS):
                if not np.isfinite(matrix[start : start + _STREAM_CHUNK_ROWS]).all():
                    raise ValueError("points must be finite (no NaN or inf)")
            return matrix
        n = matrix.shape[0]
        return self._spool_chunks(
            matrix[start : start + _STREAM_CHUNK_ROWS]
            for start in range(0, n, _STREAM_CHUNK_ROWS)
        )

    def _ensure_spool_dir(self) -> Path:
        """The directory for spooled input and spilled shard archives.

        A private temporary directory is created (and kept referenced on the
        estimator: spilled trees stay memory-mapped out of it after the fit)
        unless ``spool_dir`` names one explicitly.
        """
        if self.spool_dir is not None:
            directory = Path(self.spool_dir)
            directory.mkdir(parents=True, exist_ok=True)
            return directory
        # Serialized: concurrent persist stages must not race two
        # TemporaryDirectory objects (the loser's finalizer would delete a
        # directory already holding the winner's spill archive).
        with _SPOOL_DIR_LOCK:
            spool = getattr(self, "_spool_tmp", None)
            if spool is None:
                spool = tempfile.TemporaryDirectory(prefix="repro_shard_")
                self._spool_tmp = spool
        return Path(spool.name)

    def _spool_chunks(self, chunks) -> np.ndarray:
        """Write a chunk stream to a float64 row-major spool file, mmap it back."""
        directory = self._ensure_spool_dir()
        path = directory / f"input_{id(self):x}.f64"
        rows = 0
        dim: int | None = None
        with open(path, "wb") as sink:
            for chunk in chunks:
                chunk = np.ascontiguousarray(np.asarray(chunk, dtype=np.float64))
                if chunk.ndim == 1:
                    chunk = chunk.reshape(1, -1)
                if chunk.ndim != 2:
                    raise ValueError("stream chunks must be 2-D (m, d) arrays")
                if dim is None:
                    dim = int(chunk.shape[1])
                elif chunk.shape[1] != dim:
                    raise ValueError(
                        f"stream chunk dimensionality changed from {dim} "
                        f"to {chunk.shape[1]}"
                    )
                if not np.isfinite(chunk).all():
                    raise ValueError("points must be finite (no NaN or inf)")
                sink.write(chunk.tobytes())
                rows += int(chunk.shape[0])
        if rows == 0 or dim is None:
            raise ValueError("the point stream yielded no rows")
        return np.memmap(path, dtype=np.float64, mode="r", shape=(rows, dim))

    # ------------------------------------------------------------------ index

    def _build_shard_tree(self, points, members, counter) -> KDTree:
        return KDTree(
            np.asarray(points[members], dtype=np.float64),
            leaf_size=self.leaf_size,
            counter=counter,
            dtype=self.dtype,
            kernel=self.kernel,
        )

    def _build_index(self, points: np.ndarray) -> None:
        streaming = getattr(self, "_streaming_input", False)
        if streaming:
            self._plan: ShardPlan = plan_shards_streaming(points, self.n_shards)
        else:
            self._plan = plan_shards(points, self.n_shards)
        self._pipeline_outputs = None
        # Single full-dataset tree intentionally absent: nothing in the
        # sharded fit (or predict) may touch an O(n) index.
        self._tree = None
        # Trees are built (and possibly spilled) stage by stage; the
        # pipeline fills these in during the density phase.
        self._shard_trees: list[KDTree | None] = [None] * self._plan.n_shards
        # Float64 per-shard bounding boxes of the cross-shard pruning test.
        self._shard_bbox: list = [None] * self._plan.n_shards
        self.shard_stats_ = {
            "n_shards": self._plan.n_shards,
            "shard_sizes": self._plan.shard_sizes.tolist(),
            "shm_peak_bytes": 0,
            "halo_exported_points": 0,
            "halo_credits": 0,
            "budget_bytes": self.memory_budget_bytes,
            "peak_rss_bytes": 0,
            "streaming_input": streaming,
        }

    def _index_memory_bytes(self) -> int:
        trees = getattr(self, "_shard_trees", None)
        if not trees:
            return 0
        return int(
            sum(tree.memory_bytes() for tree in trees if tree is not None)
        )

    def _tree_resident_bytes(self, tree: KDTree) -> int:
        """Anonymous bytes one resident shard tree pins (points included)."""
        total = tree.memory_bytes() + tree.points.nbytes
        if tree.points is not tree.source_points:
            total += tree.source_points.nbytes
        return int(total)

    def _predict_tree(self):
        return None

    # ---------------------------------------------------- per-shard execution

    @contextmanager
    def _shard_runtime(self, tree: KDTree, counter: WorkCounter | None = None):
        """Executor + chunk-task builder scoped to one shard stage.

        The builder is a :class:`~repro.parallel.backends.TaskBuilder` over
        the shard tree, the same kind that serves an unsharded fit.
        Thread/serial backends reuse the fit-wide executor (no shared
        memory involved).  The process backend gets a *fresh* pool and a
        lazily created per-shard segment: worker processes cache attached
        segments for the life of their pool, so reusing one pool across
        shards would accumulate every shard's mapping and defeat the
        out-of-core bound.  Pool and segment are torn down before the next
        stage of the same shard starts.  The pool gets ``n_jobs`` split
        across the pipeline's concurrent stages, so live worker processes
        never exceed ``n_jobs``.  ``counter`` receives the stage's distance
        counts (default: the fit-wide counter); the pipeline passes its
        phase counters so density and dependency work stay attributed to
        the fit phase they belong to.
        """
        if counter is None:
            counter = self._counter
        executor = getattr(self, "_executor", None)
        owned = executor is None or executor.backend == "process"
        if owned:
            executor = ParallelExecutor(self._stage_n_jobs, backend=self.backend)
        builder = TaskBuilder(
            executor.backend, tree.source_points, tree, counter=counter
        )
        try:
            yield executor, builder
        finally:
            if owned:
                executor.close()
            stats = getattr(self, "shard_stats_", None)
            if stats is not None and builder.nbytes:
                with _SHM_STATS_LOCK:
                    stats["shm_peak_bytes"] = max(
                        stats["shm_peak_bytes"], builder.nbytes
                    )
            builder.close()

    # ------------------------------------------------- per-shard density blocks

    def _shard_self_counts(
        self, tree: KDTree, counter: WorkCounter | None = None
    ) -> np.ndarray:
        """One shard's strict self-counts (Ex-DPC's density dispatch)."""
        with self._shard_runtime(tree, counter=counter) as (executor, task_builder):
            return strict_self_counts(
                tree,
                self.d_cut,
                engine=self.engine_,
                frontier_target=self._dual_frontier,
                executor=executor,
                task_builder=task_builder,
            )

    def _shard_axis_coords(
        self, points: np.ndarray, members: np.ndarray, axis: int
    ) -> np.ndarray:
        """Storage-dtype coordinates of one shard along one axis (as float64).

        Bit-identical to ``tree.points[:, axis].astype(np.float64)`` without
        needing the shard tree resident: the storage cast is elementwise, so
        casting the gathered column reproduces the tree's stored values.
        """
        col = np.ascontiguousarray(np.asarray(points[members, axis], dtype=np.float64))
        if np.dtype(self.dtype) != np.float64:
            col = col.astype(self.dtype).astype(np.float64)
        return col

    def _halo_pair(
        self,
        points: np.ndarray,
        a: int,
        b: int,
        counter: WorkCounter | None = None,
    ) -> tuple[np.ndarray, np.ndarray, int] | None:
        """Halo credits of ordered shard pair ``(a, b)``.

        Returns ``(global_rows_of_a, credits, exported_points_of_b)`` or
        ``None`` when either slab is empty.  Reads only the global point
        matrix (gathering just the two slabs), never the shard trees, so the
        pipeline can run halo stages independently of tree residency.  Slab
        membership is a candidate filter only -- the counting kernel applies
        the exact storage-dtype predicate -- so credits equal the single-tree
        cross-shard contributions bit for bit.
        """
        plan = self._plan
        axis, value, a_on_left = separating_plane(plan, a, b)
        members_a = plan.members[a]
        slab_a = slab_indices(
            self._shard_axis_coords(points, members_a, axis),
            value,
            a_on_left,
            self.d_cut,
            self.dtype,
        )
        if slab_a.size == 0:
            return None
        members_b = plan.members[b]
        slab_b = slab_indices(
            self._shard_axis_coords(points, members_b, axis),
            value,
            not a_on_left,
            self.d_cut,
            self.dtype,
        )
        if slab_b.size == 0:
            return None
        halo_tree = KDTree(
            np.asarray(points[members_b[slab_b]], dtype=np.float64),
            leaf_size=self.leaf_size,
            counter=counter if counter is not None else self._counter,
            dtype=self.dtype,
            kernel=self.kernel,
        )
        credits = halo_tree.range_count_batch(
            np.asarray(points[members_a[slab_a]], dtype=np.float64),
            self.d_cut,
            strict=True,
        )
        return members_a[slab_a], credits, int(slab_b.size)

    def _compute_local_density(self, points: np.ndarray) -> np.ndarray:
        """Run the full stage DAG; density returns now, dependencies are cached."""
        pipeline = ShardPipeline(self, points)
        # Split the worker budget across the pipeline's concurrent stages so
        # their process pools together never exceed the resolved n_jobs.
        self._stage_n_jobs = max(1, resolve_n_jobs(self.n_jobs) // pipeline.workers)
        outputs = pipeline.run()
        self._pipeline_outputs = outputs
        stats = self.shard_stats_
        stats["halo_exported_points"] = outputs.halo_exported
        stats["halo_credits"] = outputs.halo_credits
        stats["peak_rss_bytes"] = outputs.peak_tracked_bytes
        stats["pipeline"] = outputs.report
        if (
            self.memory_budget_bytes is not None
            and outputs.peak_tracked_bytes > self.memory_budget_bytes
        ):
            raise RuntimeError(
                f"pipeline accounting exceeded memory_budget_bytes "
                f"({outputs.peak_tracked_bytes} > {self.memory_budget_bytes}); "
                "this is a scheduler bug"
            )
        # Density work lands in the density bracket of fit(); the dependency
        # counter is merged by _compute_dependencies inside its own bracket.
        self._counter.merge(outputs.density_counter)
        n = points.shape[0]
        traversal = float(n ** (1.0 - 1.0 / points.shape[1]))
        self._record_phase("local_density", "dynamic", outputs.rho_raw + traversal)
        return outputs.rho_raw

    # ------------------------------------------------------------ dependencies

    def _local_join(
        self,
        tree: KDTree,
        members: np.ndarray,
        rho_members: np.ndarray,
        counter: WorkCounter | None = None,
    ):
        """One shard's exact nearest-denser join (engine-dispatched)."""
        with self._shard_runtime(tree, counter=counter) as (executor, task_builder):
            return nearest_denser_join(
                tree.source_points,
                rho_members,
                engine=self.engine_,
                executor=executor,
                counter=counter if counter is not None else self._counter,
                tree=tree,
                leaf_size=self.leaf_size,
                frontier_target=self._dual_frontier,
                task_builder=task_builder,
            )

    def _apply_local_join(
        self,
        points: np.ndarray,
        members: np.ndarray,
        outcome,
        best_idx: np.ndarray,
        best_sq: np.ndarray,
    ) -> None:
        """Fold one shard's join outcome into the global best arrays."""
        found = np.flatnonzero(outcome.dependent >= 0)
        if found.size:
            winners_q = members[found]
            winners_t = members[outcome.dependent[found]]
            best_idx[winners_q] = winners_t
            # Merge on the canonical float64 squared distance, never on
            # the join's sqrt'd delta: sqrt can collapse distinct
            # squared distances and corrupt the cross-shard lex merge.
            best_sq[winners_q] = _elementwise_sq(
                np.asarray(points[winners_q], dtype=np.float64),
                np.asarray(points[winners_t], dtype=np.float64),
            )

    def _cross_pass_shard(
        self,
        points: np.ndarray,
        a: int,
        rho: np.ndarray,
        rho_max: np.ndarray,
        best_idx: np.ndarray,
        best_sq: np.ndarray,
        tree_for,
    ) -> None:
        """Cross-shard nearest-denser pass for shard ``a`` (in-place merge).

        ``tree_for(b)`` resolves partner trees lazily: resident trees without
        a budget, mmapped spilled archives under one.  Only touches
        ``best_idx``/``best_sq`` rows of shard ``a``, so distinct shards'
        passes are data-disjoint (the pipeline runs them concurrently); the
        partner loop stays in shard order because the pruning state
        (``best_sq``) evolves across partners.
        """
        plan = self._plan
        members_a = plan.members[a]
        for b in range(plan.n_shards):
            if b == a:
                continue
            sub = members_a[rho[members_a] < rho_max[b]]
            if sub.size == 0:
                continue
            reach = _box_reach_sq(
                np.asarray(points[sub], dtype=np.float64), self._shard_bbox[b]
            )
            keep = reach <= best_sq[sub]
            sub = sub[keep]
            if sub.size == 0:
                continue
            members_b = plan.members[b]
            tree_b = tree_for(b)
            # Fitted points are as dense as the shard they come from, so the
            # fit's own leaf size keeps their boxes tight (KDTree.for_queries
            # sizes trees for sparse out-of-sample batches instead).
            query_tree = KDTree(
                np.asarray(points[sub], dtype=np.float64),
                leaf_size=self.leaf_size,
                counter=WorkCounter(),
                kernel=tree_b.kernel_name,
            )
            cand, _ = tree_b.nn_dual_vs(query_tree, rho[members_b], rho[sub])
            found = np.flatnonzero(cand >= 0)
            if found.size == 0:
                continue
            queries_g = sub[found]
            targets_g = members_b[cand[found]]
            cand_sq = _elementwise_sq(
                np.asarray(points[queries_g], dtype=np.float64),
                np.asarray(points[targets_g], dtype=np.float64),
            )
            current_sq = best_sq[queries_g]
            better = (cand_sq < current_sq) | (
                (cand_sq == current_sq) & (targets_g < best_idx[queries_g])
            )
            winners = queries_g[better]
            best_idx[winners] = targets_g[better]
            best_sq[winners] = cand_sq[better]

    def _compute_dependencies(
        self, points: np.ndarray, rho: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        outputs = self._pipeline_outputs
        if outputs is None:
            raise RuntimeError("pipeline outputs missing (fit order bug)")
        # The dependency stages ran inside the pipeline; merging their
        # counter here keeps fit()'s per-phase work attribution exact.
        self._counter.merge(outputs.dep_counter)
        self._record_phase(
            "dependency",
            "dynamic",
            np.concatenate(outputs.cost_chunks) if outputs.cost_chunks else np.zeros(0),
        )
        n = points.shape[0]
        return outputs.best_idx, np.sqrt(outputs.best_sq), np.ones(n, dtype=bool)

    # ----------------------------------------------------------------- predict

    def _predict_density(self, queries: np.ndarray, executor) -> np.ndarray:
        n_q = queries.shape[0]
        counts = np.zeros(n_q, dtype=np.float64)
        if n_q == 0:
            return counts
        query_tree = KDTree.for_queries(queries, self._shard_trees[0])
        for tree in self._shard_trees:
            counts += tree.range_count_dual_vs(
                query_tree, self.d_cut, strict=True
            ).astype(np.float64)
        return counts

    def _shard_densities(self) -> list[np.ndarray]:
        """Per-shard slices of ``rho_`` with the shard trees' bounds attached.

        Cached per fitted result, so every predict joins against the same
        array objects and hits each tree's identity-keyed density-bounds
        cache instead of rerunning the per-node max sweep.  A tree restored
        from a manifest that carries its ``rho_max`` adopts it unswept.
        """
        result = self.result_
        cached = getattr(self, "_shard_rho_cache", None)
        if cached is not None and cached[0] is result:
            return cached[1]
        rho = np.asarray(result.rho_, dtype=np.float64)
        densities = []
        for members, tree in zip(self._plan.members, self._shard_trees):
            shard_rho = np.ascontiguousarray(rho[members])
            tree.attach_density_bounds(shard_rho, node_max=tree.arrays.rho_max)
            densities.append(shard_rho)
        self._shard_rho_cache = (result, densities)
        return densities

    def _predict_attach(
        self, queries: np.ndarray, rho_q: np.ndarray, executor
    ) -> np.ndarray:
        plan = self._plan
        shard_rho = self._shard_densities()
        n_q = queries.shape[0]
        if n_q == 0:
            return np.empty(0, dtype=np.intp)
        best_idx = np.full(n_q, -1, dtype=np.intp)
        best_sq = np.full(n_q, np.inf, dtype=np.float64)

        # Each query joins its home shard (nearest box) first, then only the
        # shards whose box can still beat or index-tie its best, as in the
        # fit's cross pass.  The merge key is the canonical float64 distance
        # the single-tree attach ranks by, and the merges are exact, so the
        # visiting order cannot change a result.
        reach = np.column_stack(
            [_box_reach_sq(queries, box) for box in self._shard_bbox]
        )
        home = np.argmin(reach, axis=1)
        for home_pass in (True, False):
            for shard, tree in enumerate(self._shard_trees):
                if home_pass:
                    rows = np.flatnonzero(home == shard)
                else:
                    rows = np.flatnonzero(
                        (home != shard) & (reach[:, shard] <= best_sq)
                    )
                if rows.size == 0:
                    continue
                members = plan.members[shard]
                query_tree = KDTree.for_queries(queries[rows], tree, dtype="float64")
                idx, _ = tree.nn_dual_vs(query_tree, shard_rho[shard], rho_q[rows])
                found = np.flatnonzero(idx >= 0)
                if found.size == 0:
                    continue
                targets_g = members[idx[found]]
                cand_sq = _elementwise_sq(
                    queries[rows[found]],
                    np.asarray(self._fit_points_[targets_g], dtype=np.float64),
                )
                hits = rows[found]
                better = (cand_sq < best_sq[hits]) | (
                    (cand_sq == best_sq[hits]) & (targets_g < best_idx[hits])
                )
                best_idx[hits[better]] = targets_g[better]
                best_sq[hits[better]] = cand_sq[better]

        # Queries denser than every fitted point attach to their plain
        # nearest neighbour (storage-dtype lex), merged across shards on
        # (squared distance, global index) like the single-tree fallback.
        unresolved = np.flatnonzero(best_idx < 0)
        if unresolved.size:
            nn_idx = np.full(unresolved.size, -1, dtype=np.intp)
            nn_sq = np.full(unresolved.size, np.inf, dtype=np.float64)
            for shard, tree in enumerate(self._shard_trees):
                members = plan.members[shard]
                local_idx, local_sq = tree._knn_batch_impl(
                    tree._check_query_batch(queries[unresolved]), 1, None, None
                )
                found = local_idx[:, 0] >= 0
                cand_idx = members[local_idx[found, 0]]
                cand_sq = local_sq[found, 0]
                rows = np.flatnonzero(found)
                better = (cand_sq < nn_sq[rows]) | (
                    (cand_sq == nn_sq[rows]) & (cand_idx < nn_idx[rows])
                )
                hit = rows[better]
                nn_idx[hit] = cand_idx[better]
                nn_sq[hit] = cand_sq[better]
            best_idx[unresolved] = nn_idx
        return best_idx
