"""Unit tests for the execution backends, shared-memory bundles and executor."""

import os
import pickle

import numpy as np
import pytest

from repro.core.approx_dpc import ApproxDPC
from repro.core.ex_dpc import ExDPC
from repro.core.s_approx_dpc import SApproxDPC
from repro.index.grid import UniformGrid
from repro.index.kdtree import KDTree
from repro.parallel.backends import (
    BACKENDS,
    ChunkTask,
    TaskBuilder,
    kernel_dual_nn,
    kernel_dual_self_count,
    kernel_joint_density,
    kernel_partitioned_dependency,
    kernel_picked_density,
    kernel_range_count,
    pack_tree_arrays,
    resolve_backend,
    worker_context,
)
from repro.parallel.executor import ParallelExecutor, resolve_n_jobs
from repro.parallel.shm import SharedArrayBundle
from repro.utils.counters import WorkCounter


class TestResolveBackend:
    def test_explicit_values(self):
        for backend in BACKENDS:
            assert resolve_backend(backend) == backend

    def test_default_is_thread(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEFAULT_BACKEND", raising=False)
        assert resolve_backend(None) == "thread"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEFAULT_BACKEND", "process")
        assert resolve_backend(None) == "process"

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("gpu")


class TestResolveNJobsAffinity:
    def test_minus_one_respects_affinity_mask(self):
        resolved = resolve_n_jobs(-1)
        assert resolved >= 1
        if hasattr(os, "sched_getaffinity"):
            # Container / CI core limits shrink the affinity mask below the
            # raw CPU count; -1 must honor the mask, not the hardware.
            assert resolved == len(os.sched_getaffinity(0))

    def test_minus_one_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert resolve_n_jobs(-1) == 7


class TestSharedArrayBundle:
    def test_roundtrip_values_and_dtypes(self):
        arrays = {
            "a": np.arange(10, dtype=np.float64),
            "b": np.arange(6, dtype=np.intp).reshape(2, 3),
            "c": np.asarray([True, False, True]),
        }
        bundle = SharedArrayBundle.create(arrays)
        try:
            attached = SharedArrayBundle.attach(bundle.spec)
            try:
                for key, source in arrays.items():
                    np.testing.assert_array_equal(attached.arrays[key], source)
                    assert attached.arrays[key].dtype == source.dtype
                    assert not attached.arrays[key].flags.writeable
            finally:
                attached.close()
        finally:
            bundle.close()
            bundle.unlink()

    def test_spec_is_small_and_picklable(self):
        bundle = SharedArrayBundle.create({"points": np.zeros((1000, 2))})
        try:
            blob = pickle.dumps(bundle.spec)
            # The spec ships with every task submission: it must stay tiny
            # (metadata only), never the arrays themselves.
            assert len(blob) < 1024
        finally:
            bundle.close()
            bundle.unlink()

    def test_nbytes_counts_segment_once(self):
        data = np.zeros((100, 2))
        bundle = SharedArrayBundle.create({"points": data})
        try:
            assert bundle.nbytes >= data.nbytes
            assert bundle.nbytes < 2 * data.nbytes + 256
        finally:
            bundle.close()
            bundle.unlink()

    def test_close_and_unlink_are_idempotent(self):
        bundle = SharedArrayBundle.create({"x": np.zeros(4)})
        bundle.close()
        bundle.close()
        bundle.unlink()
        bundle.unlink()

    def test_empty_bundle_rejected(self):
        with pytest.raises(ValueError):
            SharedArrayBundle.create({})

    def test_outputs_are_zeroed_writable_and_shared(self):
        template = np.full(5, 7, dtype=np.intp)
        bundle = SharedArrayBundle.create({"x": np.ones(3)}, {"out": template})
        try:
            attached = SharedArrayBundle.attach(bundle.spec)
            try:
                assert not attached.arrays["x"].flags.writeable
                # Only shape and dtype are taken from the template.
                assert attached.arrays["out"].dtype == template.dtype
                np.testing.assert_array_equal(attached.arrays["out"], np.zeros(5))
                attached.arrays["out"][1:3] = [4, 5]
            finally:
                attached.close()
            np.testing.assert_array_equal(bundle.arrays["out"], [0, 4, 5, 0, 0])
        finally:
            bundle.close()
            bundle.unlink()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_task_builder_collects_kernel_outputs(self, backend):
        points = np.random.default_rng(3).uniform(size=(40, 2))
        out = np.empty(40, dtype=np.float64)
        builder = TaskBuilder(backend, points, outputs={"out": out})
        try:
            with ParallelExecutor(2, backend=backend) as executor:
                executor.map_index_chunks(builder(_kernel_write_sums), 40)
            builder.collect_outputs()
        finally:
            builder.close()
        np.testing.assert_array_equal(out, points.sum(axis=1))


class TestWorkerContext:
    def test_tree_rebuilt_from_shared_arrays(self):
        points = np.random.default_rng(0).uniform(-10, 10, size=(200, 2))
        tree = KDTree(points, leaf_size=8)
        bundle = SharedArrayBundle.create(pack_tree_arrays(tree))
        try:
            ctx = worker_context(bundle.spec)
            assert ctx.tree.node_count == tree.node_count
            assert ctx.tree.leaf_size == tree.leaf_size
            queries = points[:17]
            np.testing.assert_array_equal(
                ctx.tree.range_count_batch(queries, 3.0),
                tree.range_count_batch(queries, 3.0),
            )
            # Attach-once contract: the same spec returns the cached context.
            assert worker_context(bundle.spec) is ctx
            ctx.bundle.close()
        finally:
            bundle.close()
            bundle.unlink()

    def test_phase_state_builds_once(self):
        bundle = SharedArrayBundle.create({"points": np.zeros((4, 2))})
        try:
            ctx = worker_context(bundle.spec)
            calls = []
            assert ctx.phase_state("t", lambda: calls.append(1) or "state") == "state"
            assert ctx.phase_state("t", lambda: calls.append(1) or "other") == "state"
            assert len(calls) == 1
            ctx.bundle.close()
        finally:
            bundle.close()
            bundle.unlink()


def _kernel_write_sums(ctx, payload, chunk):
    """Test kernel filling an output array in place."""
    ctx.arrays["out"][chunk] = ctx.points[chunk].sum(axis=1)


def _kernel_phases(points, tree, counter):
    """Every chunk kernel as ``(name, kernel, n_items, payload_fn, state, assemble)``.

    ``state`` holds the structures a driver has already built for the phase
    (seeded into in-process contexts; workers rebuild them from the payload).
    """
    from repro.core.dependency_join import (
        PartitionedDependencySearcher,
        build_join_trees,
    )
    from repro.index.grid import UniformGrid

    d_cut = 2.5
    n = points.shape[0]
    rho = np.random.default_rng(7).permutation(n).astype(np.float64)
    cells = UniformGrid(points, d_cut / np.sqrt(2.0)).cells()
    centers = np.stack([cell.center for cell in cells])
    radii = np.asarray([d_cut + cell.max_center_dist for cell in cells])
    picked = np.arange(0, n, 3, dtype=np.intp)
    pairs, base = tree.dual_self_frontier(d_cut, strict=True, target_pairs=16)

    undecided = np.arange(0, n, 2, dtype=np.intp)
    data_tree, rho_data, queries_tree, rho_q, _ = build_join_trees(
        points, rho, undecided, None, 8, data_tree=tree, counter=counter
    )
    q_nodes = queries_tree.node_frontier(8)
    densest = int(np.argmax(rho))
    seed_idx = np.full(undecided.size, densest, dtype=np.intp)
    seed_idx[undecided == densest] = -1
    seed_sq = np.sum((points[undecided] - points[densest]) ** 2, axis=1)
    seed_sq[undecided == densest] = np.inf
    searcher = PartitionedDependencySearcher(
        points, rho, n_partitions=3, leaf_size=8, counter=counter
    )

    def join_result(chunks):
        dependent = np.full(undecided.size, -1, dtype=np.intp)
        for cov, idx, _ in chunks:
            dependent[cov] = idx
        return dependent

    return [
        (
            "range_count",
            kernel_range_count,
            n,
            lambda chunk: {"d_cut": d_cut},
            None,
            np.concatenate,
        ),
        (
            "dual_self_count",
            kernel_dual_self_count,
            len(pairs),
            lambda chunk: {"d_cut": d_cut, "pairs": pairs[chunk]},
            None,
            lambda chunks: base + sum(chunks),
        ),
        (
            "joint_density",
            kernel_joint_density,
            len(cells),
            lambda chunk: {
                "d_cut": d_cut,
                "centers": centers[chunk],
                "radii": radii[chunk],
                "members": [cells[int(p)].point_indices for p in chunk],
                "cell_keys": [cells[int(p)].key for p in chunk],
            },
            None,
            lambda chunks: [
                (s.counts.tolist(), s.best_point, s.neighbor_keys)
                for chunk in chunks
                for s in chunk
            ],
        ),
        (
            "picked_density",
            kernel_picked_density,
            picked.size,
            lambda chunk: {"d_cut": d_cut, "picked": picked[chunk]},
            None,
            lambda chunks: [item for chunk in chunks for item in chunk],
        ),
        (
            "dual_nn",
            kernel_dual_nn,
            len(q_nodes),
            lambda chunk: {
                "token": "nn",
                "rho": rho,
                "undecided": undecided,
                "candidates": None,
                "leaf_size": 8,
                "q_nodes": q_nodes[chunk],
                "seed_idx": seed_idx,
                "seed_sq": seed_sq,
            },
            {"nn": (data_tree, rho_data, queries_tree, rho_q)},
            join_result,
        ),
        (
            "partitioned_dependency",
            kernel_partitioned_dependency,
            undecided.size,
            lambda chunk: {
                "token": "part",
                "undecided": undecided,
                **searcher.shared_query_params(),
            },
            {"part": searcher},
            lambda chunks: np.concatenate([c[0] for c in chunks]),
        ),
    ]


class TestChunkTasks:
    def _run_phases(self, backend):
        """Run every kernel phase on one backend: name -> (value, calcs)."""
        points = np.random.default_rng(1).uniform(-10, 10, size=(300, 2))
        counter = WorkCounter()
        tree = KDTree(points, leaf_size=16, counter=counter)
        lattice = UniformGrid(points, 2.5 / np.sqrt(2.0)).lattice
        phases = _kernel_phases(points, tree, counter)
        builder = TaskBuilder(
            backend, points, tree, arrays={"lattice": lattice}, counter=counter
        )
        out = {}
        try:
            # The pool shuts down before the builder unlinks its segment.
            with ParallelExecutor(2, backend=backend) as executor:
                for name, kernel, n_items, payload_fn, state, assemble in phases:
                    task = builder(kernel, payload_fn=payload_fn, state=state)
                    before = counter.get("distance_calcs")
                    chunks = executor.map_index_chunks(task, n_items)
                    assert len(chunks) > 1, name
                    out[name] = (
                        assemble(chunks),
                        counter.get("distance_calcs") - before,
                    )
        finally:
            builder.close()
        return out

    def test_every_kernel_matches_across_backends(self):
        reference = self._run_phases("serial")
        assert set(reference) == {
            "range_count",
            "dual_self_count",
            "joint_density",
            "picked_density",
            "dual_nn",
            "partitioned_dependency",
        }
        for name, (_, calcs) in reference.items():
            assert calcs > 0, name
        # The seeded dual join and the partitioned searcher answer the same
        # nearest-denser queries.
        np.testing.assert_array_equal(
            reference["dual_nn"][0], reference["partitioned_dependency"][0]
        )
        for backend in ("thread", "process"):
            got = self._run_phases(backend)
            for name, (value, calcs) in reference.items():
                if isinstance(value, np.ndarray):
                    np.testing.assert_array_equal(got[name][0], value, err_msg=name)
                else:
                    assert got[name][0] == value, (backend, name)
                assert got[name][1] == calcs, (backend, name)

    def test_in_process_tasks_never_start_a_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("in-process chunk tasks must not leave this process")

        monkeypatch.setattr(ParallelExecutor, "_ensure_pool", refuse)
        monkeypatch.setattr(SharedArrayBundle, "create", refuse)
        for backend in ("serial", "thread"):
            results = self._run_phases(backend)
            assert len(results) == 6
            points = np.random.default_rng(2).uniform(-10, 10, size=(400, 2))
            for engine in ("batch", "dual"):
                for estimator in (ExDPC, ApproxDPC, SApproxDPC):
                    estimator(
                        3.0, n_clusters=2, n_jobs=2, backend=backend, engine=engine
                    ).fit(points)


class TestExecutorProcessPath:
    def test_serial_backend_never_spawns(self):
        executor = ParallelExecutor(4, backend="serial")
        order = []
        executor.map(order.append, [1, 2, 3])
        assert order == [1, 2, 3]
        executor.close()

    def test_close_is_idempotent(self):
        executor = ParallelExecutor(2, backend="process")
        executor.close()
        executor.close()

    def test_payload_fn_slices_per_chunk(self):
        chunks_seen = []
        task = ChunkTask(
            kernel=kernel_range_count,
            spec=None,
            payload_fn=lambda chunk: chunks_seen.append(chunk) or {"d_cut": 1.0},
        )
        chunk = np.arange(3)
        assert task.payload_for(chunk) == {"d_cut": 1.0}
        assert chunks_seen and chunks_seen[0] is chunk
