"""Unit tests for the unified nearest-denser join layer and its index support."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core import ApproxDPC, ExDPC, SApproxDPC
from repro.core.dependency_join import (
    PartitionedDependencySearcher,
    nearest_denser_join,
)
from repro.core.ex_dpc import strict_self_counts
from repro.core.framework import effective_engine, resolve_engine
from repro.core.predict import nearest_denser_bruteforce
from repro.index.kdtree import (
    adaptive_dual_frontier,
    KDTree,
    KDTreeArrays,
)
from repro.io import load_model, save_model
from repro.parallel.backends import TaskBuilder
from repro.parallel.executor import ParallelExecutor
from repro.shard import ShardedDPC
from repro.utils.counters import WorkCounter

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "fixtures" / "snapshots"


@pytest.fixture()
def cloud():
    rng = np.random.default_rng(7)
    points = rng.uniform(0.0, 100.0, size=(300, 2))
    rho = rng.permutation(300).astype(np.float64)
    return points, rho


class TestNodeFrontier:
    def test_partitions_the_tree(self, cloud):
        points, _ = cloud
        tree = KDTree(points, leaf_size=8)
        nodes = tree.node_frontier(16)
        positions = tree.node_positions(nodes)
        assert np.array_equal(np.sort(positions), np.arange(points.shape[0]))

    def test_root_only_when_target_is_one(self, cloud):
        points, _ = cloud
        tree = KDTree(points, leaf_size=8)
        assert tree.node_frontier(1).tolist() == [0]

    def test_deterministic(self, cloud):
        points, _ = cloud
        a = KDTree(points, leaf_size=8).node_frontier(16)
        b = KDTree(points, leaf_size=8).node_frontier(16)
        assert np.array_equal(a, b)


class TestDensityBounds:
    def test_attach_stores_per_node_maxima(self, cloud):
        points, rho = cloud
        tree = KDTree(points, leaf_size=8)
        node_max = tree.attach_density_bounds(rho)
        arrays = tree.arrays
        assert arrays.rho_max is not None
        assert np.array_equal(arrays.rho_max, node_max)
        # Spot-check the invariant: every node's maximum dominates its slice.
        for node in range(arrays.node_count):
            members = arrays.indices[arrays.start[node] : arrays.stop[node]]
            assert node_max[node] == rho[members].max()

    def test_mapping_round_trip_with_and_without_rho_max(self, cloud):
        points, rho = cloud
        tree = KDTree(points, leaf_size=8)
        mapping = tree.arrays.to_mapping(prefix="t.")
        assert "t.rho_max" not in mapping
        rebuilt = KDTreeArrays.from_mapping(mapping, prefix="t.")
        assert rebuilt.rho_max is None
        tree.attach_density_bounds(rho)
        mapping = tree.arrays.to_mapping(prefix="t.")
        assert "t.rho_max" in mapping
        rebuilt = KDTreeArrays.from_mapping(mapping, prefix="t.")
        assert np.array_equal(rebuilt.rho_max, tree.arrays.rho_max)
        rebuilt.validate(tree.points, tree.leaf_size)

    def test_validate_rejects_wrong_length(self, cloud):
        points, rho = cloud
        tree = KDTree(points, leaf_size=8)
        tree.attach_density_bounds(rho)
        from dataclasses import replace

        broken = replace(tree.arrays, rho_max=np.zeros(3))
        with pytest.raises(ValueError, match="rho_max"):
            broken.validate(tree.points, tree.leaf_size)


class TestDualFrontier:
    def test_adaptive_heuristic(self):
        # Deterministic, scale-aware, clamped to [64, 4096].
        assert adaptive_dual_frontier(10, 32) == 64
        assert adaptive_dual_frontier(100_000, 32) > 64
        assert adaptive_dual_frontier(10**9, 1) == 4096
        # Pure function of (n, leaf_size): replays are identical.
        assert adaptive_dual_frontier(5_000, 8) == adaptive_dual_frontier(5_000, 8)

    @pytest.mark.parametrize(
        "cls, extra",
        [(ExDPC, {}), (ApproxDPC, {}), (SApproxDPC, {"epsilon": 0.5}), (ShardedDPC, {})],
    )
    def test_dual_frontier_keyword_removed(self, cls, extra):
        # The frontier is derived from the data size; no estimator takes it.
        with pytest.raises(TypeError, match="dual_frontier"):
            cls(d_cut=10.0, n_clusters=3, dual_frontier=64, **extra)

    @pytest.mark.parametrize("version", [3, 4])
    def test_golden_snapshot_serves_identically(self, version):
        # The v4 golden records the dual_frontier param estimators used to
        # take; loading ignores it and the model serves like a cold fit.
        model = load_model(GOLDEN_DIR / f"golden_v{version}.npz")
        assert ("dual_frontier" in model.result_.params_) == (version == 4)
        assert "dual_frontier" not in model.get_params()
        np.testing.assert_array_equal(
            model.result_.labels_, np.load(GOLDEN_DIR / "golden_labels.npy")
        )
        params = {k: v for k, v in model.get_params().items() if k != "algorithm"}
        cold = ExDPC(**params)
        cold.fit(np.asarray(model._fit_points_))
        np.testing.assert_array_equal(cold.result_.labels_, model.result_.labels_)
        queries = np.random.default_rng(7).uniform(0, 100_000, size=(150, 2))
        np.testing.assert_array_equal(model.predict(queries), cold.predict(queries))

    def test_frontier_size_does_not_change_result(self, cloud):
        # The internal work-unit targets only regroup the dual traversals:
        # densities, dependencies and deltas are identical at any size.
        points, rho = cloud
        tree = KDTree(points, leaf_size=8)
        counts, joins = [], []
        with ParallelExecutor(1, backend="serial") as executor:
            builder = TaskBuilder(executor.backend, points, tree, counter=WorkCounter())
            try:
                for target in (1, 7, 200):
                    counts.append(
                        strict_self_counts(
                            tree,
                            10.0,
                            engine="dual",
                            frontier_target=target,
                            executor=executor,
                            task_builder=builder,
                        )
                    )
                    joins.append(
                        nearest_denser_join(
                            points,
                            rho,
                            engine="dual",
                            executor=executor,
                            counter=WorkCounter(),
                            tree=tree,
                            leaf_size=8,
                            frontier_target=target,
                        )
                    )
            finally:
                builder.close()
        for other_counts, other_join in zip(counts[1:], joins[1:]):
            np.testing.assert_array_equal(counts[0], other_counts)
            np.testing.assert_array_equal(joins[0].dependent, other_join.dependent)
            np.testing.assert_array_equal(joins[0].delta, other_join.delta)


class TestAutoEngine:
    def test_resolve_engine_accepts_auto(self):
        assert resolve_engine("auto") == "auto"
        with pytest.raises(ValueError):
            resolve_engine("warp")

    def test_effective_engine_by_dimension(self):
        assert effective_engine("auto", 1) == "dual"
        assert effective_engine("auto", 2) == "dual"
        # The blocked kernel tier made dual win the combined workload at
        # every measured dimension (d <= 5); above it, batch until measured.
        assert effective_engine("auto", 3) == "dual"
        assert effective_engine("auto", 5) == "dual"
        assert effective_engine("auto", 6) == "batch"
        assert effective_engine("scalar", 2) == "scalar"

    def test_auto_fit_matches_concrete_engines(self, cloud):
        points, _ = cloud
        auto = ExDPC(d_cut=10.0, n_clusters=3, engine="auto")
        with pytest.raises(RuntimeError):
            auto.engine_  # unresolved before fit
        result = auto.fit(points)
        assert auto.engine_ == "dual"  # d=2
        dual = ExDPC(d_cut=10.0, n_clusters=3, engine="dual").fit(points)
        np.testing.assert_array_equal(result.labels_, dual.labels_)
        rng = np.random.default_rng(0)
        wide = rng.uniform(0.0, 50.0, size=(80, 4))
        auto4 = ApproxDPC(d_cut=15.0, n_clusters=2, engine="auto")
        auto4.fit(wide)
        assert auto4.engine_ == "dual"  # d=4 now inside the dual window
        wider = rng.uniform(0.0, 50.0, size=(80, 6))
        auto6 = ApproxDPC(d_cut=25.0, n_clusters=2, engine="auto")
        auto6.fit(wider)
        assert auto6.engine_ == "batch"  # d=6 beyond the measured sweep

    def test_auto_round_trips_through_snapshots(self, tmp_path, cloud):
        points, _ = cloud
        model = ExDPC(d_cut=10.0, n_clusters=3, engine="auto")
        model.fit(points)
        restored = load_model(save_model(model, tmp_path / "m.npz"))
        assert restored.engine == "auto"
        assert restored.engine_ == "dual"
        np.testing.assert_array_equal(restored.predict(points), model.predict(points))


class TestSnapshotDensityBounds:
    def test_rho_max_persists_and_primes_the_join(self, tmp_path, cloud):
        points, _ = cloud
        model = ExDPC(d_cut=10.0, n_clusters=3, engine="dual")
        model.fit(points)
        restored = load_model(save_model(model, tmp_path / "m.npz"))
        arrays = restored._tree.arrays
        assert arrays.rho_max is not None
        # The adopted bounds serve the dual join without recomputation and
        # reproduce the fitted model's predictions exactly.
        np.testing.assert_array_equal(
            restored.predict(points), model.predict(points)
        )


class TestFloat32RadiusBoundary:
    def test_engines_agree_within_one_ulp_of_the_radius(self):
        """Regression: a float32 tree must apply one radius rounding rule on
        every engine.  The scalar methods compare float32 distances against
        a Python-float squared radius (a float32 comparison under NumPy's
        scalar promotion); the batch engine historically kept a float64
        bound array and disagreed when a pair sat within one ulp of d_cut.
        """
        points = np.array([[0.0], [0.5]])
        d_cut = 0.5000000000000001  # one float64 ulp above the pair distance
        tree = KDTree(points, leaf_size=32, dtype="float32")
        scalar = [tree.range_count(p, d_cut) for p in points]
        batch = tree.range_count_batch(points, d_cut)
        dual = tree.range_count_dual(d_cut)
        np.testing.assert_array_equal(scalar, batch)
        np.testing.assert_array_equal(scalar, dual)
        search_scalar = [tree.range_search(p, d_cut) for p in points]
        search_batch = tree.range_search_batch(points, d_cut)
        for expected, got in zip(search_scalar, search_batch):
            np.testing.assert_array_equal(np.sort(expected), got)


class TestPartitionedSearcherContract:
    def test_lexicographic_tie_break_on_duplicates(self):
        points = np.zeros((6, 2))
        rho = np.asarray([2.0, 5.0, 1.0, 4.0, 6.0, 3.0])
        searcher = PartitionedDependencySearcher(points, rho, n_partitions=3)
        expected, expected_d = nearest_denser_bruteforce(
            points, rho, points, rho, attach_fallback=False, return_distance=True
        )
        got, got_d = searcher.query_batch(np.arange(6))
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(got_d, expected_d)
        for index in range(6):
            neighbor, distance = searcher.query(index)
            assert neighbor == expected[index]
            assert distance == expected_d[index]

    def test_query_costs_matches_scalar_estimates(self, cloud):
        points, rho = cloud
        searcher = PartitionedDependencySearcher(points, rho, n_partitions=5)
        values = rho[:20]
        batch = searcher.query_costs(values)
        for value, cost in zip(values, batch):
            assert searcher.query_cost(float(value)) == cost
