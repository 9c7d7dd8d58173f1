"""Unit tests for shard plans, halo geometry and the shard manifest."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.shard import (
    ShardedDPC,
    halo_slack,
    load_sharded,
    plan_shards,
    save_sharded,
    separating_plane,
)
from repro.shard.partition import slab_indices


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(5)
    centers = rng.uniform(10.0, 90.0, size=(3, 2))
    return np.concatenate(
        [center + rng.normal(0.0, 5.0, size=(80, 2)) for center in centers]
    )


@pytest.fixture(scope="module")
def fitted(points):
    model = ShardedDPC(8.0, n_shards=4, rho_min=1, n_clusters=3, seed=0)
    model.fit(points)
    return model


class TestShardPlan:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_members_partition_the_indices(self, points, n_shards):
        plan = plan_shards(points, n_shards)
        combined = np.concatenate(plan.members)
        assert combined.size == points.shape[0]
        np.testing.assert_array_equal(np.sort(combined), np.arange(points.shape[0]))
        for members in plan.members:
            # Ascending order is the shard-local tie-break contract.
            assert np.all(np.diff(members) > 0)

    def test_shard_sizes_balanced(self, points):
        plan = plan_shards(points, 8)
        sizes = plan.shard_sizes
        assert sizes.min() >= points.shape[0] // 8
        assert sizes.max() - sizes.min() <= 1

    def test_assignments_invert_members(self, points):
        plan = plan_shards(points, 4)
        assignments = plan.assignments(points.shape[0])
        for shard, members in enumerate(plan.members):
            np.testing.assert_array_equal(
                np.flatnonzero(assignments == shard), members
            )

    def test_non_power_of_two_rejected(self, points):
        with pytest.raises(ValueError, match="power of two"):
            plan_shards(points, 3)

    def test_more_shards_than_points_rejected(self):
        with pytest.raises(ValueError, match="must not exceed"):
            plan_shards(np.zeros((4, 2)), 8)

    def test_deterministic(self, points):
        first = plan_shards(points, 4)
        second = plan_shards(points, 4)
        np.testing.assert_array_equal(first.axes, second.axes)
        np.testing.assert_array_equal(first.values, second.values)
        for a, b in zip(first.members, second.members):
            np.testing.assert_array_equal(a, b)


class TestSeparatingPlane:
    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_every_pair_is_separated(self, points, n_shards):
        plan = plan_shards(points, n_shards)
        for a in range(n_shards):
            for b in range(n_shards):
                if a == b:
                    continue
                axis, value, a_on_left = separating_plane(plan, a, b)
                coords_a = points[plan.members[a], axis]
                coords_b = points[plan.members[b], axis]
                if a_on_left:
                    assert coords_a.max() <= value <= coords_b.min()
                else:
                    assert coords_b.max() <= value <= coords_a.min()

    def test_symmetric_pair_flips_side(self, points):
        plan = plan_shards(points, 4)
        axis_ab, value_ab, left_ab = separating_plane(plan, 0, 3)
        axis_ba, value_ba, left_ba = separating_plane(plan, 3, 0)
        assert (axis_ab, value_ab) == (axis_ba, value_ba)
        assert left_ab != left_ba

    def test_identical_shards_rejected(self, points):
        plan = plan_shards(points, 4)
        with pytest.raises(ValueError, match="distinct"):
            separating_plane(plan, 2, 2)


class TestHaloSlab:
    def test_slab_matches_brute_force(self):
        rng = np.random.default_rng(11)
        coords = rng.uniform(0.0, 100.0, size=200)
        value, d_cut = 50.0, 7.0
        bound = d_cut + halo_slack(d_cut, "float64")
        left = slab_indices(coords, value, True, d_cut, "float64")
        np.testing.assert_array_equal(left, np.flatnonzero(value - coords < bound))
        right = slab_indices(coords, value, False, d_cut, "float64")
        np.testing.assert_array_equal(right, np.flatnonzero(coords - value < bound))

    def test_slack_positive_and_proportional(self):
        assert halo_slack(10.0, "float64") > 0
        assert halo_slack(10.0, "float32") > halo_slack(10.0, "float64")
        assert halo_slack(20.0, "float64") == 2 * halo_slack(10.0, "float64")

    def test_float32_plane_cast_keeps_separation(self):
        # The stored plane value must still separate storage-rounded sides.
        rng = np.random.default_rng(3)
        points = rng.uniform(0.0, 1.0, size=(64, 1))
        plan = plan_shards(points, 2)
        axis, value, _ = separating_plane(plan, 0, 1)
        stored = points[:, axis].astype(np.float32).astype(np.float64)
        value32 = float(np.float32(value))
        assert stored[plan.members[0]].max() <= value32
        assert stored[plan.members[1]].min() >= value32


class TestShardStats:
    def test_stats_populated_after_fit(self, fitted, points):
        stats = fitted.shard_stats_
        assert stats["n_shards"] == 4
        assert sum(stats["shard_sizes"]) == points.shape[0]
        assert stats["halo_exported_points"] > 0
        # Clusters straddle the cut planes, so halo credits must flow.
        assert stats["halo_credits"] > 0

    def test_recluster_unsupported(self, fitted):
        assert fitted.supports_recluster is False


class TestManifestRoundTrip:
    @pytest.mark.parametrize("mmap", [False, True], ids=["load", "mmap"])
    def test_predict_and_result_survive(self, fitted, points, tmp_path, mmap):
        path = save_sharded(fitted, tmp_path / "manifest")
        restored = load_sharded(path, mmap=mmap)
        np.testing.assert_array_equal(
            restored.result_.labels_, fitted.result_.labels_
        )
        np.testing.assert_array_equal(restored.result_.rho_, fitted.result_.rho_)
        np.testing.assert_array_equal(
            restored.result_.delta_, fitted.result_.delta_
        )
        rng = np.random.default_rng(2)
        queries = points + rng.normal(0.0, 0.3, size=points.shape)
        np.testing.assert_array_equal(
            restored.predict(queries), fitted.predict(queries)
        )
        np.testing.assert_array_equal(restored.predict(points), fitted.result_.labels_)

    def test_params_survive(self, fitted, tmp_path):
        path = save_sharded(fitted, tmp_path / "manifest")
        restored = load_sharded(path)
        assert restored.n_shards == fitted.n_shards
        assert restored.d_cut == fitted.d_cut
        assert restored.n_clusters == fitted.n_clusters
        assert restored.algorithm_name == "Sharded-Ex-DPC"

    def test_float32_model_round_trips(self, points, tmp_path):
        model = ShardedDPC(
            8.0, n_shards=2, rho_min=1, n_clusters=3, seed=0, dtype="float32"
        )
        model.fit(points)
        restored = load_sharded(save_sharded(model, tmp_path / "manifest"))
        assert restored.dtype == "float32"
        np.testing.assert_array_equal(
            restored.predict(points), model.result_.labels_
        )

    def test_unfitted_model_rejected(self, tmp_path):
        model = ShardedDPC(8.0, n_shards=2, n_clusters=3)
        with pytest.raises(RuntimeError):
            save_sharded(model, tmp_path / "manifest")

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_sharded(tmp_path / "nope")

    def test_future_format_version_rejected(self, fitted, tmp_path):
        path = save_sharded(fitted, tmp_path / "manifest")
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format version"):
            load_sharded(path)

    def test_manifest_with_legacy_pipeline_param_loads(self, fitted, points, tmp_path):
        # Manifests written while ShardedDPC still took ``pipeline=`` record
        # it in their params; loading ignores it instead of failing.
        path = save_sharded(fitted, tmp_path / "manifest")
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["params"]["pipeline"] = None
        manifest_path.write_text(json.dumps(manifest))
        restored = load_sharded(path)
        assert "pipeline" not in restored.get_params()
        np.testing.assert_array_equal(restored.predict(points), fitted.result_.labels_)

    def test_manifest_is_one_file_per_shard(self, fitted, tmp_path):
        path = save_sharded(fitted, tmp_path / "manifest")
        names = sorted(p.name for p in path.iterdir())
        assert names == [
            "global.npz",
            "manifest.json",
            "shard_0.npz",
            "shard_1.npz",
            "shard_2.npz",
            "shard_3.npz",
        ]
