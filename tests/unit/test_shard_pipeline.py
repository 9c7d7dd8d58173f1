"""Unit tests for the memory-budgeted shard pipeline scheduler."""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import ExDPC
from repro.parallel.shm import SharedArrayBundle
from repro.shard import (
    ShardedDPC,
    estimate_shard_bytes,
    minimum_budget_bytes,
    plan_shards,
    plan_shards_streaming,
)


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(9)
    centers = rng.uniform(15.0, 85.0, size=(3, 2))
    blobs = [center + rng.normal(0.0, 5.0, size=(80, 2)) for center in centers]
    return np.concatenate(blobs)


@pytest.fixture(scope="module")
def reference(points):
    model = ExDPC(8.0, rho_min=1, n_clusters=3, seed=0)
    result = model.fit(points)
    return model, result


def budget_for(points, model, factor=1.0):
    plan = plan_shards(points, model.n_shards)
    minimum = minimum_budget_bytes(
        plan.shard_sizes, points.shape[1], model.dtype, model.leaf_size
    )
    return int(np.ceil(minimum * factor))


def serial_result(points, n_shards):
    """The one-stage-at-a-time fit every other schedule must reproduce."""
    model = ShardedDPC(
        8.0, n_shards=n_shards, rho_min=1, n_clusters=3, seed=0, pipeline_workers=1
    )
    return model.fit(points)


def assert_matches_reference(result, ref_result):
    np.testing.assert_array_equal(result.rho_raw_, ref_result.rho_raw_)
    np.testing.assert_array_equal(result.rho_, ref_result.rho_)
    np.testing.assert_array_equal(result.dependent_, ref_result.dependent_)
    np.testing.assert_array_equal(result.delta_, ref_result.delta_)
    np.testing.assert_array_equal(result.labels_, ref_result.labels_)


class TestBudgetModel:
    def test_estimate_monotone_in_points_and_dim(self):
        assert estimate_shard_bytes(100, 2) < estimate_shard_bytes(1_000, 2)
        assert estimate_shard_bytes(500, 2) < estimate_shard_bytes(500, 8)

    def test_float32_storage_is_cheaper(self):
        assert estimate_shard_bytes(
            1_000, 4, dtype="float32"
        ) < estimate_shard_bytes(1_000, 4, dtype="float64")

    def test_minimum_budget_covers_largest_shard(self, points):
        plan = plan_shards(points, 4)
        largest = max(
            estimate_shard_bytes(int(n), points.shape[1], "float64", 32)
            for n in plan.shard_sizes
        )
        minimum = minimum_budget_bytes(plan.shard_sizes, points.shape[1], "float64", 32)
        assert minimum > largest

    def test_too_small_budget_rejected_up_front(self, points):
        model = ShardedDPC(
            8.0, n_shards=2, rho_min=1, n_clusters=3, seed=0, memory_budget_bytes=1
        )
        with pytest.raises(ValueError, match="minimum"):
            model.fit(points)

    def test_pipeline_switch_removed(self):
        # ShardPipeline is the only driver; there is nothing to switch.
        with pytest.raises(TypeError):
            ShardedDPC(8.0, n_shards=2, n_clusters=3, pipeline=True)

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ValueError):
            ShardedDPC(8.0, n_shards=2, n_clusters=3, memory_budget_bytes=0)


class TestPipelinedEquivalence:
    @pytest.mark.parametrize("n_shards", (2, 4))
    def test_unbounded_pipeline_matches_reference(self, points, reference, n_shards):
        _, ref_result = reference
        model = ShardedDPC(
            8.0, n_shards=n_shards, rho_min=1, n_clusters=3, seed=0, pipeline_workers=2
        )
        result = model.fit(points)
        assert_matches_reference(result, ref_result)
        serial = serial_result(points, n_shards)
        assert_matches_reference(result, serial)
        assert result.work_ == serial.work_
        assert model.shard_stats_["budget_bytes"] is None
        assert model.shard_stats_["pipeline"]["spilled"] == []

    @pytest.mark.parametrize("factor", (1.0, 2.0), ids=["one-shard", "two-shard"])
    def test_budgeted_pipeline_matches_reference(self, points, reference, factor):
        ref_model, ref_result = reference
        probe = ShardedDPC(8.0, n_shards=4, rho_min=1, n_clusters=3, seed=0)
        budget = budget_for(points, probe, factor=factor)
        model = ShardedDPC(
            8.0,
            n_shards=4,
            rho_min=1,
            n_clusters=3,
            seed=0,
            memory_budget_bytes=budget,
        )
        result = model.fit(points)
        assert_matches_reference(result, ref_result)
        # Work accounting is part of the schedule-independence contract
        # (ExDPC itself traverses a different index, so its counts differ).
        serial = serial_result(points, 4)
        assert_matches_reference(result, serial)
        assert result.work_ == serial.work_
        stats = model.shard_stats_
        assert stats["budget_bytes"] == budget
        assert 0 < stats["peak_rss_bytes"] <= budget
        # Budget mode spills every shard before the cross pass.
        assert stats["pipeline"]["spilled"] == [0, 1, 2, 3]

    def test_worker_count_does_not_change_work(self, points):
        # Two workers are covered above; three is another schedule.
        serial = serial_result(points, 4)
        model = ShardedDPC(
            8.0, n_shards=4, rho_min=1, n_clusters=3, seed=0, pipeline_workers=3
        )
        result = model.fit(points)
        assert_matches_reference(result, serial)
        assert result.work_ == serial.work_

    def test_report_describes_the_dag(self, points):
        probe = ShardedDPC(8.0, n_shards=2, rho_min=1, n_clusters=3, seed=0)
        budget = budget_for(points, probe)
        model = ShardedDPC(
            8.0,
            n_shards=2,
            rho_min=1,
            n_clusters=3,
            seed=0,
            memory_budget_bytes=budget,
            pipeline_workers=3,
        )
        model.fit(points)
        report = model.shard_stats_["pipeline"]
        assert report["workers"] == 3
        assert report["budget_bytes"] == budget
        assert report["minimum_budget_bytes"] <= budget
        assert len(report["reserve_bytes"]) == 2
        assert report["scratch_bytes"] > 0
        # One log entry per stage, drained in dependency order: every shard's
        # build precedes its density pass.
        log = report["stage_log"]
        assert len(log) == report["n_stages"] == len(set(log))
        for shard in range(2):
            assert log.index(f"build:{shard}") < log.index(f"density:{shard}")
            assert log.index(f"density:{shard}") < log.index(f"localdep:{shard}")

    def test_predict_after_budgeted_fit(self, points, reference):
        ref_model, _ = reference
        probe = ShardedDPC(8.0, n_shards=2, rho_min=1, n_clusters=3, seed=0)
        model = ShardedDPC(
            8.0,
            n_shards=2,
            rho_min=1,
            n_clusters=3,
            seed=0,
            memory_budget_bytes=budget_for(points, probe),
        )
        model.fit(points)
        rng = np.random.default_rng(3)
        queries = points + rng.normal(0.0, 0.4, size=points.shape)
        np.testing.assert_array_equal(
            model.predict(queries), ref_model.predict(queries)
        )


class TestBudgetCompliance:
    def test_process_backend_shm_stays_under_budget(self, points, reference):
        # The instrumented shared-memory accounting is the ground truth for
        # the scheduler's budget promise under the process backend.
        _, ref_result = reference
        probe = ShardedDPC(8.0, n_shards=4, rho_min=1, n_clusters=3, seed=0)
        budget = budget_for(points, probe, factor=1.5)
        SharedArrayBundle.reset_peak_bytes()
        model = ShardedDPC(
            8.0,
            n_shards=4,
            rho_min=1,
            n_clusters=3,
            seed=0,
            memory_budget_bytes=budget,
            backend="process",
            n_jobs=2,
        )
        result = model.fit(points)
        assert_matches_reference(result, ref_result)
        assert 0 < SharedArrayBundle.peak_bytes() <= budget
        assert SharedArrayBundle.live_bytes() == 0
        assert model.shard_stats_["peak_rss_bytes"] <= budget


class TestUnbudgetedDefault:
    def test_one_pool_and_segment_live_at_a_time(self, points, reference, monkeypatch):
        # Without a budget nothing accounts for concurrent stages, and under
        # the process backend every stage opens its own pool and shard
        # segment; the default schedule must keep one of each alive at once.
        _, ref_result = reference
        lock = threading.Lock()
        live = {"runtimes": set(), "bundles": set()}
        peak = {"runtimes": 0, "bundles": 0}

        def enter(kind, token):
            with lock:
                live[kind].add(token)
                peak[kind] = max(peak[kind], len(live[kind]))

        def leave(kind, token):
            with lock:
                live[kind].discard(token)

        original_runtime = ShardedDPC._shard_runtime
        original_create = SharedArrayBundle.create.__func__
        original_unlink = SharedArrayBundle.unlink

        @contextmanager
        def counted_runtime(self, tree, counter=None):
            token = object()
            enter("runtimes", token)
            try:
                with original_runtime(self, tree, counter=counter) as handles:
                    yield handles
            finally:
                leave("runtimes", token)

        def counted_create(cls, arrays):
            bundle = original_create(cls, arrays)
            enter("bundles", id(bundle))
            return bundle

        def counted_unlink(self):
            leave("bundles", id(self))
            original_unlink(self)

        monkeypatch.setattr(ShardedDPC, "_shard_runtime", counted_runtime)
        monkeypatch.setattr(SharedArrayBundle, "create", classmethod(counted_create))
        monkeypatch.setattr(SharedArrayBundle, "unlink", counted_unlink)
        model = ShardedDPC(
            8.0,
            n_shards=4,
            rho_min=1,
            n_clusters=3,
            seed=0,
            backend="process",
            n_jobs=3,
        )
        result = model.fit(points)
        assert_matches_reference(result, ref_result)
        assert model.shard_stats_["pipeline"]["workers"] == 1
        assert peak == {"runtimes": 1, "bundles": 1}
        assert not live["runtimes"] and not live["bundles"]


class TestStreamingInput:
    def test_npy_path_fit_matches_in_memory(self, points, reference, tmp_path):
        _, ref_result = reference
        path = tmp_path / "points.npy"
        np.save(path, points)
        model = ShardedDPC(8.0, n_shards=2, rho_min=1, n_clusters=3, seed=0)
        result = model.fit(path)
        assert_matches_reference(result, ref_result)
        stats = model.shard_stats_
        assert stats["streaming_input"] is True

    def test_chunk_iterator_fit_matches_in_memory(self, points, reference):
        _, ref_result = reference
        chunks = iter([points[:100], points[100:190], points[190:]])
        model = ShardedDPC(8.0, n_shards=2, rho_min=1, n_clusters=3, seed=0)
        result = model.fit(chunks)
        assert_matches_reference(result, ref_result)
        assert model.shard_stats_["streaming_input"] is True

    def test_streaming_with_budget(self, points, reference, tmp_path):
        _, ref_result = reference
        path = tmp_path / "points.npy"
        np.save(path, points)
        probe = ShardedDPC(8.0, n_shards=2, rho_min=1, n_clusters=3, seed=0)
        budget = budget_for(points, probe)
        model = ShardedDPC(
            8.0,
            n_shards=2,
            rho_min=1,
            n_clusters=3,
            seed=0,
            memory_budget_bytes=budget,
        )
        result = model.fit(path)
        assert_matches_reference(result, ref_result)
        assert model.shard_stats_["peak_rss_bytes"] <= budget

    def test_inconsistent_chunk_dims_rejected(self):
        chunks = iter([np.zeros((4, 2)), np.zeros((4, 3))])
        model = ShardedDPC(8.0, n_shards=2, n_clusters=2)
        with pytest.raises(ValueError, match="dimension"):
            model.fit(chunks)

    def test_non_finite_chunk_rejected(self):
        chunks = iter([np.array([[0.0, 0.0], [1.0, np.nan]])])
        model = ShardedDPC(8.0, n_shards=2, n_clusters=2)
        with pytest.raises(ValueError):
            model.fit(chunks)


class TestStreamingPlanner:
    @pytest.mark.parametrize("n_shards", (2, 4))
    def test_matches_in_memory_plan(self, points, tmp_path, n_shards):
        path = tmp_path / "points.npy"
        np.save(path, points)
        source = np.load(path, mmap_mode="r")
        in_memory = plan_shards(points, n_shards)
        streamed = plan_shards_streaming(source, n_shards)
        np.testing.assert_array_equal(streamed.axes, in_memory.axes)
        np.testing.assert_array_equal(streamed.values, in_memory.values)
        for a, b in zip(streamed.members, in_memory.members):
            np.testing.assert_array_equal(a, b)

    def test_small_sample_window_still_exact(self, points):
        # A tiny sample forces the quantile-window refinement (and possibly
        # the full-column fallback); the split statistic must stay exact.
        in_memory = plan_shards(points, 4)
        streamed = plan_shards_streaming(points, 4, sample_size=8, chunk_rows=37)
        np.testing.assert_array_equal(streamed.values, in_memory.values)
        for a, b in zip(streamed.members, in_memory.members):
            np.testing.assert_array_equal(a, b)
