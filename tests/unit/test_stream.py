"""Unit tests for the StreamingDPC window mechanics."""

import numpy as np
import pytest

from repro.core import ExDPC
from repro.stream import StreamingDPC, load_model, save_model


def _uniform(n, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 100.0, size=(n, 2))


def _stream(min_rebuild=10_000, rebuild_threshold=None, **overrides):
    params = dict(d_cut=15.0, rho_min=2, delta_min=25.0, seed=0)
    params.update(overrides)
    stream = StreamingDPC(**params)
    # The rebuild tunables are class constants; pin them per instance.
    stream._MIN_REBUILD = min_rebuild
    if rebuild_threshold is not None:
        stream._REBUILD_THRESHOLD = rebuild_threshold
    return stream


class TestLifecycle:
    def test_operations_require_fit(self):
        stream = _stream()
        for operation in (
            lambda: stream.insert(np.zeros((1, 2))),
            lambda: stream.update(np.zeros((1, 2))),
            lambda: stream.evict_oldest(),
            lambda: stream.predict(np.zeros((1, 2))),
            lambda: stream.window_,
        ):
            with pytest.raises(RuntimeError, match="not fitted"):
                operation()

    def test_fit_matches_cold_exdpc(self):
        points = _uniform(60)
        stream = _stream().fit(points)
        cold = ExDPC(d_cut=15.0, rho_min=2, delta_min=25.0, seed=0).fit(points)
        np.testing.assert_array_equal(stream.labels_, cold.labels_)
        np.testing.assert_array_equal(stream.centers_, cold.centers_)
        np.testing.assert_array_equal(stream.noise_mask_, cold.noise_mask_)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StreamingDPC(d_cut=-1.0, delta_min=5.0)
        with pytest.raises(ValueError):
            StreamingDPC(d_cut=1.0, delta_min=5.0, n_clusters=3)
        with pytest.raises(ValueError, match="window_size"):
            StreamingDPC(d_cut=1.0, delta_min=5.0, window_size=1)

    @pytest.mark.parametrize(
        "keyword", ["rebuild_threshold", "min_rebuild", "repair_chunk", "dual_frontier"]
    )
    def test_removed_keywords_raise(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            StreamingDPC(d_cut=15.0, delta_min=25.0, **{keyword: 1})

    def test_initial_window_must_fit(self):
        with pytest.raises(ValueError, match="exceeds"):
            _stream(window_size=10).fit(_uniform(20))

    def test_dimension_mismatch_rejected(self):
        stream = _stream().fit(_uniform(30))
        with pytest.raises(ValueError, match="dimension"):
            stream.insert(np.zeros((1, 3)))


class TestRefusal:
    """An operation that raises part-way leaves the stream unfitted."""

    @staticmethod
    def _assert_unfitted(stream):
        assert stream.labels_ is None and stream.centers_ is None
        with pytest.raises(RuntimeError, match="not fitted"):
            stream.window_
        with pytest.raises(RuntimeError, match="not fitted"):
            stream.update(_uniform(1, seed=5))

    def test_refused_update_leaves_stream_unfitted(self):
        # Sliding the window by one point leaves no point with rho >= 2 and
        # delta >= delta_min: the repair refuses exactly like a cold fit.
        rng = np.random.default_rng(408)
        stream = StreamingDPC(
            d_cut=15,
            rho_min=2,
            delta_min=25,
            window_size=16,
            refit_equivalence=True,
        )
        stream.fit(rng.uniform(0.0, 100.0, size=(16, 2)))
        with pytest.raises(ValueError, match="no cluster centers selected"):
            stream.update(rng.uniform(0.0, 100.0, size=(1, 2)))
        self._assert_unfitted(stream)
        # A fresh fit brings the stream back.
        stream.fit(_uniform(16))
        assert stream.window_.shape == (16, 2)

    def test_refused_refit_leaves_stream_unfitted(self):
        stream = _stream().fit(_uniform(30))
        sparse = np.arange(20.0)[:, None] * np.array([[100.0, 0.0]])
        with pytest.raises(ValueError, match="no cluster centers selected"):
            stream.fit(sparse)
        self._assert_unfitted(stream)


class TestWindowPolicies:
    def test_landmark_mode_grows(self):
        stream = _stream().fit(_uniform(30))
        stream.insert(_uniform(10, seed=1))
        assert stream.n_points == 40
        stream.update(_uniform(5, seed=2))  # no window_size: update == insert
        assert stream.n_points == 45

    def test_sliding_window_caps_size(self):
        stream = _stream(window_size=30).fit(_uniform(30))
        stream.update(_uniform(12, seed=1))
        assert stream.n_points == 30

    def test_insert_beyond_window_raises(self):
        stream = _stream(window_size=30).fit(_uniform(30))
        with pytest.raises(ValueError, match="window_size"):
            stream.insert(_uniform(1, seed=1))
        # The check runs before any mutation: the stream stays fitted.
        stream.update(_uniform(1, seed=1))

    def test_evict_oldest_removes_oldest(self):
        points = _uniform(30)
        stream = _stream().fit(points)
        stream.evict_oldest(3)
        assert stream.n_points == 27
        window = stream.window_
        # The three oldest (first-fitted) points must be gone.
        for row in points[:3]:
            assert not np.any(np.all(window == row, axis=1))
        for row in points[3:]:
            assert np.any(np.all(window == row, axis=1))

    def test_cannot_shrink_below_two(self):
        stream = _stream(rho_min=None).fit(_uniform(4))
        with pytest.raises(ValueError):
            stream.evict_oldest(3)

    def test_minimum_window_can_slide(self):
        # window_size=2 is the smallest accepted window; update() must be
        # able to slide it (transient 1-point state between evict and insert).
        stream = _stream(rho_min=None, window_size=2).fit(_uniform(2))
        stream.update(_uniform(3, seed=12))
        assert stream.n_points == 2

    def test_update_follows_fifo(self):
        points = _uniform(20)
        stream = _stream(window_size=20).fit(points)
        fresh = _uniform(5, seed=9) + 200.0
        stream.update(fresh)
        window = stream.window_
        for row in points[:5]:  # oldest five evicted
            assert not np.any(np.all(window == row, axis=1))
        for row in fresh:
            assert np.any(np.all(window == row, axis=1))


class TestRebuild:
    def test_rebuild_triggers_on_mutation_budget(self):
        stream = _stream(window_size=40, min_rebuild=8, rebuild_threshold=0.1)
        stream.fit(_uniform(40))
        assert stream.stats_["rebuilds"] == 1
        stream.update(_uniform(10, seed=3))  # 20 mutations >= max(8, 4)
        assert stream.stats_["rebuilds"] >= 2

    def test_state_identical_across_rebuild_boundary(self):
        points = _uniform(50)
        extra = _uniform(12, seed=4)
        eager = _stream(window_size=50, min_rebuild=5, rebuild_threshold=0.01)
        lazy = _stream(window_size=50)
        eager.fit(points)
        lazy.fit(points)
        for row in extra:
            eager.update(row[None, :])
            lazy.update(row[None, :])
        assert eager.stats_["rebuilds"] > lazy.stats_["rebuilds"]
        np.testing.assert_array_equal(eager.labels_, lazy.labels_)
        np.testing.assert_array_equal(eager.window_, lazy.window_)


class TestServing:
    def test_predict_matches_cold_model(self):
        stream = _stream(window_size=60).fit(_uniform(60))
        stream.update(_uniform(10, seed=5))
        queries = _uniform(40, seed=6)
        cold = ExDPC(d_cut=15.0, rho_min=2, delta_min=25.0, seed=0)
        cold.fit(stream.window_)
        np.testing.assert_array_equal(stream.predict(queries), cold.predict(queries))

    def test_to_estimator_snapshot_round_trip(self, tmp_path):
        stream = _stream(window_size=60).fit(_uniform(60))
        stream.update(_uniform(8, seed=7))
        estimator = stream.to_estimator()
        path = save_model(estimator, tmp_path / "stream.npz")
        restored = load_model(path, mmap=True)
        queries = _uniform(30, seed=8)
        np.testing.assert_array_equal(
            restored.predict(queries), stream.predict(queries)
        )
        np.testing.assert_array_equal(
            restored.predict(stream.window_), stream.labels_
        )

    def test_to_estimator_cache_invalidated_by_update(self):
        stream = _stream(window_size=60).fit(_uniform(60))
        first = stream.to_estimator()
        assert stream.to_estimator() is first
        stream.update(_uniform(1, seed=9))
        assert stream.to_estimator() is not first

    def test_stats_accumulate(self):
        stream = _stream(window_size=40).fit(_uniform(40))
        stream.update(_uniform(6, seed=10))
        assert stream.stats_["inserts"] == 6
        assert stream.stats_["evicts"] == 6
        assert stream.stats_["repairs"] >= 1
        assert stream.stats_["dirty_dependency"] > 0
