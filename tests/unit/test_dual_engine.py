"""Unit tests: dual-tree engine plumbing, float32 storage, and snapshots.

The bit-for-bit equivalence of the dual engine is property-tested in
``tests/property/test_dual_equivalence.py``; these tests cover the
surrounding machinery -- parameter validation, the cache-aware point layout,
float32 storage through ``KDTreeArrays`` / ``from_arrays`` / model
snapshots, the dual-vs-tree predict join, and the streaming integration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ApproxDPC, ExDPC, SApproxDPC
from repro.core.framework import DEFAULT_ENGINE_ENV, ENGINES, resolve_engine
from repro.data import generate_blobs
from repro.index.kdtree import KDTree, check_storage_dtype
from repro.io import load_model, save_model
from repro.stream import StreamingDPC


def _blobs(n=120, seed=3):
    centers = np.array([[20_000.0, 20_000.0], [80_000.0, 20_000.0], [50_000.0, 80_000.0]])
    points, _ = generate_blobs(n, centers, spread=3_000.0, seed=seed)
    return points


def _random_points(n, d, seed=0):
    return np.random.default_rng(seed).uniform(-100.0, 100.0, size=(n, d))


class TestEngineValidation:
    def test_resolve_engine_accepts_all_engines(self):
        for engine in ENGINES:
            assert resolve_engine(engine) == engine

    def test_resolve_engine_rejects_unknown(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            resolve_engine("gpu")
        with pytest.raises(ValueError, match="engine must be one of"):
            ExDPC(d_cut=1.0, n_clusters=2, engine="vectorized")

    def test_default_engine_env(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_ENGINE_ENV, "dual")
        assert ExDPC(d_cut=1.0, n_clusters=2).engine == "dual"
        monkeypatch.delenv(DEFAULT_ENGINE_ENV)
        assert ExDPC(d_cut=1.0, n_clusters=2).engine == "auto"
        # Explicit argument wins over the environment.
        monkeypatch.setenv(DEFAULT_ENGINE_ENV, "dual")
        assert ExDPC(d_cut=1.0, n_clusters=2, engine="scalar").engine == "scalar"

    def test_default_engine_resolves_by_dimension(self, monkeypatch):
        monkeypatch.delenv(DEFAULT_ENGINE_ENV, raising=False)
        low = ExDPC(d_cut=30.0, n_clusters=2)
        low.fit(_random_points(80, 2))
        assert low.engine == "auto" and low.engine_ == "dual"
        high = ExDPC(d_cut=30.0, n_clusters=2)
        high.fit(_random_points(80, 6))
        assert high.engine == "auto" and high.engine_ == "batch"

    def test_auto_engine_snapshot_round_trips(self, monkeypatch, tmp_path):
        monkeypatch.delenv(DEFAULT_ENGINE_ENV, raising=False)
        points = _blobs()
        model = ExDPC(d_cut=4_000.0, n_clusters=3)
        result = model.fit(points)
        restored = load_model(save_model(model, tmp_path / "model.npz"))
        assert restored.engine == "auto"
        assert restored.get_params()["engine"] == "auto"
        assert restored.engine_ == "dual"
        np.testing.assert_array_equal(restored.predict(points), result.labels_)

    def test_estimators_report_engine_and_dtype(self):
        for cls, extra in (
            (ExDPC, {}),
            (ApproxDPC, {}),
            (SApproxDPC, {"epsilon": 0.8}),
        ):
            params = cls(
                d_cut=1.0, n_clusters=2, engine="dual", dtype="float32", **extra
            ).get_params()
            assert params["engine"] == "dual"
            assert params["dtype"] == "float32"

    def test_storage_dtype_validation(self):
        assert check_storage_dtype("float32") == np.dtype(np.float32)
        assert check_storage_dtype(np.float64) == np.dtype(np.float64)
        with pytest.raises(ValueError, match="dtype must be one of"):
            check_storage_dtype("float16")
        with pytest.raises(ValueError, match="dtype must be one of"):
            ExDPC(d_cut=1.0, n_clusters=2, dtype="int32")


class TestCacheAwareLayout:
    def test_points_ordered_matches_permutation(self):
        points = _random_points(200, 2)
        tree = KDTree(points, leaf_size=8)
        np.testing.assert_array_equal(
            tree.points_ordered, tree.points[tree.arrays.indices]
        )
        assert tree.points_ordered.flags["C_CONTIGUOUS"]

    def test_memory_bytes_counts_materialised_layout(self):
        tree = KDTree(_random_points(100, 2), leaf_size=8)
        before = tree.memory_bytes()
        ordered = tree.points_ordered
        assert tree.memory_bytes() == before + ordered.nbytes

    def test_bbox_arrays_cover_points(self):
        points = _random_points(300, 3, seed=5)
        arrays = KDTree(points, leaf_size=4).arrays
        np.testing.assert_array_equal(arrays.bbox_min[0], points.min(axis=0))
        np.testing.assert_array_equal(arrays.bbox_max[0], points.max(axis=0))


class TestFloat32Storage:
    def test_storage_and_arrays_dtype(self):
        points = _random_points(64, 2)
        tree = KDTree(points, leaf_size=8, dtype="float32")
        assert tree.dtype_name == "float32"
        assert tree.points.dtype == np.float32
        assert tree.arrays.split_val.dtype == np.float32
        assert tree.arrays.bbox_min.dtype == np.float32
        np.testing.assert_array_equal(tree.source_points, points)
        assert tree.source_points.dtype == np.float64

    def test_float32_halves_point_storage(self):
        points = _random_points(256, 4)
        t64 = KDTree(points, leaf_size=8)
        t32 = KDTree(points, leaf_size=8, dtype="float32")
        assert t32.points.nbytes * 2 == t64.points.nbytes

    def test_from_arrays_infers_dtype_from_split_values(self):
        points = _random_points(128, 2)
        tree = KDTree(points, leaf_size=8, dtype="float32")
        view = KDTree.from_arrays(points, tree.arrays, leaf_size=8, validate=True)
        assert view.dtype_name == "float32"
        np.testing.assert_array_equal(
            view.range_count_batch(points, 25.0),
            tree.range_count_batch(points, 25.0),
        )
        np.testing.assert_array_equal(
            view.range_count_dual(25.0), tree.range_count_dual(25.0)
        )

    def test_dual_partner_requires_matching_dtype(self):
        points = _random_points(32, 2)
        t32 = KDTree(points, leaf_size=8, dtype="float32")
        t64 = KDTree(points, leaf_size=8)
        with pytest.raises(ValueError, match="same dtype"):
            t64.range_count_dual_vs(t32, 1.0)
        with pytest.raises(ValueError, match="dimension"):
            t64.range_count_dual_vs(KDTree(_random_points(8, 3)), 1.0)


class TestDualPredict:
    def test_predict_train_points_recover_labels(self):
        points = _blobs()
        model = ExDPC(d_cut=5_000.0, n_clusters=3, seed=0, engine="dual")
        model.fit(points)
        np.testing.assert_array_equal(model.predict(points), model.result_.labels_)

    @pytest.mark.parametrize(
        "cls,extra",
        [(ExDPC, {}), (ApproxDPC, {}), (SApproxDPC, {"epsilon": 0.8})],
    )
    def test_predict_matches_batch_engine(self, cls, extra):
        points = _blobs()
        queries = _random_points(40, 2, seed=9) * 500.0 + 50_000.0
        batch = cls(d_cut=5_000.0, n_clusters=3, seed=0, engine="batch", **extra)
        dual = cls(d_cut=5_000.0, n_clusters=3, seed=0, engine="dual", **extra)
        batch.fit(points)
        dual.fit(points)
        np.testing.assert_array_equal(batch.predict(queries), dual.predict(queries))

    def test_dual_vs_join_counts_match_batch(self):
        points = _blobs()
        queries = _random_points(50, 2, seed=4) * 400.0 + 50_000.0
        tree = KDTree(points, leaf_size=16)
        query_tree = KDTree(queries, leaf_size=8)
        np.testing.assert_array_equal(
            tree.range_count_dual_vs(query_tree, 5_000.0),
            tree.range_count_batch(queries, 5_000.0),
        )


class TestSnapshotsAndStreaming:
    def test_float32_dual_model_roundtrips(self, tmp_path):
        points = _blobs()
        model = ExDPC(
            d_cut=5_000.0, n_clusters=3, seed=0, engine="dual", dtype="float32"
        )
        model.fit(points)
        path = save_model(model, tmp_path / "model.npz")
        restored = load_model(path)
        assert restored.engine == "dual"
        assert restored.dtype == "float32"
        assert restored._tree.dtype_name == "float32"
        queries = _random_points(30, 2, seed=2) * 500.0 + 50_000.0
        np.testing.assert_array_equal(
            restored.predict(queries), model.predict(queries)
        )

    def test_mmap_snapshot_supports_dual_predict(self, tmp_path):
        points = _blobs()
        model = ExDPC(d_cut=5_000.0, n_clusters=3, seed=0, engine="dual")
        model.fit(points)
        path = save_model(model, tmp_path / "model.npz")
        restored = load_model(path, mmap=True)
        np.testing.assert_array_equal(
            restored.predict(points), model.result_.labels_
        )

    def test_streaming_dual_engine_matches_refits(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0.0, 100.0, size=(60, 2))
        stream = StreamingDPC(
            d_cut=15.0,
            delta_min=25.0,
            seed=0,
            engine="dual",
            refit_equivalence=True,  # raises on any divergence from a cold fit
        )
        stream.fit(points[:40])
        stream.update(points[40:50])
        stream.update(points[50:])
        cold = ExDPC(
            d_cut=15.0, delta_min=25.0, seed=0, engine="dual"
        ).fit(stream.window_)
        np.testing.assert_array_equal(stream.labels_, cold.labels_)

    def test_streaming_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            StreamingDPC(d_cut=1.0, n_clusters=2, engine="quantum")
