"""Unit tests for model snapshots (save_model / load_model / mmap loading)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import CFSFDPA
from repro.core import ApproxDPC, ExDPC, SApproxDPC
from repro.data import generate_blobs
from repro.io import MODEL_FORMAT_VERSION, load_model, save_model
from repro.stream.snapshot import _load_npz_memmap


@pytest.fixture(scope="module")
def queries():
    return np.random.default_rng(7).uniform(0, 100_000, size=(150, 2))


def _fit(builder, points):
    model = builder(d_cut=2_000.0, rho_min=2, n_clusters=3, seed=0)
    model.fit(points)
    return model


def _blobs_8d() -> np.ndarray:
    centers = np.random.default_rng(8).uniform(20_000.0, 80_000.0, size=(3, 8))
    points, _ = generate_blobs(400, centers, spread=500.0, seed=3)
    return points


class TestRoundTrip:
    @pytest.mark.parametrize(
        "builder,dim",
        [
            pytest.param(lambda **kw: ExDPC(**kw), 2, id="ex-dpc"),
            pytest.param(lambda **kw: ApproxDPC(**kw), 2, id="approx-dpc"),
            pytest.param(
                lambda **kw: SApproxDPC(epsilon=0.5, **kw), 2, id="s-approx-dpc"
            ),
            pytest.param(lambda **kw: CFSFDPA(**kw), 2, id="cfsfdp-a"),
            pytest.param(
                lambda **kw: ExDPC(dtype="float32", **kw), 2, id="ex-dpc-float32"
            ),
            pytest.param(
                lambda **kw: SApproxDPC(epsilon=0.5, dtype="float32", **kw),
                2,
                id="s-approx-dpc-float32",
            ),
            pytest.param(lambda **kw: ExDPC(**kw), 8, id="ex-dpc-d8"),
            pytest.param(lambda **kw: ApproxDPC(**kw), 8, id="approx-dpc-d8"),
            pytest.param(
                lambda **kw: ExDPC(engine="batch", **kw), 2, id="ex-dpc-batch-fit"
            ),
            pytest.param(
                lambda **kw: ApproxDPC(engine="batch", **kw),
                2,
                id="approx-dpc-batch-fit",
            ),
        ],
    )
    @pytest.mark.parametrize("mmap", [False, True], ids=["load", "mmap"])
    def test_restored_predict_matches(
        self, builder, dim, mmap, tmp_path, small_blobs, queries
    ):
        if dim == 2:
            points, _ = small_blobs
        else:
            points = _blobs_8d()
            rng = np.random.default_rng(9)
            queries = np.concatenate(
                [
                    rng.uniform(0, 100_000, size=(50, dim)),
                    points[::4] + rng.normal(0.0, 300.0, size=(100, dim)),
                ]
            )
        model = _fit(builder, points)
        path = save_model(model, tmp_path / "model.npz")
        restored = load_model(path, mmap=mmap)
        tree = restored._predict_tree()
        if tree is not None and model.engine_ != "dual":
            # Only dual fits store per-node density maxima; predict derives
            # them lazily (read-only arrays under mmap).
            assert tree.arrays.rho_max is None
        # Golden round trip: load(save(m)).predict == m.predict, on both the
        # training matrix and fresh queries.
        np.testing.assert_array_equal(
            restored.predict(points), model.result_.labels_
        )
        np.testing.assert_array_equal(
            restored.predict(queries), model.predict(queries)
        )

    def test_result_arrays_survive(self, tmp_path, small_blobs):
        points, _ = small_blobs
        model = _fit(lambda **kw: ExDPC(**kw), points)
        restored = load_model(save_model(model, tmp_path / "m.npz"))
        original = model.result_
        np.testing.assert_array_equal(restored.result_.labels_, original.labels_)
        np.testing.assert_array_equal(restored.result_.rho_raw_, original.rho_raw_)
        np.testing.assert_array_equal(restored.result_.centers_, original.centers_)
        np.testing.assert_array_equal(
            restored.result_.dependent_raw_, original.dependent_raw_
        )
        np.testing.assert_allclose(restored.result_.delta_, original.delta_)
        assert restored.d_cut == model.d_cut
        assert restored.rho_min == model.rho_min
        assert restored.n_clusters == model.n_clusters

    def test_sapprox_epsilon_survives(self, tmp_path, small_blobs):
        points, _ = small_blobs
        model = _fit(lambda **kw: SApproxDPC(epsilon=0.7, **kw), points)
        restored = load_model(save_model(model, tmp_path / "m.npz"))
        assert isinstance(restored, SApproxDPC)
        assert restored.epsilon == 0.7

    def test_index_free_model_has_no_tree(self, tmp_path, small_blobs):
        points, _ = small_blobs
        model = _fit(lambda **kw: CFSFDPA(**kw), points)
        restored = load_model(save_model(model, tmp_path / "m.npz"))
        assert restored._predict_tree() is None


class TestErrors:
    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(RuntimeError, match="not fitted"):
            save_model(ExDPC(d_cut=1.0, n_clusters=2), tmp_path / "m.npz")

    def test_unrestorable_algorithm_rejected_at_save_time(
        self, tmp_path, small_blobs
    ):
        from repro.baselines import RTreeScanDPC

        points, _ = small_blobs
        model = RTreeScanDPC(d_cut=2_000.0, rho_min=2, n_clusters=3, seed=0)
        model.fit(points)
        # Refusing at save time beats discovering an unloadable snapshot on
        # the serving replica.
        with pytest.raises(ValueError, match="cannot snapshot"):
            save_model(model, tmp_path / "m.npz")

    def test_wrong_extension_rejected(self, tmp_path, small_blobs):
        points, _ = small_blobs
        model = _fit(lambda **kw: ExDPC(**kw), points)
        with pytest.raises(ValueError, match=r"\.npz"):
            save_model(model, tmp_path / "model.pkl")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "absent.npz")

    def test_not_a_snapshot(self, tmp_path):
        path = tmp_path / "points.npz"
        np.savez(path, points=np.zeros((4, 2)))
        with pytest.raises(ValueError, match="meta"):
            load_model(path)

    def test_format_version_mismatch(self, tmp_path, small_blobs):
        points, _ = small_blobs
        model = _fit(lambda **kw: ExDPC(**kw), points)
        path = save_model(model, tmp_path / "m.npz")
        with np.load(path, allow_pickle=False) as archive:
            data = {name: archive[name] for name in archive.files}
        meta = json.loads(str(data["meta"][()]))
        meta["format_version"] = MODEL_FORMAT_VERSION + 1
        data["meta"] = np.asarray(json.dumps(meta))
        np.savez(path, **data)
        with pytest.raises(ValueError, match="format version"):
            load_model(path)

    def test_compressed_archive_rejected_for_mmap(self, tmp_path, small_blobs):
        points, _ = small_blobs
        model = _fit(lambda **kw: ExDPC(**kw), points)
        path = save_model(model, tmp_path / "m.npz")
        with np.load(path, allow_pickle=False) as archive:
            data = {name: archive[name] for name in archive.files}
        compressed = tmp_path / "compressed.npz"
        np.savez_compressed(compressed, **data)
        with pytest.raises(ValueError, match="uncompressed"):
            load_model(compressed, mmap=True)


class TestMemmapLoader:
    def test_mapped_arrays_equal_loaded_arrays(self, tmp_path, small_blobs):
        points, _ = small_blobs
        model = _fit(lambda **kw: ExDPC(**kw), points)
        path = save_model(model, tmp_path / "m.npz")
        mapped = _load_npz_memmap(path)
        with np.load(path, allow_pickle=False) as archive:
            for name in archive.files:
                np.testing.assert_array_equal(
                    np.asarray(mapped[name]), archive[name], err_msg=name
                )

    def test_mapped_arrays_are_readonly_views(self, tmp_path, small_blobs):
        points, _ = small_blobs
        model = _fit(lambda **kw: ExDPC(**kw), points)
        path = save_model(model, tmp_path / "m.npz")
        mapped = _load_npz_memmap(path)
        assert isinstance(mapped["points"], np.memmap)
        with pytest.raises((ValueError, RuntimeError)):
            mapped["points"][0, 0] = 1.0


GOLDEN_DIR = Path(__file__).resolve().parents[1] / "fixtures" / "snapshots"


class TestBackwardCompat:
    """Golden snapshots of every historical format version keep loading.

    The fixtures are committed files produced by
    ``tests/fixtures/snapshots/make_goldens.py`` -- a tiny Ex-DPC fit saved
    in the current format and byte-faithfully downgraded to each older
    layout (v1: no tree bounding boxes, no rho_max; v2: no rho_max; v3: no
    jitter / profiles).
    """

    @pytest.fixture(scope="class")
    def golden_labels(self):
        return np.load(GOLDEN_DIR / "golden_labels.npy")

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    @pytest.mark.parametrize("mmap", [False, True], ids=["load", "mmap"])
    def test_golden_loads_and_serves(self, version, mmap, golden_labels, queries):
        model = load_model(GOLDEN_DIR / f"golden_v{version}.npz", mmap=mmap)
        np.testing.assert_array_equal(model.result_.labels_, golden_labels)
        predictions = model.predict(queries)
        assert predictions.shape == (queries.shape[0],)

    def test_v1_bbox_rebuild_matches_stored_v2_bbox(self):
        # The v2 golden stores the very boxes the v1 loader must re-derive.
        model = load_model(GOLDEN_DIR / "golden_v1.npz")
        with np.load(GOLDEN_DIR / "golden_v2.npz", allow_pickle=False) as archive:
            np.testing.assert_array_equal(
                model._tree.arrays.bbox_min, archive["tree.bbox_min"]
            )
            np.testing.assert_array_equal(
                model._tree.arrays.bbox_max, archive["tree.bbox_max"]
            )

    def test_v4_restores_jitter_and_profile(self):
        model = load_model(GOLDEN_DIR / "golden_v4.npz")
        assert model._tiebreak_jitter_ is not None
        index = model._recluster_index_
        assert index is not None
        # The cached index serves recluster() without a rebuild.
        assert model.recluster_index() is index

    @pytest.mark.parametrize("version", [3, 4])
    def test_restored_model_reclusters_bit_identically(self, version):
        # v4 restores the profile directly; v3 lacks it and must rebuild
        # (regenerating the jitter from the recorded integer seed).
        model = load_model(GOLDEN_DIR / f"golden_v{version}.npz")
        new_d_cut = 0.75 * model.d_cut
        res = model.recluster(new_d_cut, rho_min=2, n_clusters=3)
        cold = ExDPC(
            new_d_cut, rho_min=2, n_clusters=3, seed=5, engine="dual"
        ).fit(np.asarray(model._fit_points_))
        np.testing.assert_array_equal(res.labels_, cold.labels_)
        np.testing.assert_array_equal(res.delta_, cold.delta_)
        np.testing.assert_array_equal(res.dependent_, cold.dependent_)

    def test_profile_roundtrips_through_save(self, tmp_path):
        model = load_model(GOLDEN_DIR / "golden_v4.npz")
        path = save_model(model, tmp_path / "again.npz")
        with np.load(path, allow_pickle=False) as archive:
            assert "profile.values" in archive.files
            assert "tiebreak_jitter" in archive.files
        again = load_model(path)
        first = model._recluster_index_
        second = again._recluster_index_
        np.testing.assert_array_equal(first._values, second._values)
        np.testing.assert_array_equal(first._join_ids, second._join_ids)
        np.testing.assert_array_equal(first._indptr, second._indptr)
        np.testing.assert_array_equal(first._coverage_sq, second._coverage_sq)
        assert first.d_cut_max == second.d_cut_max

    def test_future_version_rejected(self, tmp_path):
        with np.load(GOLDEN_DIR / "golden_v4.npz", allow_pickle=False) as archive:
            data = {name: archive[name] for name in archive.files}
        meta = json.loads(str(data["meta"][()]))
        meta["format_version"] = MODEL_FORMAT_VERSION + 1
        data["meta"] = np.asarray(json.dumps(meta))
        path = tmp_path / "future.npz"
        np.savez(path, **data)
        with pytest.raises(ValueError, match="format version"):
            load_model(path)
