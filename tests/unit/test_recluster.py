"""Unit tests for the re-cluster-at-any-parameter index (repro.core.recluster)."""

import numpy as np
import pytest

from repro.core import ApproxDPC, ExDPC
from repro.core.dependency_join import nearest_denser_join
from repro.core import recluster as recluster_module
from repro.core.recluster import ReclusterIndex, resolve_tiebreak_jitter
from repro.index.kdtree import KDTree
from repro.parallel.executor import ParallelExecutor
from repro.utils.counters import WorkCounter

D_CUT = 2_000.0


@pytest.fixture(scope="module")
def fitted(small_blobs):
    points, _ = small_blobs
    model = ExDPC(D_CUT, rho_min=2, n_clusters=3, seed=0)
    model.fit(points)
    return model


@pytest.fixture(scope="module")
def index(fitted):
    return fitted.recluster_index()


class TestBuild:
    def test_unsupported_algorithm_rejected(self, small_blobs):
        points, _ = small_blobs
        model = ApproxDPC(d_cut=D_CUT, rho_min=2, n_clusters=3, seed=0)
        model.fit(points)
        assert not model.supports_recluster
        with pytest.raises(ValueError, match="does not support re-clustering"):
            ReclusterIndex.from_estimator(model)

    def test_unfitted_model_rejected(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            ReclusterIndex.from_estimator(ExDPC(D_CUT, n_clusters=3))

    def test_d_cut_max_below_fitted_d_cut_rejected(self, fitted):
        with pytest.raises(ValueError, match="must cover the fitted d_cut"):
            ReclusterIndex.from_estimator(fitted, d_cut_max=0.5 * D_CUT)

    def test_min_profile_size_keyword_removed(self, fitted):
        with pytest.raises(TypeError, match="min_profile_size"):
            ReclusterIndex.from_estimator(fitted, min_profile_size=16)

    def test_default_cap_is_twice_fitted_d_cut(self, index):
        assert index.d_cut_max == pytest.approx(2.0 * D_CUT)
        assert index.d_cut_fit == pytest.approx(D_CUT)

    def test_profile_shape_invariants(self, fitted, index):
        n = fitted.result_.rho_.shape[0]
        assert index.n_points == n
        assert index.n_profile_entries == index._indptr[-1]
        assert index.memory_bytes() > 0
        # Rows are ascending in storage order (the density bisection contract).
        for row in (0, n // 2, n - 1):
            lo, hi = index._indptr[row], index._indptr[row + 1]
            values = index._values[lo:hi]
            assert np.all(np.diff(values) >= 0)

    def test_sparse_rows_are_floored(self, small_blobs, monkeypatch):
        # An outlier-heavy fit: every row still reaches MIN_PROFILE_SIZE.
        points, _ = small_blobs
        model = ExDPC(200.0, rho_min=2, n_clusters=3, seed=0)
        model.fit(points)
        monkeypatch.setattr(recluster_module, "MIN_PROFILE_SIZE", 16)
        index = ReclusterIndex.from_estimator(model)
        lengths = np.diff(index._indptr)
        assert lengths.min() >= 16


class TestJitterRecovery:
    def test_generator_seed_without_stashed_jitter_rejected(self, small_blobs):
        points, _ = small_blobs
        model = ExDPC(
            D_CUT, rho_min=2, n_clusters=3, seed=np.random.default_rng(0)
        )
        model.fit(points)
        model._tiebreak_jitter_ = None  # simulate a pre-profile snapshot
        with pytest.raises(ValueError, match="integer seed"):
            resolve_tiebreak_jitter(model)

    def test_integer_seed_regenerates_jitter(self, small_blobs):
        points, _ = small_blobs
        model = ExDPC(D_CUT, rho_min=2, n_clusters=3, seed=9)
        model.fit(points)
        stashed = np.array(model._tiebreak_jitter_, copy=True)
        model._tiebreak_jitter_ = None
        jitter = resolve_tiebreak_jitter(model)
        np.testing.assert_array_equal(jitter, stashed)

    def test_inconsistent_jitter_rejected(self, small_blobs):
        points, _ = small_blobs
        model = ExDPC(D_CUT, rho_min=2, n_clusters=3, seed=9)
        model.fit(points)
        model._tiebreak_jitter_ = np.array(model._tiebreak_jitter_) + 1e-3
        with pytest.raises(ValueError, match="does not reproduce"):
            resolve_tiebreak_jitter(model)


class TestDensity:
    def test_matches_fitted_density_at_fitted_d_cut(self, fitted, index):
        counts = index.density(D_CUT)
        np.testing.assert_array_equal(
            counts.astype(np.float64), np.asarray(fitted.result_.rho_raw_)
        )

    def test_matches_cold_fit_at_other_d_cut(self, small_blobs, index):
        points, _ = small_blobs
        cold = ExDPC(1.5 * D_CUT, rho_min=2, n_clusters=3, seed=0).fit(points)
        np.testing.assert_array_equal(
            index.density(1.5 * D_CUT).astype(np.float64),
            np.asarray(cold.rho_raw_),
        )

    def test_d_cut_beyond_cap_rejected(self, index):
        with pytest.raises(ValueError, match="exceeds the profiled d_cut_max"):
            index.density(2.5 * D_CUT)

    def test_nonpositive_d_cut_rejected(self, index):
        with pytest.raises(ValueError, match="d_cut"):
            index.density(0.0)


class TestReclusterAPI:
    def test_center_selection_is_exclusive(self, index):
        with pytest.raises(ValueError, match="mutually exclusive"):
            index.recluster(D_CUT, delta_min=5_000.0, n_clusters=3)
        with pytest.raises(ValueError, match="delta_min.*or.*n_clusters"):
            index.recluster(D_CUT)

    def test_delta_min_must_exceed_d_cut(self, index):
        with pytest.raises(ValueError, match="must exceed d_cut"):
            index.recluster(D_CUT, delta_min=0.5 * D_CUT)

    def test_nonpositive_n_clusters_rejected(self, index):
        with pytest.raises(ValueError, match="n_clusters"):
            index.recluster(D_CUT, n_clusters=0)

    def test_d_cut_beyond_cap_rejected(self, index):
        with pytest.raises(ValueError, match="exceeds the profiled d_cut_max"):
            index.recluster(2.5 * D_CUT, n_clusters=3)

    def test_fitted_parameters_take_fast_path(self, fitted, index):
        # Same d_cut => same tie-broken densities => zero repair work, and
        # every per-point array matches the fit bit for bit.
        res = index.recluster(rho_min=2, n_clusters=3)
        assert res.work_["repaired_dependencies"] == 0
        assert res.work_["joined_dependencies"] == 0
        original = fitted.result_
        np.testing.assert_array_equal(res.labels_, original.labels_)
        np.testing.assert_array_equal(res.rho_, original.rho_)
        np.testing.assert_array_equal(res.delta_, original.delta_)
        np.testing.assert_array_equal(res.dependent_, original.dependent_)
        np.testing.assert_array_equal(res.centers_, original.centers_)

    def test_result_metadata(self, index):
        res = index.recluster(1.25 * D_CUT, rho_min=3, n_clusters=3)
        assert res.params_["recluster"] is True
        assert res.params_["d_cut"] == pytest.approx(1.25 * D_CUT)
        assert res.n_clusters_ == 3
        # Centers mask their dependent_ but keep dependent_raw_ (§2.1).
        assert np.all(res.dependent_[res.centers_] == -1)
        assert set(res.timings_) >= {"local_density", "dependency", "assignment"}

    def test_index_is_reusable_and_readonly(self, fitted, index):
        before = np.array(index._dependent_fit, copy=True)
        first = index.recluster(0.75 * D_CUT, rho_min=2, n_clusters=3)
        second = index.recluster(0.75 * D_CUT, rho_min=2, n_clusters=3)
        np.testing.assert_array_equal(first.labels_, second.labels_)
        np.testing.assert_array_equal(index._dependent_fit, before)
        # The fitted model's own result is untouched.
        assert fitted.result_.params_.get("recluster") is None


class TestEstimatorCache:
    def test_index_is_cached(self, small_blobs):
        points, _ = small_blobs
        model = ExDPC(D_CUT, rho_min=2, n_clusters=3, seed=0)
        model.fit(points)
        index = model.recluster_index()
        assert model.recluster_index() is index
        assert model.recluster_index(d_cut_max=index.d_cut_max) is index

    def test_rebuild_and_new_cap_invalidate(self, small_blobs):
        points, _ = small_blobs
        model = ExDPC(D_CUT, rho_min=2, n_clusters=3, seed=0)
        model.fit(points)
        index = model.recluster_index()
        rebuilt = model.recluster_index(rebuild=True)
        assert rebuilt is not index
        widened = model.recluster_index(d_cut_max=3.0 * D_CUT)
        assert widened is not rebuilt
        assert widened.d_cut_max == pytest.approx(3.0 * D_CUT)

    def test_estimator_recluster_wrapper(self, small_blobs, fitted):
        points, _ = small_blobs
        res = fitted.recluster(0.8 * D_CUT, rho_min=2, n_clusters=3)
        cold = ExDPC(0.8 * D_CUT, rho_min=2, n_clusters=3, seed=0).fit(points)
        np.testing.assert_array_equal(res.labels_, cold.labels_)


class TestFallbackPaths:
    def test_dual_overflow_path_matches_brute(self, small_blobs, monkeypatch):
        # A zero brute budget routes every fallback row through the seeded
        # dual-tree join; results must not change by a bit.
        points, _ = small_blobs
        model = ExDPC(D_CUT, rho_min=2, n_clusters=3, seed=0)
        model.fit(points)
        index = model.recluster_index()
        brute = index.recluster(0.6 * D_CUT, rho_min=2, n_clusters=3)
        monkeypatch.setattr(ReclusterIndex, "_FALLBACK_BRUTE_BUDGET", 0)
        joined = index.recluster(0.6 * D_CUT, rho_min=2, n_clusters=3)
        for name in ("labels_", "rho_", "delta_", "dependent_", "dependent_raw_",
                     "centers_", "noise_mask_"):
            np.testing.assert_array_equal(
                getattr(brute, name), getattr(joined, name), err_msg=name
            )

    def test_unaugmented_index_still_exact(self, small_blobs, monkeypatch):
        # MIN_PROFILE_SIZE=0 disables the k-NN floor: more rows hit the join
        # fallback, the answers stay bit-identical to a cold fit.
        points, _ = small_blobs
        model = ExDPC(D_CUT, rho_min=2, n_clusters=3, seed=0)
        model.fit(points)
        monkeypatch.setattr(recluster_module, "MIN_PROFILE_SIZE", 0)
        index = ReclusterIndex.from_estimator(model)
        res = index.recluster(0.7 * D_CUT, rho_min=2, n_clusters=3)
        cold = ExDPC(0.7 * D_CUT, rho_min=2, n_clusters=3, seed=0).fit(points)
        np.testing.assert_array_equal(res.labels_, cold.labels_)
        np.testing.assert_array_equal(res.delta_, cold.delta_)
        np.testing.assert_array_equal(res.dependent_, cold.dependent_)


class TestJoinSeedValidation:
    def test_nn_dual_vs_requires_both_seed_arrays(self, random_points_2d):
        tree = KDTree(random_points_2d, leaf_size=8, counter=WorkCounter())
        rho = np.arange(random_points_2d.shape[0], dtype=np.float64)
        with pytest.raises(ValueError, match="provided together"):
            tree.nn_dual_vs(tree, rho, rho, seed_idx=np.full(rho.shape, -1))

    def test_nn_dual_vs_rejects_wrong_seed_shape(self, random_points_2d):
        tree = KDTree(random_points_2d, leaf_size=8, counter=WorkCounter())
        rho = np.arange(random_points_2d.shape[0], dtype=np.float64)
        with pytest.raises(ValueError, match="one entry per query"):
            tree.nn_dual_vs(
                tree,
                rho,
                rho,
                seed_idx=np.full(3, -1, dtype=np.intp),
                seed_sq=np.full(3, np.inf),
            )

    def test_join_requires_both_seed_arrays(self, random_points_2d):
        rho = np.arange(random_points_2d.shape[0], dtype=np.float64)
        with ParallelExecutor(1) as executor:
            with pytest.raises(ValueError, match="given together"):
                nearest_denser_join(
                    random_points_2d,
                    rho,
                    engine="dual",
                    executor=executor,
                    counter=WorkCounter(),
                    seed_dependent=np.full(rho.shape, -1, dtype=np.intp),
                )

    def test_join_seeds_exclude_candidate_restriction(self, random_points_2d):
        rho = np.arange(random_points_2d.shape[0], dtype=np.float64)
        n = random_points_2d.shape[0]
        with ParallelExecutor(1) as executor:
            with pytest.raises(ValueError, match="unrestricted candidate set"):
                nearest_denser_join(
                    random_points_2d,
                    rho,
                    engine="dual",
                    executor=executor,
                    counter=WorkCounter(),
                    candidate_indices=np.arange(n // 2, dtype=np.intp),
                    seed_dependent=np.full(n, -1, dtype=np.intp),
                    seed_delta_sq=np.full(n, np.inf),
                )

    def test_seeded_join_matches_unseeded(self, random_points_2d):
        # Seeds are a pruning hint only: correct seeds never change the answer.
        rho = np.random.default_rng(5).permutation(
            random_points_2d.shape[0]
        ).astype(np.float64)
        n = random_points_2d.shape[0]
        tree = KDTree(random_points_2d, leaf_size=8, counter=WorkCounter())
        densest = int(np.argmax(rho))
        seed_idx = np.full(n, densest, dtype=np.intp)
        seed_idx[densest] = -1
        diff = random_points_2d - random_points_2d[densest]
        seed_sq = np.einsum("pd,pd->p", diff, diff)
        seed_sq[densest] = np.inf
        with ParallelExecutor(1) as executor:
            plain = nearest_denser_join(
                random_points_2d,
                rho,
                engine="dual",
                executor=executor,
                counter=WorkCounter(),
                tree=tree,
            )
            seeded = nearest_denser_join(
                random_points_2d,
                rho,
                engine="dual",
                executor=executor,
                counter=WorkCounter(),
                tree=tree,
                seed_dependent=seed_idx,
                seed_delta_sq=seed_sq,
            )
        np.testing.assert_array_equal(seeded.dependent, plain.dependent)
        np.testing.assert_array_equal(seeded.delta, plain.delta)
