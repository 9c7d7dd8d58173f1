"""Sharded fit == single-shard fit, bit for bit.

:class:`repro.shard.ShardedDPC` promises that sharding is *invisible* in the
results: at any ``n_shards``, every fitted array (``rho_``, ``rho_raw_``,
``delta_``, ``dependent_``, ``labels_``) and every predict output is
bit-identical to :class:`repro.core.ExDPC` at the same parameters.  These
tests pin that contract across the shard count x engine x dtype matrix, under
the process backend (where the out-of-core shared-memory bound applies), and
over Hypothesis-generated datasets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExDPC
from repro.shard import ShardedDPC, minimum_budget_bytes, plan_shards

ENGINES = ("batch", "dual", "scalar")
DTYPES = ("float64", "float32")
SHARD_COUNTS = (1, 2, 4)


def make_points(n: int, dim: int, seed: int) -> np.ndarray:
    """Clustered points with enough boundary structure to exercise halos."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(10.0, 90.0, size=(4, dim))
    blobs = [
        center + rng.normal(0.0, 6.0, size=(n // 4, dim)) for center in centers
    ]
    scatter = rng.uniform(0.0, 100.0, size=(n - 4 * (n // 4), dim))
    return np.concatenate(blobs + [scatter])


def fit_pair(points: np.ndarray, n_shards: int, **kwargs):
    """Fit the reference ExDPC and the sharded model at identical params."""
    reference = ExDPC(8.0, rho_min=1, n_clusters=4, seed=0, **kwargs)
    reference.fit(points)
    sharded = ShardedDPC(8.0, n_shards=n_shards, rho_min=1, n_clusters=4, seed=0, **kwargs)
    sharded.fit(points)
    return reference, sharded


def assert_bit_identical(reference: ExDPC, sharded: ShardedDPC) -> None:
    ref, shd = reference.result_, sharded.result_
    np.testing.assert_array_equal(shd.rho_raw_, ref.rho_raw_)
    np.testing.assert_array_equal(shd.rho_, ref.rho_)
    np.testing.assert_array_equal(shd.dependent_, ref.dependent_)
    np.testing.assert_array_equal(shd.delta_, ref.delta_)
    np.testing.assert_array_equal(shd.centers_, ref.centers_)
    np.testing.assert_array_equal(shd.labels_, ref.labels_)


class TestShardEngineDtypeMatrix:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_fit_bit_identical(self, engine, dtype, n_shards):
        points = make_points(200, 2, seed=42)
        reference, sharded = fit_pair(
            points, n_shards, engine=engine, dtype=dtype
        )
        assert_bit_identical(reference, sharded)

    @pytest.mark.parametrize("n_shards", (2, 4))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_fit_bit_identical_3d(self, engine, n_shards):
        points = make_points(257, 3, seed=7)
        reference, sharded = fit_pair(points, n_shards, engine=engine)
        assert_bit_identical(reference, sharded)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_predict_matches_reference(self, engine):
        points = make_points(200, 2, seed=42)
        reference, sharded = fit_pair(points, 4, engine=engine)
        rng = np.random.default_rng(1)
        queries = points[rng.integers(0, points.shape[0], size=80)] + rng.normal(
            0.0, 0.5, size=(80, 2)
        )
        np.testing.assert_array_equal(
            sharded.predict(queries), reference.predict(queries)
        )
        # Predicting the training matrix reproduces the fitted labels.
        np.testing.assert_array_equal(
            sharded.predict(points), sharded.result_.labels_
        )


class TestProcessBackendOutOfCore:
    @pytest.mark.parametrize("engine", ("batch", "dual"))
    def test_process_backend_bit_identical(self, engine):
        points = make_points(200, 2, seed=42)
        reference = ExDPC(8.0, rho_min=1, n_clusters=4, seed=0, engine=engine)
        reference.fit(points)
        sharded = ShardedDPC(
            8.0,
            n_shards=4,
            rho_min=1,
            n_clusters=4,
            seed=0,
            engine=engine,
            backend="process",
            n_jobs=2,
        )
        sharded.fit(points)
        assert_bit_identical(reference, sharded)

    def test_shm_peak_bounded_by_shard_size(self):
        # The out-of-core claim: per-process shared memory peaks at one
        # shard's segment, so more shards -> a strictly smaller peak than
        # the single-shard (full dataset) segment.
        points = make_points(256, 2, seed=3)
        peaks = {}
        for n_shards in (1, 4):
            model = ShardedDPC(
                8.0,
                n_shards=n_shards,
                rho_min=1,
                n_clusters=4,
                seed=0,
                backend="process",
                n_jobs=2,
            )
            model.fit(points)
            peaks[n_shards] = model.shard_stats_["shm_peak_bytes"]
        assert peaks[4] > 0
        assert peaks[4] < peaks[1]


class TestPipelinedEquivalence:
    """The pipeline's schedule is invisible: every budget == serial == ExDPC.

    ``ShardPipeline`` is the only sharded driver; its schedule varies with
    the memory budget and the worker count.  At every budget in {unbounded,
    two-shard, one-shard} the fitted arrays AND the per-phase work counters
    equal the one-stage-at-a-time fit (``pipeline_workers=1``, no budget),
    and the fitted arrays equal single-tree ExDPC.
    """

    BUDGETS = ("unbounded", "two-shard", "one-shard")

    @staticmethod
    def resolve_budget(points, n_shards, dtype, budget):
        if budget == "unbounded":
            return None
        plan = plan_shards(points, n_shards)
        minimum = minimum_budget_bytes(plan.shard_sizes, points.shape[1], dtype, 32)
        return minimum if budget == "one-shard" else 2 * minimum

    @staticmethod
    def serial_fit(points, n_shards, **kwargs) -> ShardedDPC:
        serial = ShardedDPC(
            8.0,
            n_shards=n_shards,
            rho_min=1,
            n_clusters=4,
            seed=0,
            pipeline_workers=1,
            **kwargs,
        )
        serial.fit(points)
        return serial

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("n_shards", (2, 4))
    @pytest.mark.parametrize("engine", ("batch", "dual"))
    def test_budget_matches_serial_and_reference(self, engine, n_shards, budget):
        points = make_points(200, 2, seed=42)
        reference = ExDPC(8.0, rho_min=1, n_clusters=4, seed=0, engine=engine)
        reference.fit(points)
        serial = self.serial_fit(points, n_shards, engine=engine)
        budget_bytes = self.resolve_budget(points, n_shards, "float64", budget)
        pipelined = ShardedDPC(
            8.0,
            n_shards=n_shards,
            rho_min=1,
            n_clusters=4,
            seed=0,
            engine=engine,
            memory_budget_bytes=budget_bytes,
        )
        pipelined.fit(points)
        assert_bit_identical(reference, pipelined)
        assert_bit_identical(serial, pipelined)
        # Work counters: every schedule == the serial schedule, phase by phase.
        assert pipelined.result_.work_ == serial.result_.work_
        if budget_bytes is not None:
            stats = pipelined.shard_stats_
            assert 0 < stats["peak_rss_bytes"] <= budget_bytes

    @pytest.mark.parametrize("budget", ("unbounded", "one-shard"))
    def test_float32_budget_matches_serial(self, budget):
        points = make_points(200, 2, seed=42)
        reference = ExDPC(8.0, rho_min=1, n_clusters=4, seed=0, dtype="float32")
        reference.fit(points)
        serial = self.serial_fit(points, 4, dtype="float32")
        budget_bytes = self.resolve_budget(points, 4, "float32", budget)
        pipelined = ShardedDPC(
            8.0,
            n_shards=4,
            rho_min=1,
            n_clusters=4,
            seed=0,
            dtype="float32",
            memory_budget_bytes=budget_bytes,
        )
        pipelined.fit(points)
        assert_bit_identical(reference, pipelined)
        assert_bit_identical(serial, pipelined)
        assert pipelined.result_.work_ == serial.result_.work_

    def test_predict_after_minimum_budget_matches(self):
        points = make_points(200, 2, seed=42)
        reference, _ = fit_pair(points, 4)
        budget_bytes = self.resolve_budget(points, 4, "float64", "one-shard")
        pipelined = ShardedDPC(
            8.0,
            n_shards=4,
            rho_min=1,
            n_clusters=4,
            seed=0,
            memory_budget_bytes=budget_bytes,
        )
        pipelined.fit(points)
        rng = np.random.default_rng(1)
        queries = points[rng.integers(0, points.shape[0], size=80)] + rng.normal(
            0.0, 0.5, size=(80, 2)
        )
        np.testing.assert_array_equal(
            pipelined.predict(queries), reference.predict(queries)
        )


class TestShardProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=16, max_value=120),
        dim=st.integers(min_value=1, max_value=3),
        n_shards=st.sampled_from((2, 4)),
        dtype=st.sampled_from(DTYPES),
    )
    def test_random_datasets_bit_identical(self, seed, n, dim, n_shards, dtype):
        rng = np.random.default_rng(seed)
        points = rng.uniform(0.0, 50.0, size=(n, dim))
        d_cut = 50.0 / max(2.0, float(n) ** (1.0 / dim) / 2.0)
        reference = ExDPC(d_cut, rho_min=1, n_clusters=2, seed=0, dtype=dtype)
        reference.fit(points)
        sharded = ShardedDPC(
            d_cut, n_shards=n_shards, rho_min=1, n_clusters=2, seed=0, dtype=dtype
        )
        sharded.fit(points)
        assert_bit_identical(reference, sharded)
