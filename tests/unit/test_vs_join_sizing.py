"""Unit tests: dual vs-joins sized to the query batch, and cycle-free models.

``predict``, sharded predict and the re-cluster fallback join a small
throwaway query tree against a large fitted tree.  The query tree's leaves
shrink with the batch (:meth:`KDTree.for_queries`), and the nearest-denser
join streams its exact step over bounded data chunks.  These tests pin the
answers to independent references and bound the work with the tree counters
and the kernel block shapes -- never with wall clock.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import repro.index.kdtree as kdtree_module
from repro.core import ApproxDPC, ExDPC
from repro.index.kdtree import KDTree, query_leaf_size
from repro.shard import ShardedDPC
from tests.conftest import reference_predict_labels

#: An 8-query density vs-join may do at most this many times the batch
#: engine's distance calcs (the old single-terminal query tree did ~100x).
MAX_VS_CALCS_RATIO = 2

D_CUT = 1_500.0


#: Centres of the two rings of the landscape (see ``_landscape``).
RING_CENTERS = np.array([[75_000.0, 30_000.0], [45_000.0, 80_000.0]])


def _landscape(n: int, seed: int) -> np.ndarray:
    """A dense blob, two rings, a loose blob and a uniform background.

    A ring's centre sees every ring point within ``d_cut`` while each ring
    point sees only ~40% of its ring, so a query at the centre is denser
    than everything around it -- but not than the dense blob.  Such queries
    find no denser point in any home region of the seeding pyramid and
    drive the nearest-denser join's exact step.
    """
    rng = np.random.default_rng(seed)
    n_dense, n_ring, n_loose = int(n * 0.35), n // 20, int(n * 0.3)
    parts = [
        np.array([20_000.0, 20_000.0]) + rng.normal(0.0, 1_500.0, size=(n_dense, 2)),
        np.array([60_000.0, 55_000.0]) + rng.normal(0.0, 6_000.0, size=(n_loose, 2)),
    ]
    for center in RING_CENTERS:
        angle = rng.uniform(0.0, 2.0 * np.pi, size=n_ring)
        radius = 0.9 * D_CUT + rng.normal(0.0, 20.0, size=n_ring)
        parts.append(center + radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)]))
    n_rest = n - sum(part.shape[0] for part in parts)
    parts.append(rng.uniform(0.0, 100_000.0, size=(n_rest, 2)))
    return np.concatenate(parts)


@pytest.fixture(scope="module")
def landscape():
    points = _landscape(20_000, seed=11)
    held_out = _landscape(2_000, seed=12)
    rng = np.random.default_rng(13)
    held_out = held_out[rng.permutation(held_out.shape[0])]
    return points, held_out, RING_CENTERS


@pytest.fixture(scope="module")
def models(landscape):
    points = landscape[0]
    fitted = {}
    for engine in ("batch", "auto"):
        model = ApproxDPC(d_cut=D_CUT, rho_min=3, n_clusters=3, engine=engine)
        model.fit(points)
        fitted[engine] = model
    return fitted


@pytest.fixture(scope="module")
def oracle_labels(models, landscape):
    """Escalating-kNN reference labels of the ring centres followed by the
    held-out queries (labels are per query, so any prefix is a valid
    expectation)."""
    _, held_out, peaks = landscape
    model = models["batch"]
    return reference_predict_labels(
        model,
        np.concatenate([peaks, held_out[:512]]),
        tree=model._predict_tree(),
    )


class _RecordingTier:
    """Kernel-tier proxy recording the padded pair count of every block."""

    def __init__(self, tier):
        self._tier = tier
        self.pairs: list[int] = []

    def __getattr__(self, name):
        return getattr(self._tier, name)

    def _record(self, q_block, d_block):
        rows, q_pad = q_block.shape[:2]
        self.pairs.append(int(rows) * int(q_pad) * int(d_block.shape[1]))

    def count_blocks(self, q_block, d_block, *args, **kwargs):
        self._record(q_block, d_block)
        return self._tier.count_blocks(q_block, d_block, *args, **kwargs)

    def nn_blocks(self, q_block, rho_q, d_block, *args, **kwargs):
        self._record(q_block, d_block)
        return self._tier.nn_blocks(q_block, rho_q, d_block, *args, **kwargs)


def _calcs(tree: KDTree) -> float:
    return tree.counter.get("distance_calcs")


class TestQueryTreeShape:
    def test_leaf_size_follows_batch_size(self):
        assert query_leaf_size(1, 32) == 1
        assert query_leaf_size(63, 32) == 1
        assert query_leaf_size(512, 32) == 8
        assert query_leaf_size(10_000, 32) == 32
        assert query_leaf_size(10_000, 16) == 16

    def test_small_batch_splits_to_single_points(self):
        rng = np.random.default_rng(0)
        like = KDTree(rng.uniform(size=(500, 2)), leaf_size=32)
        tree = KDTree.for_queries(rng.uniform(size=(8, 2)), like)
        assert tree.leaf_size == 1
        # Only leaves are terminal: the 8-point root keeps splitting.
        leaves = tree.arrays.left == -1
        np.testing.assert_array_equal(tree._terminal, leaves)
        assert tree.dtype_name == like.dtype_name
        assert tree.kernel_name == like.kernel_name


class TestPredictExactness:
    @pytest.mark.parametrize("size", [1, 8, 32, 33, 512])
    def test_labels_match_batch_engine(self, models, landscape, oracle_labels, size):
        _, held_out, peaks = landscape
        queries = np.concatenate([peaks, held_out])[:size]
        assert models["auto"].engine_ == "dual"
        np.testing.assert_array_equal(models["auto"].predict(queries), oracle_labels[:size])

    def test_peak_queries_take_the_exact_step(self, models, landscape, oracle_labels):
        """Ring-centre queries are denser than their whole home region; the
        exact step resolves them in bounded chunks with the oracle's answer."""
        _, _, peaks = landscape
        model = models["auto"]
        tree = model._predict_tree()
        recorder = _RecordingTier(tree._kernel)
        tree._kernel = recorder
        try:
            labels = model.predict(peaks)
        finally:
            tree._kernel = recorder._tier
        np.testing.assert_array_equal(labels, oracle_labels[: peaks.shape[0]])
        # The exact step streamed every point past the peaks ...
        n = tree.size
        chunks = -(-n // kdtree_module._NN_EXACT_CHUNK)
        assert len(recorder.pairs) >= chunks
        # ... and no block held more than the peaks x one chunk.
        assert max(recorder.pairs) <= peaks.shape[0] * kdtree_module._NN_EXACT_CHUNK


class TestVsJoinWork:
    def test_small_batch_density_calcs_near_batch_engine(self, landscape):
        points, held_out, _ = landscape
        queries = held_out[:8]
        tree = KDTree(points, leaf_size=32)
        before = _calcs(tree)
        batch_counts = tree.range_count_batch(queries, D_CUT, strict=True)
        batch_calcs = _calcs(tree) - before
        before = _calcs(tree)
        dual_counts = tree.range_count_dual_vs(
            KDTree.for_queries(queries, tree), D_CUT, strict=True
        )
        dual_calcs = _calcs(tree) - before
        np.testing.assert_array_equal(dual_counts, batch_counts)
        assert dual_calcs <= MAX_VS_CALCS_RATIO * batch_calcs

    def test_small_batch_blocks_scale_with_the_neighbourhood(self, models, landscape):
        """Every kernel block of an 8-point predict holds at most batch x
        neighbourhood pairs, never a block over the whole data domain."""
        points, held_out, _ = landscape
        queries = held_out[:8]
        model = models["auto"]
        tree = model._predict_tree()
        # Neighbourhood: the most points any query has within 2 * d_cut
        # (the density ball plus its nearest-denser search radius).
        diff = queries[:, None, :] - points[None, :, :]
        neighbourhood = int(((diff**2).sum(axis=2) < (2 * D_CUT) ** 2).sum(axis=1).max())
        recorder = _RecordingTier(tree._kernel)
        tree._kernel = recorder
        try:
            model.predict(queries)
        finally:
            tree._kernel = recorder._tier
        assert recorder.pairs
        assert max(recorder.pairs) <= queries.shape[0] * neighbourhood
        assert sum(recorder.pairs) <= 2 * queries.shape[0] * neighbourhood


class TestShardedPredict:
    def test_sharded_predict_matches_and_stays_local(self, landscape):
        points, held_out, _ = landscape
        queries = np.concatenate([points[:8], held_out[:8]])
        model = ShardedDPC(D_CUT, n_shards=4, rho_min=3, n_clusters=3, engine="auto")
        result = model.fit(points)
        assert model.engine_ == "dual"
        counters = {id(t.counter): t.counter for t in model._shard_trees}
        before = sum(c.get("distance_calcs") for c in counters.values())
        labels = model.predict(queries)
        calcs = sum(c.get("distance_calcs") for c in counters.values()) - before
        np.testing.assert_array_equal(labels[:8], result.labels_[:8])
        single = ExDPC(d_cut=D_CUT, rho_min=3, n_clusters=3, engine="batch")
        single.fit(points)
        np.testing.assert_array_equal(labels, single.predict(queries))
        np.testing.assert_array_equal(labels, reference_predict_labels(single, queries))
        # Far shards are pruned by their boxes: the whole call costs less
        # than one pass over the fitted points.
        assert calcs < points.shape[0]


class TestReferenceCycles:
    def test_dropped_model_and_index_are_freed_without_gc(self, landscape):
        points = landscape[0][::10]
        gc.collect()
        gc.disable()
        try:
            model = ExDPC(d_cut=D_CUT, n_clusters=3)
            model.fit(points)
            index = model.recluster_index()
            model.recluster(d_cut=1.2 * D_CUT, n_clusters=3)
            model.predict(points[:8])
            refs = [weakref.ref(model), weakref.ref(index), weakref.ref(model._tree)]
            del model, index
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_standalone_index_outlives_its_model(self, landscape):
        points = landscape[0][::10]
        model = ExDPC(d_cut=D_CUT, n_clusters=3)
        model.fit(points)
        index = model.recluster_index()
        expected = index.recluster(d_cut=1.3 * D_CUT, n_clusters=3)
        del model
        gc.collect()
        again = index.recluster(d_cut=1.3 * D_CUT, n_clusters=3)
        np.testing.assert_array_equal(again.labels_, expected.labels_)
        assert again.params_["algorithm"] == "Ex-DPC"
