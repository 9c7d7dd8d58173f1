"""Build contract of the re-cluster index (ReclusterIndex.from_estimator).

The index arrays must equal a brute-force reference bit for bit on every
backend: all pairs strictly inside ``d_cut_max`` in storage arithmetic,
sorted per row by ``(squared distance, index)``, rows shorter than
``MIN_PROFILE_SIZE`` replaced by their k nearest neighbors, and on float32
trees a second per-row order by the join's float64 ``(squared distance,
index)``.  The build's transient memory is bounded relative to the index.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core import ExDPC
from repro.core import recluster as recluster_module
from repro.core.recluster import (
    MIN_PROFILE_SIZE,
    ReclusterIndex,
    _float32_coverage_sq,
)
from repro.data.synthetic import generate_syn
from repro.kernels import squared_norms
from repro.stream.snapshot import load_model

GOLDEN_V4 = Path(__file__).resolve().parents[1] / "fixtures" / "snapshots" / "golden_v4.npz"


def reference_index(points, dtype, d_cut_max, k):
    """Brute-force ``(values, join_ids, indptr, coverage_sq)`` of the index."""
    n, dim = points.shape
    storage = points.astype(dtype)
    bound64 = np.float64(d_cut_max) * np.float64(d_cut_max)
    bound = dtype(bound64)
    storage64 = dtype is np.float64
    coord_mag = float(np.abs(points).max())
    base_cov = bound64 if storage64 else _float32_coverage_sq(dim, coord_mag, bound64)
    ids_all = np.arange(n)
    values, join_ids, lengths, coverage = [], [], [], []
    for i in range(n):
        d_sq = squared_norms(storage[i] - storage)
        order = np.lexsort((ids_all, d_sq))
        inside = int((d_sq < bound).sum())
        row = order[: max(inside, k)]
        values.append(d_sq[row])
        if storage64:
            join_ids.append(row)
        else:
            d_sq64 = squared_norms(points[i] - points[row])
            join_ids.append(row[np.lexsort((row, d_sq64))])
        lengths.append(row.size)
        cov = base_cov
        if inside < k:
            kth = np.float64(d_sq[row[-1]])
            kth_cov = kth if storage64 else _float32_coverage_sq(dim, coord_mag, kth)
            cov = max(base_cov, kth_cov)
        coverage.append(cov)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return (
        np.concatenate(values),
        np.concatenate(join_ids),
        indptr,
        np.asarray(coverage, dtype=np.float64),
    )


def assert_index_equal(index, expected):
    got = (index._values, index._join_ids, index._indptr, index._coverage_sq)
    for name, actual, want in zip(("values", "join_ids", "indptr", "coverage_sq"), got, expected):
        assert actual.dtype == want.dtype, name
        np.testing.assert_array_equal(actual, want, err_msg=name)


def blobs_with_duplicates():
    rng = np.random.default_rng(7)
    centers = rng.uniform(0.0, 100.0, size=(3, 2))
    points = np.concatenate(
        [c + rng.normal(scale=6.0, size=(70, 2)) for c in centers]
        + [rng.uniform(-40.0, 140.0, size=(40, 2))]
    )
    # Exact duplicates: zero-distance ties inside rows.  The offset makes
    # float32 rounding reorder near-tied neighbors against the join's
    # float64 order, so float32 rows need their second order.
    return np.concatenate([points, points[:25]]) + 20_000.0


def lattice():
    # An integer lattice plus a sparse far tail: rows full of exact distance
    # ties, and short rows that take their k nearest neighbors.
    grid = np.stack(np.meshgrid(np.arange(14.0), np.arange(14.0)), -1).reshape(-1, 2)
    tail = np.array([[40.0, 40.0], [40.0, 43.0], [55.0, 0.0], [-20.0, 7.0]])
    return np.concatenate([grid, grid[::7], tail])


DATASETS = {"blobs": (blobs_with_duplicates, 9.0, 13.5), "lattice": (lattice, 2.0, 3.0)}
BACKENDS = [("serial", 1), ("thread", 2), ("process", 2)]


@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("min_profile_size", [0, 16])
def test_build_matches_brute_force_on_every_backend(
    dataset, dtype, min_profile_size, monkeypatch
):
    monkeypatch.setattr(recluster_module, "MIN_PROFILE_SIZE", min_profile_size)
    make, d_cut, d_cut_max = DATASETS[dataset]
    points = make()
    k = min(min_profile_size, points.shape[0])
    expected = reference_index(points, dtype, d_cut_max, k)
    lengths = np.diff(expected[2])
    if k:
        # The case mixes cap rows with k-NN rows.
        assert lengths.min() == k and lengths.max() > k
    for backend, n_jobs in BACKENDS:
        model = ExDPC(
            d_cut,
            n_clusters=3,
            n_jobs=n_jobs,
            backend=backend,
            dtype=np.dtype(dtype).name,
        )
        model.fit(points)
        index = ReclusterIndex.from_estimator(model, d_cut_max=d_cut_max)
        assert_index_equal(index, expected)


def test_fresh_build_reproduces_golden_v4_profile():
    model = load_model(GOLDEN_V4)
    stored = model._recluster_index_
    fresh = model.recluster_index(d_cut_max=stored.d_cut_max, rebuild=True)
    assert fresh is not stored
    assert fresh._values.dtype == stored._values.dtype
    for name in ("_values", "_join_ids", "_indptr", "_coverage_sq"):
        np.testing.assert_array_equal(
            getattr(fresh, name), getattr(stored, name), err_msg=name
        )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_default_min_profile_size_applies(dtype):
    points = blobs_with_duplicates()
    model = ExDPC(9.0, n_clusters=3, backend="serial", dtype=np.dtype(dtype).name)
    model.fit(points)
    index = model.recluster_index()
    k = min(MIN_PROFILE_SIZE, points.shape[0])
    assert_index_equal(index, reference_index(points, dtype, 18.0, k))


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_build_transient_memory_is_bounded(dtype):
    # The build allocates the final arrays once and sorts rows block by
    # block, so its peak allocation stays close to the finished index.
    points, _ = generate_syn(n_points=6000, n_peaks=5, seed=11)
    model = ExDPC(2000.0, n_clusters=5, backend="serial", dtype=dtype)
    model.fit(points)
    tracemalloc.start()
    try:
        index = ReclusterIndex.from_estimator(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert index.n_profile_entries > 100 * points.shape[0]
    assert peak <= 1.5 * index.memory_bytes()
