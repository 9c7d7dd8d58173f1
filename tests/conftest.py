"""Shared fixtures and reference implementations for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.data import generate_blobs, generate_syn

# Hypothesis profiles: "dev" (default) explores freely; "ci" is pinned for
# determinism (fixed example budget, derandomized) so CI runs are reproducible
# across Python versions.  Select with HYPOTHESIS_PROFILE=ci.
settings.register_profile("dev", deadline=None)
settings.register_profile(
    "ci", deadline=None, max_examples=60, derandomize=True, print_blob=True
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def reference_local_density(points: np.ndarray, d_cut: float) -> np.ndarray:
    """Brute-force local density (Definition 1): ``|{j : dist(i, j) < d_cut}|``."""
    diffs = points[:, None, :] - points[None, :, :]
    dists = np.sqrt((diffs**2).sum(axis=2))
    return (dists < d_cut).sum(axis=1).astype(np.float64)


def reference_dependencies(
    points: np.ndarray, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force dependent point / distance (Definitions 2 and 3)."""
    n = points.shape[0]
    diffs = points[:, None, :] - points[None, :, :]
    dists = np.sqrt((diffs**2).sum(axis=2))
    dependent = np.full(n, -1, dtype=np.intp)
    delta = np.full(n, np.inf, dtype=np.float64)
    for i in range(n):
        denser = np.flatnonzero(rho > rho[i])
        if denser.size == 0:
            continue
        j = denser[np.argmin(dists[i, denser])]
        dependent[i] = j
        delta[i] = dists[i, j]
    return dependent, delta


def reference_predict_labels(model, queries, *, tree=None) -> np.ndarray:
    """``predict`` oracle over a fitted float64-storage model.

    A query's density is its strict ``d_cut`` count over the fitted points
    (an S-Approx-DPC query landing in a fitted grid cell inherits that
    cell's density instead, §5); its target is the nearest fitted point of
    higher tie-broken density, or its plain nearest neighbour when none is
    denser.  It takes the target's attachment label, and ``rho_min`` marks
    it noise.  Without ``tree`` both searches are brute force; with the
    fitted ``tree`` they are its batch range count and the escalating-kNN
    reference :func:`repro.core.predict.nearest_denser_targets`.  No dual
    join is involved either way.
    """
    from repro.core import SApproxDPC
    from repro.core.predict import (
        nearest_denser_bruteforce,
        nearest_denser_targets,
        predict_density_bruteforce,
    )

    queries = np.asarray(queries, dtype=np.float64)
    train = np.asarray(model._fit_points_, dtype=np.float64)
    result = model.result_
    if tree is None:
        rho_q = predict_density_bruteforce(train, queries, model.d_cut)
    else:
        rho_q = tree.range_count_batch(queries, model.d_cut, strict=True)
    rho_q = rho_q.astype(np.float64)
    if isinstance(model, SApproxDPC):
        side = model.epsilon * model.d_cut / np.sqrt(train.shape[1])
        train_cells = np.floor(train / side)
        for row, cell in enumerate(np.floor(queries / side)):
            members = np.flatnonzero((train_cells == cell).all(axis=1))
            if members.size:
                rho_q[row] = result.rho_raw_[members[0]]
    if tree is None:
        targets = nearest_denser_bruteforce(train, result.rho_, queries, rho_q)
    else:
        targets = nearest_denser_targets(tree, result.rho_, queries, rho_q)
    labels = model._attachment_labels()[targets]
    if model.rho_min is not None:
        labels = np.where(rho_q < model.rho_min, -1, labels)
    return labels.astype(np.int64)


@pytest.fixture(scope="session")
def small_blobs():
    """Three well-separated Gaussian blobs (400 points, 2-D)."""
    centers = np.array([[20_000.0, 20_000.0], [80_000.0, 20_000.0], [50_000.0, 80_000.0]])
    points, labels = generate_blobs(400, centers, spread=3_000.0, seed=3)
    return points, labels


@pytest.fixture(scope="session")
def tiny_syn():
    """A 600-point Syn-style dataset for fast end-to-end tests."""
    points, labels = generate_syn(n_points=600, n_peaks=5, seed=11)
    return points, labels


@pytest.fixture(scope="session")
def random_points_2d():
    """300 uniform random points in ``[0, 1000]^2``."""
    rng = np.random.default_rng(42)
    return rng.uniform(0.0, 1000.0, size=(300, 2))


@pytest.fixture(scope="session")
def random_points_4d():
    """250 uniform random points in ``[0, 1000]^4``."""
    rng = np.random.default_rng(43)
    return rng.uniform(0.0, 1000.0, size=(250, 4))
