"""Property tests: the unified nearest-denser join layer is engine-exact.

The dependency phase of every DPC variant routes through
:mod:`repro.core.dependency_join` behind ``engine={"scalar", "batch",
"dual"}``.  The engines run genuinely different search strategies --
Ex-DPC's incremental tree, the paper's partitioned §4.3 search, the
escalating-kNN attachment, the brute-force repair scan, and the dual-tree
nearest-denser join -- but all follow one contract: candidates compare by
lexicographic (squared distance, point index) with the batch-kernel
``diff``-then-``einsum`` arithmetic, in float64.  These tests pin the
consequence: **bit-for-bit identical dependencies, deltas and labels across
engines**, at both storage precisions, on all three execution backends
(work counters included), for fit, predict attachment and the streaming
dirty-set repair -- including duplicate-heavy lattice data with exact
distance ties.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ApproxDPC, ExDPC, SApproxDPC
from repro.core.dependency_join import (
    nearest_denser_join,
    repair_nearest_denser,
)
from repro.core.predict import nearest_denser_bruteforce
from repro.index import kdtree as kdtree_module
from repro.index.kdtree import KDTree
from repro.parallel.executor import ParallelExecutor
from repro.utils.counters import WorkCounter
from tests.conftest import reference_predict_labels

MAX_EXAMPLES = 25

ALGORITHMS = [
    pytest.param(ExDPC, {}, id="ex-dpc"),
    pytest.param(ApproxDPC, {}, id="approx-dpc"),
    pytest.param(SApproxDPC, {"epsilon": 0.8}, id="s-approx-dpc"),
]

RESULT_FIELDS = (
    "rho_raw_", "rho_", "labels_", "delta_", "dependent_",
    "centers_", "noise_mask_", "exact_dependency_mask_",
)


@contextlib.contextmanager
def dual_block(size: int):
    """Shrink the dual traversal's terminal block so tiny hypothesis clouds
    exercise the descend/prune machinery instead of one root-pair kernel."""
    previous = kdtree_module._DUAL_BLOCK
    kdtree_module._DUAL_BLOCK = size
    try:
        yield
    finally:
        kdtree_module._DUAL_BLOCK = previous


@st.composite
def point_sets(draw, min_points: int = 2, max_points: int = 40):
    """Random float64 points, sometimes lattice-valued to force exact ties."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(min_points, max_points))
    if draw(st.booleans()):
        coordinate = st.integers(0, 3).map(float)
    else:
        coordinate = st.floats(
            min_value=-40.0, max_value=40.0, allow_nan=False, allow_infinity=False
        )
    rows = st.lists(
        st.lists(coordinate, min_size=dim, max_size=dim), min_size=n, max_size=n
    )
    return np.asarray(draw(rows), dtype=np.float64)


def _fit(cls, extra, points, d_cut, engine, dtype, backend="serial", n_jobs=1):
    model = cls(
        d_cut=d_cut,
        n_clusters=2,
        seed=0,
        backend=backend,
        n_jobs=n_jobs,
        engine=engine,
        dtype=dtype,
        **extra,
    )
    return model.fit(points), model


@pytest.mark.parametrize("cls,extra", ALGORITHMS)
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    points=point_sets(),
    d_cut=st.floats(min_value=0.5, max_value=30.0),
    block=st.sampled_from([2, 5, 64]),
)
def test_fit_dependencies_engine_exact(cls, extra, dtype, points, d_cut, block):
    """scalar == batch == dual dependencies, deltas and labels, bit for bit."""
    with dual_block(block):
        results = {
            engine: _fit(cls, extra, points, d_cut, engine, dtype)[0]
            for engine in ("scalar", "batch", "dual")
        }
    reference = results["batch"]
    for engine in ("scalar", "dual"):
        for name in RESULT_FIELDS:
            np.testing.assert_array_equal(
                getattr(reference, name),
                getattr(results[engine], name),
                err_msg=f"{cls.__name__}[{dtype}] batch vs {engine}: {name}",
            )


@pytest.mark.parametrize("cls,extra", ALGORITHMS)
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@settings(max_examples=6, deadline=None)
@given(
    points=point_sets(min_points=6),
    d_cut=st.floats(min_value=0.5, max_value=30.0),
)
def test_dual_dependencies_backend_exact(cls, extra, backend, points, d_cut):
    """The dual dependency join is backend-invariant, work counters included.

    The query-subtree frontier is the canonical work-unit decomposition: any
    grouping onto serial, thread or process workers must reproduce the
    serial results and the serial distance-calculation totals bit for bit.
    """
    with dual_block(2):
        serial, _ = _fit(cls, extra, points, d_cut, "dual", "float64")
        other, _ = _fit(
            cls, extra, points, d_cut, "dual", "float64",
            backend=backend, n_jobs=2,
        )
    for name in RESULT_FIELDS:
        np.testing.assert_array_equal(
            getattr(serial, name), getattr(other, name),
            err_msg=f"{cls.__name__} serial vs {backend}: {name}",
        )
    assert serial.work_ == other.work_


@pytest.mark.parametrize("cls,extra", ALGORITHMS)
@settings(max_examples=10, deadline=None)
@given(
    points=point_sets(min_points=4),
    d_cut=st.floats(min_value=0.5, max_value=30.0),
    seed=st.integers(0, 2**16),
)
def test_predict_attachment_engine_exact(cls, extra, points, d_cut, seed):
    """predict() assigns identical labels whatever engine the model was
    fitted with -- for the training matrix (== fit labels) and for
    out-of-sample queries, where they also equal the brute-force oracle.

    The predict(train) == fit-labels contract requires training points that
    are distinct *at squared-distance resolution*: an exact duplicate -- or
    a pair so close that their squared distance underflows to 0.0 --
    resolves to the smallest-index copy rather than itself (long-standing
    predict semantics shared by every engine).  Quantising to a coarse grid
    before deduplication keeps the strategy out of that regime; the
    cross-engine equality holds regardless.
    """
    points = np.unique(np.round(points, 3), axis=0)
    if points.shape[0] < 2:
        return
    rng = np.random.default_rng(seed)
    queries = points[rng.integers(0, points.shape[0], size=5)] + rng.normal(
        scale=0.25, size=(5, points.shape[1])
    )
    with dual_block(2):
        labels = {}
        for engine in ("scalar", "batch", "dual"):
            result, model = _fit(cls, extra, points, d_cut, engine, "float64")
            np.testing.assert_array_equal(
                model.predict(points), result.labels_,
                err_msg=f"{cls.__name__}[{engine}]: predict(train) != fit labels",
            )
            labels[engine] = model.predict(queries)
    labels["oracle"] = reference_predict_labels(model, queries)
    np.testing.assert_array_equal(labels["batch"], labels["scalar"])
    np.testing.assert_array_equal(labels["batch"], labels["dual"])
    np.testing.assert_array_equal(labels["batch"], labels["oracle"])


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    points=point_sets(min_points=2, max_points=50),
    n_partitions=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_join_layer_matches_bruteforce(points, n_partitions, seed):
    """Every fit-join engine equals the brute-force masked lex scan."""
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    rho = rng.permutation(n).astype(np.float64)
    expected, expected_d = nearest_denser_bruteforce(
        points, rho, points, rho, attach_fallback=False, return_distance=True
    )
    tree = KDTree(points, leaf_size=4)
    with dual_block(2):
        for engine in ("scalar", "batch", "dual"):
            with ParallelExecutor(1, backend="serial") as executor:
                outcome = nearest_denser_join(
                    points,
                    rho,
                    engine=engine,
                    executor=executor,
                    counter=WorkCounter(),
                    tree=tree,
                    leaf_size=4,
                    n_partitions=n_partitions,
                    frontier_target=3,
                )
            np.testing.assert_array_equal(outcome.dependent, expected, err_msg=engine)
            np.testing.assert_array_equal(outcome.delta, expected_d, err_msg=engine)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    points=point_sets(min_points=4, max_points=50),
    seed=st.integers(0, 2**16),
)
def test_join_layer_candidate_subsets(points, seed):
    """Candidate-restricted joins (the S-Approx fallback shape) agree across
    engines and with the brute-force scan over the candidate set."""
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    rho = rng.permutation(n).astype(np.float64)
    candidates = np.unique(rng.integers(0, n, size=max(1, n // 2)))
    queries = candidates[rng.integers(0, candidates.size, size=min(5, candidates.size))]
    queries = np.unique(queries)
    expected, expected_d = nearest_denser_bruteforce(
        points[candidates],
        rho[candidates],
        points[queries],
        rho[queries],
        attach_fallback=False,
        return_distance=True,
    )
    expected = np.where(expected >= 0, candidates[np.clip(expected, 0, None)], -1)
    with dual_block(2):
        for engine in ("scalar", "batch", "dual"):
            with ParallelExecutor(1, backend="serial") as executor:
                outcome = nearest_denser_join(
                    points,
                    rho,
                    engine=engine,
                    executor=executor,
                    counter=WorkCounter(),
                    query_indices=queries,
                    candidate_indices=candidates,
                    leaf_size=4,
                    frontier_target=3,
                )
            np.testing.assert_array_equal(outcome.dependent, expected, err_msg=engine)
            np.testing.assert_array_equal(outcome.delta, expected_d, err_msg=engine)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    points=point_sets(min_points=4, max_points=60),
    seed=st.integers(0, 2**16),
)
def test_streaming_repair_join_matches_bruteforce(points, seed):
    """The streaming repair entry returns identical pairs on every engine
    (the dual path is forced through its tree-building branch)."""
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    rho = rng.permutation(n).astype(np.float64)
    dirty = np.unique(rng.integers(0, n, size=max(1, n // 3)))
    expected = nearest_denser_bruteforce(
        points, rho, points[dirty], rho[dirty],
        attach_fallback=False, return_distance=True,
    )
    for engine in ("scalar", "batch", "dual"):
        targets, distances = repair_nearest_denser(
            points, rho, points[dirty], rho[dirty],
            engine=engine, counter=WorkCounter(), leaf_size=4,
        )
        np.testing.assert_array_equal(targets, expected[0], err_msg=engine)
        np.testing.assert_array_equal(distances, expected[1], err_msg=engine)
    # Force the dual tree-building branch regardless of the size heuristic.
    with dual_block(2):
        import repro.core.dependency_join as join_module

        previous = join_module._DUAL_REPAIR_MIN_WORK
        join_module._DUAL_REPAIR_MIN_WORK = 0
        try:
            targets, distances = repair_nearest_denser(
                points, rho, points[dirty], rho[dirty],
                engine="dual", counter=WorkCounter(), leaf_size=4,
            )
        finally:
            join_module._DUAL_REPAIR_MIN_WORK = previous
    np.testing.assert_array_equal(targets, expected[0])
    np.testing.assert_array_equal(distances, expected[1])
