"""Microbenchmark: scalar vs batch vs dual-tree query engines.

The batch kd-tree API (``range_count_batch`` / ``range_search_batch`` /
``knn_batch``) removes the per-query Python overhead of the scalar engine;
the dual-tree API goes further on the two *self-join* shaped phases of DPC:

* **density** -- every point counts its ``d_cut``-ball
  (``range_count_dual``), and
* **dependency** -- every point finds its nearest strictly-denser point
  (``range_nn_dual``, the unified nearest-denser join of
  ``repro.core.dependency_join``).

This bench times all engines on the paper's primitive operations over the
same tree and reports the speedups.  Acceptance thresholds: batch >= 5x
scalar on the density computation at ``n = 20_000, d = 2``; dual >= 2x
batch on the dependency phase and no slower than batch (>= 1x) on the
density phase at ``n = 50_000, d = 2``.  (Both engines share the blocked
kernel tier of :mod:`repro.kernels`; unifying them sped the batch density
phase up ~1.9x, which narrowed dual's relative density edge from the ~2.5x
of earlier revisions while improving every absolute time.)

Every engine is verified to return identical results before any timing is
reported, so no speedup is bought with a wrong answer.

The density and dependency results are also written to the repo-root
perf-trajectory file ``BENCH_density.json`` (schema: phase ->
engine -> {n, d, dpc_variant, phase, seconds, speedup_vs_scalar}) so future
PRs can track regressions; CI uploads the reduced-n version as an artifact.

``--dims 2,3,4,5`` runs the engine x dimension sweep (batch vs dual only;
the scalar engine is omitted because it is minutes-slow at these sizes) that
backs the guidance table in ``docs/performance.md``.

Run with::

    PYTHONPATH=src python benchmarks/bench_batch_vs_scalar.py
    PYTHONPATH=src python benchmarks/bench_batch_vs_scalar.py --n 50000 --json out.json
    PYTHONPATH=src python benchmarks/bench_batch_vs_scalar.py --n 50000 --dims 2,3,4,5
"""

from __future__ import annotations

import argparse
import json
import math
import time
from pathlib import Path

import numpy as np

from repro.bench import merge_trajectory, print_table
from repro.core.dependency_join import PartitionedDependencySearcher
from repro.index.kdtree import IncrementalKDTree, KDTree

DEFAULT_N = 20_000
DEFAULT_DIM = 2
DEFAULT_TARGET_DENSITY = 40.0

#: Default output path of the perf-trajectory file (repo root).
BENCH_TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_density.json"


def density_radius(n: int, dim: int, extent: float, target: float) -> float:
    """Radius whose expected ball population is ``target`` for uniform data."""
    unit_ball = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    volume = extent**dim * target / n
    return (volume / unit_ball) ** (1.0 / dim)


def _tiebroken_rho(tree: KDTree, d_cut: float, seed: int) -> np.ndarray:
    """Tie-broken densities shaped like a fit's (integer counts + fraction)."""
    rho_raw = tree.range_count_dual(d_cut).astype(np.float64)
    rng = np.random.default_rng(seed + 1)
    return rho_raw + rng.uniform(0.0, 1.0, size=rho_raw.shape[0])


def _dependency_scalar(points: np.ndarray, rho: np.ndarray):
    """Ex-DPC's scalar incremental-tree dependency phase."""
    n = points.shape[0]
    order = np.argsort(rho, kind="stable")[::-1]
    dependent = np.full(n, -1, dtype=np.intp)
    delta = np.full(n, np.inf)
    incremental = IncrementalKDTree(points)
    incremental.insert(int(order[0]))
    for position in range(1, n):
        index = int(order[position])
        neighbor, distance = incremental.nearest_neighbor(points[index])
        dependent[index] = neighbor
        delta[index] = distance
        incremental.insert(index)
    return dependent, delta


def run_microbench(
    n: int = DEFAULT_N,
    dim: int = DEFAULT_DIM,
    leaf_size: int = 32,
    seed: int = 0,
    k: int = 8,
) -> dict:
    """Time the engines on one tree; returns the result payload."""
    extent = 1000.0
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, extent, size=(n, dim))
    d_cut = density_radius(n, dim, extent, DEFAULT_TARGET_DENSITY)
    tree = KDTree(points, leaf_size=leaf_size)

    rows: list[dict] = []

    def record(operation: str, scalar_fn, batch_fn, check_fn, dual_fn=None) -> None:
        start = time.perf_counter()
        scalar_result = scalar_fn()
        scalar_s = time.perf_counter() - start
        start = time.perf_counter()
        batch_result = batch_fn()
        batch_s = time.perf_counter() - start
        check_fn(scalar_result, batch_result)
        row = {
            "operation": operation,
            "scalar_s": scalar_s,
            "batch_s": batch_s,
            "speedup": scalar_s / batch_s if batch_s > 0 else float("inf"),
        }
        if dual_fn is not None:
            start = time.perf_counter()
            dual_result = dual_fn()
            dual_s = time.perf_counter() - start
            check_fn(scalar_result, dual_result)
            row["dual_s"] = dual_s
            row["dual_speedup"] = scalar_s / dual_s if dual_s > 0 else float("inf")
            row["dual_vs_batch"] = batch_s / dual_s if dual_s > 0 else float("inf")
        rows.append(row)

    # Density computation (Definition 1): one range count per point.  The
    # dual engine answers the whole self-join with one simultaneous
    # traversal; materialise the layout first so the timing isolates the
    # query (fit does the same once per tree).
    tree.points_ordered
    record(
        "density range_count (all n points)",
        lambda: np.asarray([tree.range_count(p, d_cut) for p in points]),
        lambda: tree.range_count_batch(points, d_cut),
        lambda s, b: np.testing.assert_array_equal(np.asarray(s), b),
        dual_fn=lambda: tree.range_count_dual(d_cut),
    )

    # Dependency phase: the nearest strictly-denser point of every point
    # (the unified join layer's three strategies).  The density-bound
    # attachment is part of the dual engine's setup, so it is inside the
    # timed region.
    rho = _tiebroken_rho(tree, d_cut, seed)

    def dependency_batch():
        searcher = PartitionedDependencySearcher(points, rho, leaf_size=leaf_size)
        return searcher.query_batch(np.arange(n))

    def dependency_dual():
        tree.attach_density_bounds(rho)
        return tree.range_nn_dual(rho)

    def check_dependency(expected, got) -> None:
        np.testing.assert_array_equal(np.asarray(expected[0]), got[0])
        np.testing.assert_array_equal(np.asarray(expected[1]), got[1])

    record(
        "dependency nearest-denser (all n points)",
        lambda: _dependency_scalar(points, rho),
        dependency_batch,
        check_dependency,
        dual_fn=dependency_dual,
    )

    # Range search (the Approx-DPC / S-Approx-DPC primitive); fewer queries
    # because materialising every result set is the point of the comparison.
    # The dual variant joins a tree over the query subset against the data.
    n_search = min(n, 5_000)
    search_tree = KDTree(points[:n_search], leaf_size=leaf_size)
    record(
        f"range_search ({n_search} queries)",
        lambda: [np.sort(tree.range_search(p, d_cut)) for p in points[:n_search]],
        lambda: tree.range_search_batch(points[:n_search], d_cut),
        lambda s, b: [np.testing.assert_array_equal(x, y) for x, y in zip(s, b)],
        dual_fn=lambda: tree.range_search_dual_vs(search_tree, d_cut),
    )

    # k-nearest neighbours (the predict-attachment primitive).
    n_knn = min(n, 5_000)
    record(
        f"knn k={k} ({n_knn} queries)",
        lambda: [tree.knn(p, k) for p in points[:n_knn]],
        lambda: tree.knn_batch(points[:n_knn], k),
        lambda s, b: [
            np.testing.assert_array_equal(idx, b[0][row, : idx.size])
            for row, (idx, _) in enumerate(s)
        ],
    )

    return {
        "n": n,
        "dim": dim,
        "leaf_size": leaf_size,
        "d_cut": d_cut,
        "seed": seed,
        "rows": rows,
    }


def run_dim_sweep(n: int, dims: list[int], leaf_size: int = 32, seed: int = 0) -> list[dict]:
    """Engine x dimension sweep (batch vs dual) for density and dependency.

    The scalar engine is omitted -- it is minutes-slow at these sizes and the
    question the sweep answers is *when does dual stop beating batch*, which
    backs the ``engine="auto"`` heuristic and the guidance table in
    ``docs/performance.md``.  Results are verified identical per dimension.
    """
    extent = 1000.0
    rows: list[dict] = []
    for dim in dims:
        rng = np.random.default_rng(seed)
        points = rng.uniform(0.0, extent, size=(n, dim))
        d_cut = density_radius(n, dim, extent, DEFAULT_TARGET_DENSITY)
        tree = KDTree(points, leaf_size=leaf_size)
        tree.points_ordered

        start = time.perf_counter()
        counts_batch = tree.range_count_batch(points, d_cut)
        density_batch_s = time.perf_counter() - start
        start = time.perf_counter()
        counts_dual = tree.range_count_dual(d_cut)
        density_dual_s = time.perf_counter() - start
        np.testing.assert_array_equal(counts_batch, counts_dual)

        rho = _tiebroken_rho(tree, d_cut, seed)
        start = time.perf_counter()
        searcher = PartitionedDependencySearcher(points, rho, leaf_size=leaf_size)
        dep_batch = searcher.query_batch(np.arange(n))
        dependency_batch_s = time.perf_counter() - start
        start = time.perf_counter()
        tree.attach_density_bounds(rho)
        dep_dual = tree.range_nn_dual(rho)
        dependency_dual_s = time.perf_counter() - start
        np.testing.assert_array_equal(dep_batch[0], dep_dual[0])
        np.testing.assert_array_equal(dep_batch[1], dep_dual[1])

        rows.append(
            {
                "d": dim,
                "density_batch_s": density_batch_s,
                "density_dual_s": density_dual_s,
                "density_dual_vs_batch": density_batch_s / density_dual_s,
                "dependency_batch_s": dependency_batch_s,
                "dependency_dual_s": dependency_dual_s,
                "dependency_dual_vs_batch": dependency_batch_s / dependency_dual_s,
            }
        )
    return rows


def dim_guidance(rows: list[dict]) -> str:
    """Guidance lines naming, per phase, the dimensions each engine won."""

    def dims(phase: str, dual_wins: bool) -> str:
        won = [
            str(row["d"])
            for row in rows
            if (row[f"{phase}_dual_vs_batch"] >= 1.0) == dual_wins
        ]
        return ", ".join(won) or "none"

    lines = ["Guidance (from the rows above):"]
    for phase in ("density", "dependency"):
        lines.append(
            f"  {phase}: dual wins at d = {dims(phase, True)};"
            f" batch wins at d = {dims(phase, False)}"
        )
    lines.append(
        "  engine='auto' picks dual up to d=5 and batch above"
        " (see docs/performance.md)."
    )
    return "\n".join(lines)


def density_trajectory(payload: dict) -> dict:
    """Perf-trajectory record, one entry per phase per engine.

    Schema: ``phase -> engine -> {n, d, dpc_variant, phase, seconds,
    speedup_vs_scalar}`` for ``phase in {"density", "dependency"}``.  Both
    phases are Ex-DPC hot paths (Approx-/S-Approx-DPC share the same
    primitives through their joint/picked searches and fallbacks).
    """
    trajectory: dict[str, dict] = {}
    for phase, row in (
        ("density", payload["rows"][0]),
        ("dependency", payload["rows"][1]),
    ):
        base = {
            "n": payload["n"],
            "d": payload["dim"],
            "dpc_variant": "Ex-DPC",
            "phase": phase,
        }
        scalar_s = row["scalar_s"]
        record = {
            "scalar": {**base, "seconds": scalar_s, "speedup_vs_scalar": 1.0},
            "batch": {
                **base,
                "seconds": row["batch_s"],
                "speedup_vs_scalar": row["speedup"],
            },
        }
        if "dual_s" in row:
            record["dual"] = {
                **base,
                "seconds": row["dual_s"],
                "speedup_vs_scalar": row["dual_speedup"],
            }
        trajectory[phase] = record
    return trajectory


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=DEFAULT_N)
    parser.add_argument("--dim", type=int, default=DEFAULT_DIM)
    parser.add_argument("--leaf-size", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=str, default=None, help="write results to this path")
    parser.add_argument(
        "--dims",
        type=str,
        default=None,
        help="comma-separated dimensions for the engine x dimension sweep "
        "(batch vs dual only; skips the default microbench)",
    )
    parser.add_argument(
        "--bench-json",
        type=str,
        default=str(BENCH_TRAJECTORY_PATH),
        help="write the density/dependency perf-trajectory file here "
        "(default: repo-root BENCH_density.json; pass '' to skip)",
    )
    args = parser.parse_args()

    if args.dims:
        dims = [int(d) for d in args.dims.split(",")]
        rows = run_dim_sweep(args.n, dims, leaf_size=args.leaf_size, seed=args.seed)
        print_table(
            f"Engine x dimension sweep (n={args.n}, batch vs dual)", rows
        )
        print("\n" + dim_guidance(rows))
        if args.json:
            with open(args.json, "w") as handle:
                json.dump({"n": args.n, "rows": rows}, handle, indent=2)
            print(f"JSON written to {args.json}")
        return

    payload = run_microbench(
        n=args.n, dim=args.dim, leaf_size=args.leaf_size, seed=args.seed
    )
    print_table(
        f"Query engines (n={payload['n']}, d={payload['dim']}, "
        f"leaf={payload['leaf_size']}, d_cut={payload['d_cut']:.2f})",
        payload["rows"],
    )
    density = payload["rows"][0]
    dependency = payload["rows"][1]
    batch_speedup = density["speedup"]
    batch_verdict = "PASS" if batch_speedup >= 5.0 else "FAIL"
    print(
        f"\nDensity batch-vs-scalar speedup:    {batch_speedup:.1f}x "
        f"(acceptance threshold 5x: {batch_verdict})"
    )
    for phase_name, row, threshold in (
        ("density", density, 1.0),
        ("dependency", dependency, 2.0),
    ):
        dual_vs_batch = row.get("dual_vs_batch")
        if dual_vs_batch is None:
            continue
        label = f"{phase_name.capitalize()} dual-vs-batch speedup:".ljust(36)
        if args.n >= 50_000:
            dual_verdict = "PASS" if dual_vs_batch >= threshold else "FAIL"
            print(
                f"{label}{dual_vs_batch:.1f}x "
                f"(acceptance threshold {threshold:g}x at n={args.n}: "
                f"{dual_verdict})"
            )
        else:
            print(
                f"{label}{dual_vs_batch:.1f}x "
                f"(n={args.n}; the {threshold:g}x acceptance threshold "
                f"applies at n=50000)"
            )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"JSON written to {args.json}")
    if args.bench_json:
        # Merge into the existing trajectory: other phases' records (e.g. the
        # "recluster" rows of bench_fig8_dcut.py --recluster and the
        # kernel-tagged rows of bench_kernels.py) are preserved.
        merge_trajectory(args.bench_json, density_trajectory(payload))
        print(f"Perf trajectory written to {args.bench_json}")


if __name__ == "__main__":
    main()
