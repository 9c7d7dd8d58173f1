"""Microbenchmark: the blocked kernel tiers (numpy / numba).

Two levels of measurement, both for every tier installed in this
environment (``repro.kernels.available_kernels()``; request a subset with
``--tiers``):

* **ABI micro-kernels** -- ``pair_distances_sq`` / ``count_blocks`` /
  ``nn_blocks`` timed over representative padded block shapes at several
  dimensionalities, isolating the pure kernel arithmetic the tiers compete
  on.  Tiers are verified bit-identical on every shape before timing.
* **Hot phases end-to-end** -- the dual-tree density self-join
  (``range_count_dual``) and nearest-denser join (``range_nn_dual``) on a
  tree built with ``kernel=<tier>``, i.e. the tier as an estimator would
  run it, verified identical across tiers.

The phase timings are appended to the repo-root perf-trajectory file
``BENCH_density.json`` as *kernel-tagged* rows (phases
``density_kernels`` / ``dependency_kernels``, keyed by tier name, each
record carrying ``kernel`` and ``speedup_vs_numpy``) through the shared
merge-don't-clobber writer, so the engine rows of
``bench_batch_vs_scalar.py`` and the recluster rows of
``bench_fig8_dcut.py`` are preserved.  CI's optional ``numba-kernels`` leg
runs the reduced-n smoke version and uploads the JSON as an artifact.

Run with::

    PYTHONPATH=src python benchmarks/bench_kernels.py
    PYTHONPATH=src python benchmarks/bench_kernels.py --n 50000 --dims 2,3,4
    PYTHONPATH=src python benchmarks/bench_kernels.py --tiers numpy --json out.json
"""

from __future__ import annotations

import argparse
import json
import math
import time
from pathlib import Path

import numpy as np

from repro.bench import merge_trajectory, print_table
from repro.index.kdtree import KDTree
from repro.kernels import available_kernels, get_kernel

DEFAULT_N = 20_000
DEFAULT_TARGET_DENSITY = 40.0

#: Default output path of the perf-trajectory file (repo root).
BENCH_TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_density.json"

#: Padded block shapes ``(groups, q, j)`` the micro-kernel timings sweep:
#: many narrow groups (the wavefront's typical shape), a balanced middle,
#: and few wide groups (brute-force tails and mega-batched seed levels).
BLOCK_SHAPES = ((64, 40, 40), (16, 80, 80), (4, 160, 160))


def density_radius(n: int, dim: int, extent: float, target: float) -> float:
    """Radius whose expected ball population is ``target`` for uniform data."""
    unit_ball = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    volume = extent**dim * target / n
    return (volume / unit_ball) ** (1.0 / dim)


def _best_of(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _make_blocks(g: int, q: int, j: int, dim: int, seed: int):
    """One padded block set honouring the ABI contract (last rows padded)."""
    rng = np.random.default_rng(seed)
    q_block = rng.standard_normal((g, q, dim))
    d_block = rng.standard_normal((g, j, dim))
    rho_q = rng.uniform(0.0, 1.0, size=(g, q))
    d_rho = rng.uniform(0.0, 1.0, size=(g, j))
    d_idx = rng.permutation(g * j).reshape(g, j).astype(np.intp)
    q_block[:, -1, :] = np.inf
    rho_q[:, -1] = np.inf
    d_block[:, -1, :] = np.inf
    d_rho[:, -1] = -np.inf
    d_idx[:, -1] = np.iinfo(np.intp).max
    radius_sq = np.float64(float(dim))
    return q_block, d_block, rho_q, d_rho, d_idx, radius_sq


def run_block_bench(
    tiers: list[str], dims: list[int], seed: int = 0, repeats: int = 5
) -> list[dict]:
    """Time the ABI functions per (tier, dim, block shape); verify tiers agree."""
    reference = get_kernel("numpy")
    rows: list[dict] = []
    for dim in dims:
        for g, q, j in BLOCK_SHAPES:
            blocks = _make_blocks(g, q, j, dim, seed)
            q_block, d_block, rho_q, d_rho, d_idx, radius_sq = blocks
            with np.errstate(invalid="ignore", over="ignore"):
                ref_pair = reference.pair_distances_sq(q_block, d_block)
                ref_counts = reference.count_blocks(
                    q_block, d_block, radius_sq, True
                )
                ref_nn = reference.nn_blocks(q_block, rho_q, d_block, d_rho, d_idx)
            for tier_name in tiers:
                tier = get_kernel(tier_name)
                with np.errstate(invalid="ignore", over="ignore"):
                    np.testing.assert_array_equal(
                        tier.pair_distances_sq(q_block, d_block), ref_pair
                    )
                    got_counts = tier.count_blocks(q_block, d_block, radius_sq, True)
                    got_nn = tier.nn_blocks(q_block, rho_q, d_block, d_rho, d_idx)
                np.testing.assert_array_equal(got_counts[0], ref_counts[0])
                np.testing.assert_array_equal(got_counts[1], ref_counts[1])
                np.testing.assert_array_equal(got_nn[0], ref_nn[0])
                finite = np.isfinite(ref_nn[0])
                np.testing.assert_array_equal(got_nn[1][finite], ref_nn[1][finite])
                with np.errstate(invalid="ignore", over="ignore"):
                    rows.append(
                        {
                            "kernel": tier_name,
                            "d": dim,
                            "block": f"{g}x{q}x{j}",
                            "pair_ms": 1e3
                            * _best_of(
                                lambda: tier.pair_distances_sq(q_block, d_block),
                                repeats,
                            ),
                            "count_ms": 1e3
                            * _best_of(
                                lambda: tier.count_blocks(
                                    q_block, d_block, radius_sq, True
                                ),
                                repeats,
                            ),
                            "nn_ms": 1e3
                            * _best_of(
                                lambda: tier.nn_blocks(
                                    q_block, rho_q, d_block, d_rho, d_idx
                                ),
                                repeats,
                            ),
                        }
                    )
    return rows


def run_phase_bench(
    tiers: list[str],
    n: int,
    dim: int,
    leaf_size: int = 32,
    seed: int = 0,
    repeats: int = 3,
) -> list[dict]:
    """Time the dual density/dependency phases per tier; verify identical."""
    extent = 1000.0
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, extent, size=(n, dim))
    d_cut = density_radius(n, dim, extent, DEFAULT_TARGET_DENSITY)

    rows: list[dict] = []
    reference = None
    for tier_name in tiers:
        tree = KDTree(points, leaf_size=leaf_size, kernel=tier_name)
        tree.points_ordered

        counts = tree.range_count_dual(d_cut)  # warm (JIT compilation, caches)
        density_s = _best_of(lambda: tree.range_count_dual(d_cut), repeats)

        rho = counts.astype(np.float64) + rng.uniform(0.0, 1.0, size=n)
        tree.attach_density_bounds(rho)
        dependency = tree.range_nn_dual(rho)
        dependency_s = _best_of(lambda: tree.range_nn_dual(rho), repeats)

        if reference is None:
            reference = (counts, dependency)
        else:
            np.testing.assert_array_equal(counts, reference[0])
            np.testing.assert_array_equal(dependency[0], reference[1][0])
            np.testing.assert_array_equal(dependency[1], reference[1][1])
        rows.append(
            {
                "kernel": tier_name,
                "n": n,
                "d": dim,
                "density_s": density_s,
                "dependency_s": dependency_s,
            }
        )
    numpy_row = next(row for row in rows if row["kernel"] == "numpy")
    for row in rows:
        row["density_speedup_vs_numpy"] = numpy_row["density_s"] / row["density_s"]
        row["dependency_speedup_vs_numpy"] = (
            numpy_row["dependency_s"] / row["dependency_s"]
        )
    return rows


def kernel_trajectory(phase_rows: list[dict]) -> dict:
    """Kernel-tagged perf-trajectory records from the phase timings.

    Schema: ``density_kernels`` / ``dependency_kernels`` -> tier name ->
    ``{n, d, dpc_variant, phase, kernel, seconds, speedup_vs_numpy}``.
    """
    updates: dict[str, dict] = {"density_kernels": {}, "dependency_kernels": {}}
    for row in phase_rows:
        base = {
            "n": row["n"],
            "d": row["d"],
            "dpc_variant": "Ex-DPC",
            "kernel": row["kernel"],
        }
        updates["density_kernels"][row["kernel"]] = {
            **base,
            "phase": "density",
            "seconds": row["density_s"],
            "speedup_vs_numpy": row["density_speedup_vs_numpy"],
        }
        updates["dependency_kernels"][row["kernel"]] = {
            **base,
            "phase": "dependency",
            "seconds": row["dependency_s"],
            "speedup_vs_numpy": row["dependency_speedup_vs_numpy"],
        }
    return updates


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=DEFAULT_N)
    parser.add_argument("--dim", type=int, default=2, help="phase-bench dimensionality")
    parser.add_argument(
        "--dims",
        type=str,
        default="2,3,4",
        help="comma-separated dimensions for the micro-kernel block sweep",
    )
    parser.add_argument(
        "--tiers",
        type=str,
        default=None,
        help="comma-separated tier names (default: every installed tier)",
    )
    parser.add_argument("--leaf-size", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--json", type=str, default=None, help="write results to this path")
    parser.add_argument(
        "--bench-json",
        type=str,
        default=str(BENCH_TRAJECTORY_PATH),
        help="merge kernel-tagged rows into this perf-trajectory file "
        "(default: repo-root BENCH_density.json; pass '' to skip)",
    )
    args = parser.parse_args()

    installed = available_kernels()
    if args.tiers:
        tiers = [name.strip() for name in args.tiers.split(",")]
        missing = [name for name in tiers if name not in installed]
        if missing:
            raise SystemExit(
                f"requested tiers not installed: {missing} (installed: {installed})"
            )
    else:
        tiers = list(installed)
    if "numpy" not in tiers:
        tiers.insert(0, "numpy")  # speedups are reported against the numpy tier

    dims = [int(value) for value in args.dims.split(",")]
    block_rows = run_block_bench(tiers, dims, seed=args.seed, repeats=args.repeats)
    print_table(
        f"ABI micro-kernels (padded blocks, tiers: {', '.join(tiers)})", block_rows
    )

    phase_rows = run_phase_bench(
        tiers,
        args.n,
        args.dim,
        leaf_size=args.leaf_size,
        seed=args.seed,
        repeats=max(3, args.repeats // 2),
    )
    print_table(
        f"Dual-tree hot phases per tier (n={args.n}, d={args.dim})", phase_rows
    )

    if args.json:
        payload = {"blocks": block_rows, "phases": phase_rows}
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"JSON written to {args.json}")
    if args.bench_json:
        merge_trajectory(args.bench_json, kernel_trajectory(phase_rows))
        print(f"Perf trajectory written to {args.bench_json}")


if __name__ == "__main__":
    main()
