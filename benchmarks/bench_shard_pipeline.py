"""Sharded fit under three pipeline schedules: serial, overlapped, budgeted.

The sharded fit's one driver, the stage pipeline (:mod:`repro.shard.pipeline`),
runs the build / density / halo / dependency stages of the shards on
``pipeline_workers`` threads (one by default without a budget), overlapping
stages of *different* shards -- under ``memory_budget_bytes`` only while the
memory-accounting model says the live set fits the budget.
This bench fits the same clustered dataset three ways --

* **serial**: one stage at a time (``pipeline_workers=1``, no budget),
* **pipelined**: two workers with no budget (all shards resident), and
* **budgeted**: the default worker count at the *minimum feasible* budget,
  which degenerates to one shard resident at a time with spill-to-disk
  between the local and cross passes --

and verifies all three produce fitted arrays bit-identical to single-tree
``ExDPC`` (and identical work counters across the three) before reporting
wall times and the tracked memory peaks.

``--check`` gates on **bit-identity, work counters and budget compliance**
-- never on wall-clock ratios, because the CI runner is a single-CPU box
where stage overlap cannot pay.  The run appends ``phase="shard"`` rows (wall seconds,
peak tracked bytes, budget, stage counts) to the repo-root perf-trajectory
file via ``merge_trajectory``.

Run with::

    PYTHONPATH=src python benchmarks/bench_shard_pipeline.py
    PYTHONPATH=src python benchmarks/bench_shard_pipeline.py --check \\
        --n 600 --n-shards 2 --json shard-smoke.json \\
        --bench-json BENCH_density.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench import merge_trajectory, print_table
from repro.core.ex_dpc import ExDPC
from repro.shard import ShardedDPC, minimum_budget_bytes, plan_shards

DEFAULT_N = 4000
DEFAULT_DIM = 2
DEFAULT_SHARDS = 4
EXTENT = 100.0
MODES = ("serial", "pipelined", "budgeted")


def make_points(n: int, dim: int, seed: int) -> np.ndarray:
    """Clustered points whose blobs straddle the shard cut planes."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.15 * EXTENT, 0.85 * EXTENT, size=(4, dim))
    blobs = [
        center + rng.normal(0.0, 0.06 * EXTENT, size=(n // 4, dim))
        for center in centers
    ]
    scatter = rng.uniform(0.0, EXTENT, size=(n - 4 * (n // 4), dim))
    return np.concatenate(blobs + [scatter])


def fit_once(points: np.ndarray, n_shards: int, **kwargs) -> dict:
    """One sharded fit; returns arrays, counters and stats for comparison."""
    model = ShardedDPC(
        0.08 * EXTENT, n_shards=n_shards, rho_min=1, n_clusters=4, seed=0, **kwargs
    )
    start = time.perf_counter()
    result = model.fit(points)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "labels": result.labels_,
        "rho_raw": result.rho_raw_,
        "delta": result.delta_,
        "dependent": result.dependent_,
        "work": dict(result.work_),
        "stats": model.shard_stats_,
    }


def run_bench(
    n: int = DEFAULT_N,
    dim: int = DEFAULT_DIM,
    n_shards: int = DEFAULT_SHARDS,
    seed: int = 0,
) -> dict:
    """Fit serial / pipelined / budgeted and compare bit for bit."""
    points = make_points(n, dim, seed)
    plan = plan_shards(points, n_shards)
    budget = minimum_budget_bytes(plan.shard_sizes, dim, "float64", 32)

    reference = ExDPC(0.08 * EXTENT, rho_min=1, n_clusters=4, seed=0)
    ref_result = reference.fit(points)

    runs = {
        "serial": fit_once(points, n_shards, pipeline_workers=1),
        "pipelined": fit_once(points, n_shards, pipeline_workers=2),
        "budgeted": fit_once(points, n_shards, memory_budget_bytes=budget),
    }

    identical = all(
        np.array_equal(run[key], getattr(ref_result, f"{attr}_"))
        for run in runs.values()
        for key, attr in (
            ("labels", "labels"),
            ("rho_raw", "rho_raw"),
            ("delta", "delta"),
            ("dependent", "dependent"),
        )
    )
    work_identical = (
        runs["pipelined"]["work"] == runs["serial"]["work"]
        and runs["budgeted"]["work"] == runs["serial"]["work"]
    )
    budget_stats = runs["budgeted"]["stats"]
    budget_ok = 0 < budget_stats["peak_rss_bytes"] <= budget

    payload = {
        "bench": "shard_pipeline",
        "n": n,
        "dim": dim,
        "n_shards": n_shards,
        "budget_bytes": int(budget),
        "bit_identical": bool(identical),
        "work_identical": bool(work_identical),
        "budget_respected": bool(budget_ok),
    }
    for mode, run in runs.items():
        stats = run["stats"]
        payload[mode] = {
            "wall_s": run["wall_s"],
            "peak_rss_bytes": int(stats["peak_rss_bytes"]),
            "n_stages": stats["pipeline"]["n_stages"],
            "workers": stats["pipeline"]["workers"],
            "spilled_shards": len(stats["pipeline"]["spilled"]),
        }
    return payload


def shard_trajectory(payload: dict) -> dict:
    """``phase -> key -> record`` rows for ``merge_trajectory``."""
    rows = {}
    for mode in MODES:
        record = payload[mode]
        rows[mode] = {
            "n": payload["n"],
            "n_shards": payload["n_shards"],
            "wall_s": record["wall_s"],
            "peak_rss_bytes": record["peak_rss_bytes"],
        }
    rows["budgeted"]["budget_bytes"] = payload["budget_bytes"]
    rows["budgeted"]["spilled_shards"] = payload["budgeted"]["spilled_shards"]
    return {"shard": rows}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=DEFAULT_N, help="points")
    parser.add_argument("--dim", type=int, default=DEFAULT_DIM, help="dimensions")
    parser.add_argument(
        "--n-shards", type=int, default=DEFAULT_SHARDS, help="shard count"
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless all schedules are bit-identical to ExDPC, "
        "their work counters agree and the budgeted run stayed under its "
        "budget (wall-clock is never gated)",
    )
    parser.add_argument("--json", default=None, help="write the payload as JSON here")
    parser.add_argument(
        "--bench-json",
        default=None,
        metavar="PATH",
        help="merge phase='shard' rows into this perf-trajectory file",
    )
    args = parser.parse_args()

    payload = run_bench(n=args.n, dim=args.dim, n_shards=args.n_shards, seed=args.seed)

    print_table(
        f"sharded fit: n={args.n} x {args.n_shards} shards",
        [
            {
                "schedule": mode,
                "wall (s)": payload[mode]["wall_s"],
                "peak tracked (bytes)": payload[mode]["peak_rss_bytes"],
                "stages": payload[mode]["n_stages"],
                "spilled": payload[mode]["spilled_shards"],
            }
            for mode in MODES
        ],
    )
    print(f"bit-identical          : {payload['bit_identical']}")
    print(f"work counters identical: {payload['work_identical']}")
    print(
        f"budget respected       : {payload['budget_respected']} "
        f"(peak {payload['budgeted']['peak_rss_bytes']} <= "
        f"budget {payload['budget_bytes']})"
    )

    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    if args.bench_json:
        merge_trajectory(args.bench_json, shard_trajectory(payload))

    if args.check and not (
        payload["bit_identical"]
        and payload["work_identical"]
        and payload["budget_respected"]
    ):
        print("CHECK FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
