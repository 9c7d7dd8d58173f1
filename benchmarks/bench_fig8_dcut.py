"""Figure 8: running time versus the cutoff distance d_cut.

The paper sweeps d_cut around its default on every real dataset: Scan and
CFSFDP-A are insensitive (they scan everything regardless), LSH-DDP is very
sensitive (large cutoffs blow up its bucket sizes), and the proposed
algorithms grow mildly with d_cut because their work depends on rho_avg --
with S-Approx-DPC the least sensitive because a larger cutoff also means
fewer grid cells.

Run the full figure with ``python benchmarks/bench_fig8_dcut.py``.

``--recluster`` runs the same d_cut tour through the re-cluster-at-any-
parameter index instead (fit once, ``ReclusterIndex`` serves every stop;
see ``docs/recluster.md``): every stop is verified bit-identical against a
cold refit, and a ``phase="recluster"`` record with ``build_seconds``,
``refit_seconds`` / ``speedup_vs_refit`` and its provenance (git sha, CPU
count and affinity, numpy version) is merged into the repo-root
perf-trajectory file ``BENCH_density.json`` under the key
``"<engine>@<git sha>"``, so runs of different commits sit side by side::

    python benchmarks/bench_fig8_dcut.py --recluster --n 50000
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import time
from pathlib import Path

import numpy as np

from repro.bench import (
    load_workload,
    merge_trajectory,
    print_series,
    run_performance_suite,
)
import repro
from repro.bench.workloads import BenchWorkload
from repro.core import ExDPC
from repro.data import generate_syn

#: Default output path of the perf-trajectory file (repo root), shared with
#: benchmarks/bench_batch_vs_scalar.py.
BENCH_TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_density.json"

#: d_cut multipliers applied to each workload's default cutoff (the paper
#: sweeps 500-1500 around a default of 1000).
D_CUT_FACTORS = (0.5, 0.75, 1.0, 1.25, 1.5)
ALGORITHMS = ["Scan", "LSH-DDP", "CFSFDP-A", "Ex-DPC", "Approx-DPC", "S-Approx-DPC"]


def _with_d_cut(workload: BenchWorkload, d_cut: float) -> BenchWorkload:
    return BenchWorkload(
        name=workload.name,
        points=workload.points,
        d_cut=d_cut,
        n_clusters=workload.n_clusters,
        rho_min=workload.rho_min,
        true_labels=workload.true_labels,
    )


def _sweep(dataset: str, factors=D_CUT_FACTORS, algorithms=ALGORITHMS):
    base = load_workload(dataset)
    times = {name: [] for name in algorithms}
    works = {name: [] for name in algorithms}
    d_cuts = [base.d_cut * factor for factor in factors]
    for d_cut in d_cuts:
        workload = _with_d_cut(base, d_cut)
        results = run_performance_suite(workload, algorithms)
        for name, result in results.items():
            times[name].append(result.timings_["total"])
            works[name].append(result.work_["total_distance_calcs"])
    return d_cuts, times, works


def test_dcut_sensitivity_airline(benchmark, airline_workload):
    """Benchmark one d_cut point; Scan's work must not depend on d_cut."""
    small = _with_d_cut(airline_workload, airline_workload.d_cut * 0.5)
    large = _with_d_cut(airline_workload, airline_workload.d_cut * 1.5)

    def run_both():
        return (
            run_performance_suite(small, ["Scan", "Ex-DPC"]),
            run_performance_suite(large, ["Scan", "Ex-DPC"]),
        )

    result_small, result_large = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert result_small["Scan"].work_["density_distance_calcs"] == (
        result_large["Scan"].work_["density_distance_calcs"]
    )
    assert result_small["Ex-DPC"].work_["density_distance_calcs"] < (
        result_large["Ex-DPC"].work_["density_distance_calcs"]
    )


#: Defaults of the ``--recluster`` tour (the acceptance workload: Syn-style
#: 2-D points at n=50k, fitted cutoff in the middle of the sweep).
RECLUSTER_N = 50_000
RECLUSTER_D_CUT = 600.0
RECLUSTER_N_CLUSTERS = 10
RECLUSTER_RHO_MIN = 5


def _provenance() -> dict:
    """Where a record was measured: the code's git sha, the CPUs, numpy."""
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=Path(repro.__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "git_sha": sha,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        ),
        "numpy_version": np.__version__,
    }


def recluster_sweep(
    n: int = RECLUSTER_N,
    engine: str = "dual",
    factors=D_CUT_FACTORS,
    seed: int = 3,
) -> dict:
    """Tour d_cut over ``factors`` once via the recluster index, once by refits.

    Every stop's labels are asserted bit-identical between the two paths;
    returns the perf-trajectory record (``phase="recluster"``).
    """
    points, _ = generate_syn(n_points=n, seed=seed)
    points = np.asarray(points, dtype=np.float64)
    model = ExDPC(
        RECLUSTER_D_CUT,
        n_clusters=RECLUSTER_N_CLUSTERS,
        rho_min=RECLUSTER_RHO_MIN,
        seed=11,
        engine=engine,
    )
    start = time.perf_counter()
    model.fit(points)
    fit_s = time.perf_counter() - start
    start = time.perf_counter()
    index = model.recluster_index()
    build_s = time.perf_counter() - start

    recluster_s = refit_s = 0.0
    for factor in factors:
        d_cut = factor * RECLUSTER_D_CUT
        start = time.perf_counter()
        toured = index.recluster(
            d_cut, rho_min=RECLUSTER_RHO_MIN, n_clusters=RECLUSTER_N_CLUSTERS
        )
        recluster_s += time.perf_counter() - start
        start = time.perf_counter()
        cold = ExDPC(
            d_cut,
            n_clusters=RECLUSTER_N_CLUSTERS,
            rho_min=RECLUSTER_RHO_MIN,
            seed=11,
            engine=engine,
        ).fit(points)
        refit_s += time.perf_counter() - start
        if not np.array_equal(toured.labels_, cold.labels_):
            raise AssertionError(
                f"recluster labels diverge from the cold refit at "
                f"d_cut={d_cut} (engine={engine})"
            )
        print(
            f"  {engine} d_cut={d_cut:7.1f}: recluster "
            f"{toured.timings_['total']:.3f}s vs refit "
            f"{cold.timings_['total']:.3f}s (labels identical)"
        )
    return {
        "n": n,
        "d": int(points.shape[1]),
        "dpc_variant": "Ex-DPC",
        "phase": "recluster",
        "engine": engine,
        "n_parameters": len(factors),
        "fit_seconds": fit_s,
        "build_seconds": build_s,
        "seconds": recluster_s,
        "refit_seconds": refit_s,
        "speedup_vs_refit": refit_s / recluster_s,
        "profile_entries": index.n_profile_entries,
        "index_bytes": index.memory_bytes(),
        **_provenance(),
    }


def append_recluster_trajectory(rows: list[dict], path: Path) -> None:
    """Merge ``phase="recluster"`` records into the perf-trajectory file.

    The file is keyed ``phase -> key -> record`` with key
    ``"<engine>@<git sha>"`` (just the engine outside a git checkout);
    other phases' records (written by ``bench_batch_vs_scalar.py`` /
    ``bench_kernels.py``) and other commits' rows are left untouched.
    """
    merge_trajectory(
        path,
        {
            "recluster": {
                "@".join(filter(None, (row["engine"], row["git_sha"]))): row
                for row in rows
            }
        },
    )


def run_recluster(args: argparse.Namespace) -> None:
    rows = []
    for engine in args.engines.split(","):
        row = recluster_sweep(n=args.n, engine=engine.strip())
        rows.append(row)
        print(
            f"{row['engine']}: fit {row['fit_seconds']:.2f}s, index build "
            f"{row['build_seconds']:.2f}s ({row['index_bytes'] / 1e6:.1f} MB), "
            f"{row['n_parameters']}-stop tour {row['seconds']:.2f}s vs refits "
            f"{row['refit_seconds']:.2f}s -- {row['speedup_vs_refit']:.1f}x"
        )
    if args.bench_json:
        path = Path(args.bench_json)
        append_recluster_trajectory(rows, path)
        print(f"perf trajectory updated: {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--recluster",
        action="store_true",
        help="run the d_cut tour through the recluster index instead of the "
        "paper's algorithm sweep, verifying bit-identity against refits",
    )
    parser.add_argument(
        "--n", type=int, default=RECLUSTER_N, help="points for --recluster"
    )
    parser.add_argument(
        "--engines",
        default="dual,batch",
        help="comma-separated fit engines for --recluster (default: dual,batch)",
    )
    parser.add_argument(
        "--bench-json",
        default=str(BENCH_TRAJECTORY_PATH),
        help="perf-trajectory file updated by --recluster "
        "(default: repo-root BENCH_density.json; pass '' to skip)",
    )
    args = parser.parse_args()
    if args.recluster:
        run_recluster(args)
        return
    for dataset in ("airline", "household"):
        d_cuts, times, works = _sweep(dataset)
        print_series(
            f"Figure 8 ({dataset}): running time [s] vs d_cut",
            "d_cut",
            [round(value) for value in d_cuts],
            times,
        )
        print_series(
            f"Figure 8 ({dataset}): distance computations vs d_cut",
            "d_cut",
            [round(value) for value in d_cuts],
            works,
        )
    print(
        "Paper shape: Scan/CFSFDP-A flat, LSH-DDP most sensitive, the proposed"
        " algorithms grow mildly with d_cut and S-Approx-DPC is the least"
        " sensitive."
    )


if __name__ == "__main__":
    main()
