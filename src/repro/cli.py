"""Command-line interface.

Seven subcommands cover the everyday workflows of the library::

    python -m repro.cli cluster data.csv --algorithm approx-dpc --d-cut 2000 \\
        --n-clusters 13 --output labels.csv --save-model model.npz
    python -m repro.cli recluster model.npz --d-cut 1500 --n-clusters 13 \\
        --output labels.csv
    python -m repro.cli predict model.npz new_points.csv --output labels.csv
    python -m repro.cli serve --model syn=model.npz --port 7878
    python -m repro.cli stream data.csv --d-cut 2000 --n-clusters 13 \\
        --window 5000 --batch 500
    python -m repro.cli generate syn --sampling-rate 0.1 --output syn.csv
    python -m repro.cli info

``cluster`` reads a CSV / ``.npy`` / ``.npz`` point matrix, runs the chosen
algorithm and writes the per-point labels (plus a JSON metadata sidecar) and
optionally a reusable model snapshot; ``recluster`` re-answers a saved
Ex-DPC snapshot at new ``(d_cut, rho_min, delta_min / n_clusters)`` without
refitting -- bit-identical to a cold fit at those parameters (see
``docs/recluster.md``); ``predict`` assigns new points with a saved snapshot
(the fit-once / serve-anywhere recipe of ``docs/streaming.md``); ``serve``
runs the asyncio coalescing predict server over one or more saved snapshots
or shard manifests (see ``docs/serving.md``); ``stream``
replays a point file through the sliding-window
:class:`repro.stream.StreamingDPC`; ``generate`` materialises one of the
benchmark datasets; ``info`` lists the available algorithms and datasets
with their parameters.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from repro import __version__
from repro.bench.runners import ALGORITHM_BUILDERS, ENGINE_AWARE_ALGORITHMS
from repro.bench.workloads import load_workload
from repro.core.framework import ENGINE_CHOICES
from repro.kernels import KERNEL_CHOICES
from repro.io import load_model, load_points, save_model, save_points, save_result

__all__ = ["main", "build_parser"]

#: CLI algorithm name -> paper algorithm name.
_CLI_ALGORITHMS = {
    "ex-dpc": "Ex-DPC",
    "approx-dpc": "Approx-DPC",
    "s-approx-dpc": "S-Approx-DPC",
    "scan": "Scan",
    "rtree-scan": "R-tree + Scan",
    "lsh-ddp": "LSH-DDP",
    "cfsfdp-a": "CFSFDP-A",
}

_DATASETS = ("syn", "s1", "s2", "s3", "s4", "airline", "household", "pamap2", "sensor")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fast Density-Peaks Clustering (SIGMOD 2021 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    cluster = subparsers.add_parser("cluster", help="cluster a point file")
    cluster.add_argument("input", help="CSV or .npy file with one point per row")
    cluster.add_argument(
        "--algorithm",
        choices=sorted(_CLI_ALGORITHMS),
        default="approx-dpc",
        help="clustering algorithm (default: approx-dpc)",
    )
    cluster.add_argument("--d-cut", type=float, required=True, help="cutoff distance")
    cluster.add_argument("--rho-min", type=float, default=None, help="noise threshold")
    cluster.add_argument(
        "--delta-min", type=float, default=None, help="cluster-center threshold"
    )
    cluster.add_argument(
        "--n-clusters", type=int, default=None, help="number of centers to select"
    )
    cluster.add_argument(
        "--epsilon", type=float, default=0.5, help="S-Approx-DPC approximation parameter"
    )
    cluster.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        help="workers for the parallel phases (-1: all CPUs in the affinity mask)",
    )
    cluster.add_argument(
        "--backend",
        choices=["serial", "thread", "process"],
        default=None,
        help="execution backend (default: REPRO_DEFAULT_BACKEND or 'thread'; "
        "see docs/parallel.md)",
    )
    cluster.add_argument(
        "--engine",
        choices=list(ENGINE_CHOICES),
        default=None,
        help="query engine of the density/dependency hot paths for "
        "ex-dpc/approx-dpc/s-approx-dpc ('auto' picks dual/batch by "
        "dimension; default: REPRO_DEFAULT_ENGINE or 'auto'; baselines "
        "ignore the flag; see docs/performance.md)",
    )
    cluster.add_argument(
        "--kernel",
        choices=list(KERNEL_CHOICES),
        default=None,
        help="blocked kernel tier of the distance kernels ('auto' upgrades "
        "to numba when installed; tiers are bit-identical; default: "
        "REPRO_KERNEL or 'auto'; baselines ignore the flag; see "
        "docs/kernels.md)",
    )
    cluster.add_argument("--seed", type=int, default=0, help="random seed")
    cluster.add_argument(
        "--output", default=None, help="write labels CSV (+ JSON sidecar) here"
    )
    cluster.add_argument(
        "--save-model",
        default=None,
        metavar="PATH",
        help="save the fitted model as a .npz snapshot for `repro predict` "
        "(see docs/streaming.md)",
    )

    recluster = subparsers.add_parser(
        "recluster",
        help="re-cluster a saved Ex-DPC snapshot at new parameters, exactly",
    )
    recluster.add_argument(
        "model", help=".npz snapshot written by save_model / cluster --save-model"
    )
    recluster.add_argument(
        "--d-cut",
        type=float,
        default=None,
        help="new cutoff distance (default: keep the fitted d_cut)",
    )
    recluster.add_argument(
        "--rho-min", type=float, default=None, help="noise threshold"
    )
    recluster.add_argument(
        "--delta-min", type=float, default=None, help="cluster-center threshold"
    )
    recluster.add_argument(
        "--n-clusters", type=int, default=None, help="number of centers to select"
    )
    recluster.add_argument(
        "--d-cut-max",
        type=float,
        default=None,
        help="profile cap when the index must be built (default: 2x the "
        "fitted d_cut; bounds the largest servable --d-cut)",
    )
    recluster.add_argument(
        "--output", default=None, help="write labels CSV (+ JSON sidecar) here"
    )
    recluster.add_argument(
        "--save-model",
        default=None,
        metavar="PATH",
        help="re-save the snapshot including the recluster index, so later "
        "`repro recluster` calls skip the index build",
    )

    predict = subparsers.add_parser(
        "predict", help="assign new points with a saved model snapshot"
    )
    predict.add_argument(
        "model", help=".npz snapshot written by save_model / cluster --save-model"
    )
    predict.add_argument(
        "input", help="CSV / .npy / .npz file with one point per row"
    )
    predict.add_argument(
        "--output", default=None, help="write the predicted labels CSV here"
    )
    predict.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map the snapshot arrays instead of loading them",
    )
    predict.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        help="workers for the brute-force predict of index-free models",
    )
    predict.add_argument(
        "--backend",
        choices=["serial", "thread", "process"],
        default=None,
        help="execution backend for the brute-force predict of index-free models",
    )

    serve = subparsers.add_parser(
        "serve", help="serve predict requests from saved models over TCP"
    )
    serve.add_argument(
        "--model",
        action="append",
        required=True,
        metavar="NAME=PATH",
        help="register a model under NAME; PATH is a .npz snapshot or a "
        "shard-manifest directory (repeatable)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=0, help="bind port (0: pick a free port)"
    )
    serve.add_argument(
        "--window-ms",
        type=float,
        default=2.0,
        help="coalescing window in milliseconds (default: 2.0)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=256,
        help="maximum requests merged into one kernel invocation",
    )
    serve.add_argument(
        "--max-models",
        type=int,
        default=4,
        help="models resident at once (LRU eviction beyond it)",
    )
    serve.add_argument(
        "--max-pending-batches",
        type=int,
        default=1,
        help="coalesced batches in flight per model before backpressure "
        "(overflow queues, it is never dropped)",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="server processes behind a round-robin front (1: serve in "
        "process; N>1: fork N replicas sharing mmap'd snapshots)",
    )
    serve.add_argument(
        "--health-check",
        action="store_true",
        help="start, run a warm health probe against every replica, print "
        "the report as JSON, and exit (0 iff all healthy)",
    )
    serve.add_argument(
        "--no-mmap",
        action="store_true",
        help="read snapshot arrays into private memory instead of mmapping",
    )

    stream = subparsers.add_parser(
        "stream", help="replay a point file through the sliding-window StreamingDPC"
    )
    stream.add_argument("input", help="CSV / .npy / .npz file with one point per row")
    stream.add_argument("--d-cut", type=float, required=True, help="cutoff distance")
    stream.add_argument("--rho-min", type=float, default=None, help="noise threshold")
    stream.add_argument(
        "--delta-min", type=float, default=None, help="cluster-center threshold"
    )
    stream.add_argument(
        "--n-clusters", type=int, default=None, help="number of centers to select"
    )
    stream.add_argument(
        "--window", type=int, default=2000, help="sliding window size (default: 2000)"
    )
    stream.add_argument(
        "--batch", type=int, default=200, help="points ingested per update batch"
    )
    stream.add_argument(
        "--engine",
        choices=list(ENGINE_CHOICES),
        default=None,
        help="query engine of the wrapped Ex-DPC (rebuilds and repair)",
    )
    stream.add_argument(
        "--kernel",
        choices=list(KERNEL_CHOICES),
        default=None,
        help="blocked kernel tier of the distance kernels (see docs/kernels.md)",
    )
    stream.add_argument("--seed", type=int, default=0, help="random seed")
    stream.add_argument(
        "--refit-equivalence",
        action="store_true",
        help="verify every update against a cold refit (slow; debugging aid)",
    )
    stream.add_argument(
        "--output", default=None, help="write the final window's labels CSV here"
    )
    stream.add_argument(
        "--save-model",
        default=None,
        metavar="PATH",
        help="snapshot the final window state as a servable .npz model",
    )
    stream.add_argument(
        "--json", default=None, metavar="PATH", help="write ingest statistics as JSON"
    )

    generate = subparsers.add_parser("generate", help="generate a benchmark dataset")
    generate.add_argument("dataset", choices=_DATASETS, help="dataset name")
    generate.add_argument(
        "--sampling-rate", type=float, default=1.0, help="fraction of the default size"
    )
    generate.add_argument("--seed", type=int, default=0, help="random seed")
    generate.add_argument("--output", required=True, help="output CSV or .npy path")

    subparsers.add_parser("info", help="list algorithms and datasets")
    return parser


def _run_cluster(args: argparse.Namespace) -> int:
    if args.delta_min is None and args.n_clusters is None:
        print(
            "error: provide --delta-min or --n-clusters (inspect the decision "
            "graph to choose a threshold)",
            file=sys.stderr,
        )
        return 2

    name = _CLI_ALGORITHMS[args.algorithm]
    if args.save_model:
        from repro.stream.snapshot import SNAPSHOT_ALGORITHMS

        if name not in SNAPSHOT_ALGORITHMS:
            # Fail before the (possibly expensive) fit, not after it.
            supported = sorted(
                cli for cli, paper in _CLI_ALGORITHMS.items()
                if paper in SNAPSHOT_ALGORITHMS
            )
            print(
                f"error: --save-model does not support {args.algorithm!r}; "
                f"snapshot-capable algorithms: {', '.join(supported)}",
                file=sys.stderr,
            )
            return 2

    points = load_points(args.input)
    kwargs = {
        "rho_min": args.rho_min,
        "delta_min": args.delta_min,
        "n_clusters": args.n_clusters,
        "n_jobs": args.n_jobs,
        "backend": args.backend,
        "seed": args.seed,
    }
    if name == "S-Approx-DPC":
        kwargs["epsilon"] = args.epsilon
    if args.engine is not None:
        if name in ENGINE_AWARE_ALGORITHMS:
            kwargs["engine"] = args.engine
        else:
            print(
                f"note: {args.algorithm} has no query-engine switch; "
                f"--engine {args.engine} ignored",
                file=sys.stderr,
            )
    if args.kernel is not None:
        if name in ENGINE_AWARE_ALGORITHMS:
            kwargs["kernel"] = args.kernel
        else:
            print(
                f"note: {args.algorithm} has no kernel-tier switch; "
                f"--kernel {args.kernel} ignored",
                file=sys.stderr,
            )
    model = ALGORITHM_BUILDERS[name](args.d_cut, **kwargs)
    result = model.fit(points)

    print(result.summary())
    if args.output:
        written = save_result(result, args.output)
        print(f"labels written to {written} (metadata: {written.with_suffix('.json')})")
    if args.save_model:
        written = save_model(model, args.save_model)
        print(f"model snapshot written to {written}")
    return 0


def _run_recluster(args: argparse.Namespace) -> int:
    if args.delta_min is None and args.n_clusters is None:
        print(
            "error: provide --delta-min or --n-clusters (inspect the decision "
            "graph to choose a threshold)",
            file=sys.stderr,
        )
        return 2

    model = load_model(args.model)
    if not getattr(model, "supports_recluster", False):
        print(
            f"error: {model.algorithm_name} snapshots cannot be re-clustered "
            "exactly (only Ex-DPC persists replayable profiles); refit with "
            "`repro cluster --algorithm ex-dpc` instead",
            file=sys.stderr,
        )
        return 2

    had_index = getattr(model, "_recluster_index_", None) is not None
    try:
        result = model.recluster(
            args.d_cut,
            rho_min=args.rho_min,
            delta_min=args.delta_min,
            n_clusters=args.n_clusters,
            d_cut_max=args.d_cut_max,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(result.summary())
    source = "restored from snapshot" if had_index else "built now"
    print(
        f"recluster index  : {source}, "
        f"{result.work_['profile_entries']:.0f} profile entries, "
        f"{result.work_['repaired_dependencies']:.0f} dependencies repaired, "
        f"{result.work_['joined_dependencies']:.0f} re-joined"
    )
    if args.output:
        written = save_result(result, args.output)
        print(f"labels written to {written} (metadata: {written.with_suffix('.json')})")
    if args.save_model:
        written = save_model(model, args.save_model)
        print(f"model snapshot written to {written} (recluster index included)")
    return 0


def _write_labels(labels: np.ndarray, path: str | Path) -> Path:
    """Write a bare label column as CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, np.asarray(labels, dtype=np.int64)[:, None],
               fmt="%d", header="label", comments="")
    return path


def _label_summary(labels: np.ndarray) -> str:
    labels = np.asarray(labels)
    n_noise = int(np.count_nonzero(labels < 0))
    values, counts = np.unique(labels[labels >= 0], return_counts=True)
    sizes = ", ".join(f"{int(v)}:{int(c)}" for v, c in zip(values, counts))
    return (
        f"points           : {labels.shape[0]}\n"
        f"clusters         : {values.size}\n"
        f"noise points     : {n_noise}\n"
        f"cluster sizes    : {sizes if sizes else '(none)'}"
    )


def _run_predict(args: argparse.Namespace) -> int:
    from repro.parallel.backends import resolve_backend
    from repro.parallel.executor import resolve_n_jobs

    model = load_model(args.model, mmap=args.mmap)
    model.n_jobs = resolve_n_jobs(args.n_jobs)
    if args.backend is not None:
        model.backend = resolve_backend(args.backend)
    points = load_points(args.input)
    labels = model.predict(points)
    print(f"algorithm        : {model.algorithm_name} (snapshot: {args.model})")
    print(_label_summary(labels))
    if args.output:
        written = _write_labels(labels, args.output)
        print(f"labels written to {written}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.serve import ModelRegistry, PredictClient, PredictServer, ReplicaFront

    specs: list[tuple[str, str]] = []
    for spec in args.model:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            print(f"error: --model expects NAME=PATH, got {spec!r}", file=sys.stderr)
            return 2
        specs.append((name, path))

    if args.replicas > 1:
        front = ReplicaFront(
            specs,
            replicas=args.replicas,
            host=args.host,
            port=args.port,
            window_seconds=args.window_ms / 1000.0,
            max_batch=args.max_batch,
            max_pending_batches=args.max_pending_batches,
            max_models=args.max_models,
            mmap=not args.no_mmap,
        )

        async def _serve_front() -> int:
            host, port = await front.start()
            names = ", ".join(name for name, _ in specs)
            print(
                f"serving {names} on {host}:{port} "
                f"({args.replicas} replicas on ports {front.replica_ports})",
                flush=True,
            )
            if args.health_check:
                report = await front.health(specs[0][0])
                print(json.dumps(report, sort_keys=True, indent=2), flush=True)
                await front.close()
                return 0 if report["healthy"] else 1
            try:
                await front.serve_forever()
            finally:
                await front.close()
            return 0

        try:
            return asyncio.run(_serve_front())
        except KeyboardInterrupt:
            print("shutting down")
            return 0

    registry = ModelRegistry(max_models=args.max_models, mmap=not args.no_mmap)
    for name, path in specs:
        try:
            registry.register(name, path)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    server = PredictServer(
        registry,
        host=args.host,
        port=args.port,
        window_seconds=args.window_ms / 1000.0,
        max_batch=args.max_batch,
        max_pending_batches=args.max_pending_batches,
    )

    async def _serve() -> int:
        host, port = await server.start()
        print(f"serving {', '.join(registry.names())} on {host}:{port}", flush=True)
        if args.health_check:
            client = await PredictClient.connect(host, port)
            report = await client.health(specs[0][0])
            report.pop("id", None)
            print(json.dumps(report, sort_keys=True, indent=2), flush=True)
            await client.close()
            await server.close()
            return 0 if report.get("healthy") else 1
        await server.serve_forever()
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _run_stream(args: argparse.Namespace) -> int:
    from repro.stream import StreamingDPC

    if args.delta_min is None and args.n_clusters is None:
        print(
            "error: provide --delta-min or --n-clusters (inspect the decision "
            "graph to choose a threshold)",
            file=sys.stderr,
        )
        return 2
    if args.batch <= 0 or args.window < 2:
        print("error: --batch must be positive and --window at least 2", file=sys.stderr)
        return 2

    points = load_points(args.input)
    model = StreamingDPC(
        args.d_cut,
        window_size=args.window,
        rho_min=args.rho_min,
        delta_min=args.delta_min,
        n_clusters=args.n_clusters,
        seed=args.seed,
        refit_equivalence=args.refit_equivalence,
        engine=args.engine,
        kernel=args.kernel,
    )
    warmup = min(points.shape[0], args.window)
    model.fit(points[:warmup])
    print(
        f"warmup fit       : {warmup} points, "
        f"{model.centers_.shape[0]} clusters"
    )
    for start in range(warmup, points.shape[0], args.batch):
        batch = points[start : start + args.batch]
        model.update(batch)
        n_noise = int(np.count_nonzero(model.labels_ < 0))
        print(
            f"ingested {start + batch.shape[0]:>8d} / {points.shape[0]}: "
            f"window={model.n_points}, clusters={model.centers_.shape[0]}, "
            f"noise={n_noise}, rebuilds={model.stats_['rebuilds']}"
        )
    print(_label_summary(model.labels_))
    if args.output:
        written = _write_labels(model.labels_, args.output)
        print(f"labels written to {written}")
    if args.save_model:
        written = save_model(model.to_estimator(), args.save_model)
        print(f"model snapshot written to {written}")
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(model.stats_, indent=2, sort_keys=True))
        print(f"statistics written to {path}")
    return 0


def _run_generate(args: argparse.Namespace) -> int:
    workload = load_workload(args.dataset, sampling_rate=args.sampling_rate, seed=args.seed)
    try:
        path = save_points(workload.points, args.output)
    except ValueError as exc:  # unknown extension: report per CLI convention
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"wrote {workload.n_points} x {workload.dim} points to {path} "
        f"(suggested d_cut: {workload.d_cut:g}, clusters: {workload.n_clusters})"
    )
    return 0


def _run_info() -> int:
    print("algorithms:")
    for cli_name, paper_name in sorted(_CLI_ALGORITHMS.items()):
        print(f"  {cli_name:14s} {paper_name}")
    print("\ndatasets (via `repro generate`):")
    for dataset in _DATASETS:
        workload = load_workload(dataset, sampling_rate=0.05)
        print(
            f"  {dataset:10s} d={workload.dim}, default d_cut={workload.d_cut:g}, "
            f"default clusters={workload.n_clusters}"
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro.cli``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "cluster":
        return _run_cluster(args)
    if args.command == "recluster":
        return _run_recluster(args)
    if args.command == "predict":
        return _run_predict(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "stream":
        return _run_stream(args)
    if args.command == "generate":
        return _run_generate(args)
    return _run_info()


if __name__ == "__main__":
    raise SystemExit(main())
