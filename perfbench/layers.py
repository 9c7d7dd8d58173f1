"""Per-layer metrics computed from the traced pass's spans.

Layers are named after the library's modules.  Times are seconds per
traced operation (one fit, one index build, one stop) unless the name says
otherwise; counts are per traced operation too.  Every function writes into
``ctx.layers``; names a workload does not touch are filled with 0 by the
runner (the layer did no work there).
"""

from __future__ import annotations

import bisect
import statistics
import sys

import numpy as np

from tracer import SpanSet


def _within(spans, windows):
    return [s for s in spans if any(w0 <= s[1] and s[2] <= w1 for w0, w1 in windows)]


def _windows(spanset: SpanSet, name: str):
    return [(s[1], s[2]) for s in spanset.select(name=name)]


def _layer_total(spanset: SpanSet, name: str, windows, pid=None) -> float:
    return spanset.total(spanset.outermost(_within(spanset.select(name=name, pid=pid), windows)))


def fit_layers(ctx, prefixes) -> None:
    """``<fit>.<layer>`` times and work counters inside each fit span."""
    spans = ctx.spanset()
    names = {
        "kdtree.build_s": "kdtree.build",
        "kdtree.range_s": "kdtree.range",
        "dependency_join.s": "dependency_join",
        "assignment.s": "assignment",
        "grid.s": "grid",
        "sample_grid.s": "sample_grid",
    }
    for prefix in prefixes:
        windows = _windows(spans, f"{prefix}.fit")
        n = max(1, len(windows))
        for metric, span_name in names.items():
            ctx.layers[f"{prefix}.{metric}"] = _layer_total(spans, span_name, windows) / n
        results = ctx.results.get(prefix, [])
        if results:
            ctx.layers[f"{prefix}.density_calcs"] = float(
                np.mean([r.work_["density_distance_calcs"] for r in results])
            )
            ctx.layers[f"{prefix}.dependency_calcs"] = float(
                np.mean([r.work_["dependency_distance_calcs"] for r in results])
            )
            ctx.layers[f"{prefix}.exact_ratio"] = float(
                np.mean([np.mean(r.exact_dependency_mask_) for r in results])
            )


def workload_layers(ctx) -> None:
    """Kernel and executor totals over the whole traced pass."""
    spans = ctx.spanset()
    kernel = spans.select(name="kernels")
    roots = [s for s in kernel if (spans.parent(s) or ("",))[0] != "kernels"]
    slots = sum(s[7].get("slots", 0) for s in roots)
    pairs = sum(s[7].get("pairs", 0) for s in roots)
    ctx.layers["kernels.calls"] = float(len(roots))
    ctx.layers["kernels.s"] = spans.total(roots)
    ctx.layers["kernels.pair_slots"] = float(slots)
    ctx.layers["kernels.fill_ratio"] = pairs / slots if slots else 0.0
    executor = spans.outermost(spans.select(name="executor"))
    ctx.layers["executor.tasks"] = float(sum(s[7].get("tasks", 0) for s in executor))
    ctx.layers["executor.overhead_s"] = spans.self_time(executor)


def shard_layers(ctx) -> None:
    """Partition, halo, manifest and pipeline metrics of the sharded fit."""
    spans = ctx.spanset()
    windows = _windows(spans, "shard.fit")
    n = max(1, len(windows))
    for metric, span_name in {
        "partition.plan_s": "partition.plan",
        "partition.slab_s": "partition.slab",
        "kdtree.build_s": "kdtree.build",
        "kdtree.range_s": "kdtree.range",
        "kdtree.nn_dual_s": "kdtree.nn_dual",
        "dependency_join.s": "dependency_join",
        "manifest.spill_s": "manifest.spill",
        "manifest.reload_s": "manifest.reload",
    }.items():
        ctx.layers[metric] = _layer_total(spans, span_name, windows) / n
    spills = _within(spans.select(name="manifest.spill"), windows)
    ctx.layers["manifest.spill_bytes"] = sum(s[7].get("bytes", 0) for s in spills) / n

    # Overlap: stage time on the pipeline's worker threads over fit wall time.
    main = {s[5] for s in spans.select(name="shard.fit")}
    busy = sum(
        s[2] - s[1]
        for s in _within(spans.spans, windows)
        if s[3] == 0 and s[5] not in main
    )
    wall = sum(w1 - w0 for w0, w1 in windows)
    ctx.layers["pipeline.overlap"] = busy / wall if wall else 0.0
    stats = ctx.shard_stats
    if stats:
        report = stats[-1].get("pipeline") or {}
        ctx.layers["pipeline.stages"] = float(report.get("n_stages", 0))
        ctx.layers["pipeline.spilled_shards"] = float(len(report.get("spilled", [])))
        ctx.layers["pipeline.accounted_peak_mb"] = stats[-1]["peak_rss_bytes"] / 2**20
        ctx.layers["halo.points"] = float(stats[-1]["halo_exported_points"])
        ctx.layers["halo.credits"] = float(stats[-1]["halo_credits"])


def _p(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def serve_layers(ctx, phases, child_spans) -> None:
    """Coalescer, predict, codec and hop metrics per traffic phase."""
    child_pid = child_spans[0][6] if child_spans else -1
    spans = ctx.spanset(extra=child_spans)
    for phase, outcome in phases.items():
        window = [outcome["window"]]
        before, after = outcome["before"], outcome["after"]
        batches = after["batches"] - before.get("batches", 0)
        requests = after["requests"] - before.get("requests", 0)
        pre = f"{phase}."
        ctx.layers[pre + "coalesce.batches"] = float(batches)
        ctx.layers[pre + "coalesce.requests_per_batch"] = requests / batches if batches else 0.0
        ctx.layers[pre + "coalesce.backpressure_waits"] = float(
            after["backpressure_waits"] - before.get("backpressure_waits", 0)
        )
        calls = sorted(
            _within(spans.select(name="predict", pid=child_pid), window),
            key=lambda s: s[2],
        )
        ends = [s[2] for s in calls]
        waits = []
        for request in _within(spans.select(name="coalesce.request", pid=child_pid), window):
            k = bisect.bisect_right(ends, request[2]) - 1
            if k >= 0 and calls[k][1] >= request[1]:
                waits.append((request[2] - request[1]) - (calls[k][2] - calls[k][1]))
        ctx.layers[pre + "coalesce.wait_ms"] = _p(waits, 50) * 1000.0
        ctx.layers[pre + "predict.points_per_call"] = (
            float(np.mean([s[7].get("points", 0) for s in calls])) if calls else 0.0
        )
        ctx.layers[pre + "predict.density_s"] = _layer_total(
            spans, "kdtree.range", window, pid=child_pid
        )
        attach = spans.outermost(
            _within(spans.select(name="predict.attach", pid=child_pid), window)
        )
        ctx.layers[pre + "predict.attach_s"] = spans.total(attach)
        ctx.layers[pre + "predict.attach_stalls"] = float(
            sum(1 for s in attach if s[2] - s[1] > 1.0)
        )
        codec = _within(spans.select(name="server.codec", pid=child_pid), window)
        served = max(1, len(outcome["latency"]))
        ctx.layers[pre + "server.codec_ms"] = spans.total(codec) / served * 1000.0
        opened, closed = {}, {}
        for s in codec:
            rid = s[7].get("rid")
            if rid is None:
                continue
            opened.setdefault(rid, s[1])
            closed[rid] = s[2]
        server_side = [closed[r] - opened[r] for r in opened if r in closed]
        rtts = list(outcome["rtt"].values())
        ctx.layers[pre + "serve.hop_ms"] = (
            (statistics.median(rtts) - statistics.median(server_side)) * 1000.0
            if rtts and server_side
            else 0.0
        )
        latency = list(outcome["latency"].values())
        ctx.layers[pre + "samples"] = float(len(latency))
        if phase == "load":
            ctx.layers["load.p50_ms"] = _p(latency, 50) * 1000.0
            ctx.layers["load.p99_ms"] = _p(latency, 99) * 1000.0
            ctx.layers["loadgen.late_p99_ms"] = _p(outcome["late"], 99) * 1000.0
        else:
            w0, w1 = outcome["window"]
            ctx.layers["burst.rps"] = len(latency) / (w1 - w0)
    saves = spans.select(name="snapshot.save")
    loads = spans.select(name="registry.load", pid=child_pid)
    ctx.layers["snapshot.save_s"] = spans.total(saves) / max(1, len(saves))
    ctx.layers["registry.load_s"] = spans.total(loads) / max(1, len(loads))


def explore_layers(ctx) -> None:
    """Recluster index build and per-stop metrics."""
    spans = ctx.spanset()
    ready = _windows(spans, "explore.ready")
    stops = _windows(spans, "explore.stop")
    n_ready, n_stops = max(1, len(ready)), max(1, len(stops))
    fits = spans.select(name="exdpc.fit")
    ctx.layers["exdpc.fit_s"] = spans.total(fits) / max(1, len(fits))
    ctx.layers["recluster.build_s"] = _layer_total(spans, "recluster.build", ready) / n_ready
    ctx.layers["kdtree.profile_s"] = _layer_total(spans, "kdtree.profile", ready) / n_ready
    ctx.layers["kdtree.knn_s"] = _layer_total(spans, "kdtree.knn", ready) / n_ready
    ctx.layers["recluster.density_s"] = (
        _layer_total(spans, "recluster.density", stops) / n_stops
    )
    ctx.layers["stop.dependency_join_s"] = (
        _layer_total(spans, "dependency_join", stops) / n_stops
    )
    if ctx.indexes:
        entries, nbytes = ctx.indexes[-1]
        ctx.layers["recluster.profile_entries"] = float(entries)
        ctx.layers["recluster.index_mb"] = nbytes / 2**20


def span_buffer_mb(spans) -> float:
    """Memory the span buffer holds (the tracer's own footprint)."""
    total = sys.getsizeof(spans)
    for span in spans:
        total += sys.getsizeof(span) + sys.getsizeof(span[7])
        total += sum(sys.getsizeof(v) for v in span[:7])
    return total / 2**20
