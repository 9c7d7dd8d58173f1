"""The four benchmark workloads.

Each workload is a function ``run(ctx)`` that generates its inputs from
``ctx.seed``, sets up (several times, reporting the median), runs its timed
schedule, checks every output and fills ``ctx.metrics`` (end to end) and
``ctx.layers`` (per layer, traced pass only).  Library defaults are used
everywhere; only the data and load parameters below are fixed.

End-to-end metrics, the same four on every workload (see README.md):

``setup_s``      median set-up time
``peak_rss_mb``  peak resident memory (the server child for serve)
``build_s``      median warm time to build the workload's model
``op_p50_ms``    median latency of the workload's operation on that model
"""

from __future__ import annotations

import asyncio
import os
import resource
import signal
import statistics
import time

import numpy as np

from repro.core import ApproxDPC, ExDPC, SApproxDPC
from repro.data.real_like import generate_real_like
from repro.data.synthetic import generate_syn
from repro.metrics import rand_index
from repro.shard import (
    ShardedDPC,
    load_sharded,
    minimum_budget_bytes,
    plan_shards,
    save_sharded,
)
import repro.stream.snapshot as snapshot

import layers
from verify import fit_digest, unpack_labels

#: Paper's Syn parameters (2-D, 13 peaks) used by the Syn workloads.
SYN_D_CUT = 2000.0
SYN_RHO_MIN = 5.0
SYN_CLUSTERS = 13
#: Household stand-in (4-D, 30 modes, 5% background) parameters.
HOUSEHOLD_D_CUT = 3000.0
HOUSEHOLD_CLUSTERS = 15

CLUSTER_N = 50_000
SHARD_N = 40_000
SERVE_N = 60_000
SERVE_TRAIN = 50_000
EXPLORE_N = 15_000
SAMPLE_N = 10_000
WARMUP_N = 4_000
#: Every dataset is a seeded sample of one fixed draw (see `syn_points`).
DATA_SEED = 0
POOL_FACTOR = 1.2
POINTS_PER_REQUEST = 8
LOAD_RATE = 20.0
BURST_OUTSTANDING = 32
BURST_REQUESTS = 125
PROBE_REQUESTS = 50
REPLY_TIMEOUT_S = 60.0
REOPENS = 10
TOUR_STOPS = 12
TOUR_DCUT_MOVES = 8
TOUR_PASSES = 2


def _sample(pool: np.ndarray, n: int, seed: int) -> np.ndarray:
    """A seeded ``n``-row sample (in seeded order) of a fixed draw."""
    rows = np.random.default_rng([seed, 0]).choice(pool.shape[0], n, replace=False)
    return pool[rows]


def syn_points(n: int, seed: int) -> np.ndarray:
    """``n`` points of one fixed Syn draw (13 peaks), chosen by ``seed``.

    The draw's geometry is fixed (generator seed ``DATA_SEED``) and ``seed``
    picks which ``n`` of ``POOL_FACTOR * n`` points the program sees: a new
    seed gives new inputs without moving the peaks, so run-to-run spread
    measures the program rather than the layout of a random landscape.
    """
    pool = generate_syn(n_points=int(n * POOL_FACTOR), n_peaks=13, seed=DATA_SEED)[0]
    return _sample(pool, n, seed)


def household_points(n: int, seed: int) -> np.ndarray:
    """``n`` points of one fixed Household stand-in draw, chosen by ``seed``."""
    pool = generate_real_like("household", n_points=int(n * POOL_FACTOR), seed=DATA_SEED)[0]
    return _sample(pool, n, seed)


def exdpc(**kwargs) -> ExDPC:
    return ExDPC(d_cut=SYN_D_CUT, rho_min=SYN_RHO_MIN, n_clusters=SYN_CLUSTERS, **kwargs)


def approx() -> ApproxDPC:
    return ApproxDPC(d_cut=SYN_D_CUT, rho_min=SYN_RHO_MIN, n_clusters=SYN_CLUSTERS)


def sapprox() -> SApproxDPC:
    # epsilon=0.8 as repro.bench.runners builds S-Approx-DPC.
    return SApproxDPC(
        d_cut=SYN_D_CUT, rho_min=SYN_RHO_MIN, n_clusters=SYN_CLUSTERS, epsilon=0.8
    )


def median(values) -> float:
    return float(statistics.median(values))


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ================================================================ cluster


def run_cluster(ctx) -> None:
    """Warm Ex-DPC / Approx-DPC / S-Approx-DPC fits on Syn at n=50,000.

    ``build_s`` is the Ex-DPC fit; ``op_p50_ms`` an Ex-DPC fit of a
    10,000-point sample of the same data (an interactive-size exact
    clustering).  The approximate fits run in the traced pass only: their
    times swing with this host's memory contention by more than an
    end-to-end bound may allow, so they are per-layer metrics.
    """

    def setup():
        points = syn_points(CLUSTER_N, ctx.seed)
        warm = points[:WARMUP_N]
        for make in (exdpc, approx, sapprox):
            make().fit(warm)
        return points

    points = ctx.setup(setup)
    sample = points[:SAMPLE_N]
    ctx.describe(dataset="syn", n=CLUSTER_N, d=2, d_cut=SYN_D_CUT, sample_n=SAMPLE_N)

    ex_times, sample_times, fits = [], [], {"exdpc": [], "approx": [], "sapprox": []}
    labels, observed, sampled = {}, [], []

    def exact_fit(step):
        traced = ctx.trace_step("exdpc")
        with ctx.span("exdpc.fit", traced=traced) as span:
            result = exdpc().fit(points)
        ex_times.append((span.seconds, traced))
        fits["exdpc"].append((span.seconds, traced))
        observed.append((f"exdpc fit {step}", fit_digest(result)))
        labels.setdefault("exdpc", result.labels_)
        ctx.note_result("exdpc", result, traced)

    def sample_fit(step):
        traced = ctx.trace_step("sample")
        with ctx.span("sample.fit", traced=traced) as span:
            result = exdpc().fit(sample)
        sample_times.append((span.seconds, traced))
        sampled.append((f"sample fit {step}", fit_digest(result)))

    def approximate_fits(step):
        traced = ctx.trace_step("pair")
        for name, make in (("approx", approx), ("sapprox", sapprox)):
            with ctx.span(f"{name}.fit", traced=traced) as span:
                result = make().fit(points)
            fits[name].append((span.seconds, traced))
            first = labels.setdefault(name, result.labels_)
            ctx.attempt(np.array_equal(first, result.labels_), f"{name} fit {step}")
            ctx.note_result(name, result, traced)

    # Exact fits spread over the run, sample fits in between.
    schedule = [exact_fit] + [sample_fit] * 4 + [exact_fit] + [sample_fit] * 4
    if ctx.trace:
        schedule += [approximate_fits] * 3
    for step, run_step in enumerate(schedule):
        run_step(step)
    while ctx.more():
        step += 1
        sample_fit(step)

    ctx.timed("build_s", ex_times)
    ctx.timed("op_p50_ms", sample_times, scale=1000.0)
    ctx.metrics["peak_rss_mb"] = maxrss_mb()
    reference = ctx.digests.get("cluster-syn2d", ctx.seed)
    if reference is None:
        reference = cluster_reference(points)
    for what, digest in observed:
        ctx.attempt(digest == reference, what)
    sample_reference = cluster_reference(sample)
    for what, digest in sampled:
        ctx.attempt(digest == sample_reference, what)
    if ctx.trace:
        for name in ("approx", "sapprox"):
            ctx.layers[f"{name}.rand_index"] = rand_index(labels["exdpc"], labels[name])
        for name, values in fits.items():
            traced_times = [t for t, on in values if on]
            ctx.layers[f"{name}.fit_s"] = median(traced_times)
        layers.fit_layers(ctx, ("exdpc", "approx", "sapprox"))
        layers.workload_layers(ctx)


def cluster_reference(points) -> dict:
    """Digests of the exact fit on the dual engine (an independent code path
    the library keeps bit-identical to the default engine)."""
    return fit_digest(exdpc(engine="dual").fit(points))


# ================================================================== shard


def run_shard(ctx) -> None:
    """Budgeted, pipelined ``ShardedDPC`` on a 4-D Household stand-in.

    The input is a ``.npy`` path (streaming planner + mmap), ``n_shards=4``
    and ``pipeline_workers=2`` under twice ``minimum_budget_bytes``, so two
    shards are resident at once and every shard spills.  ``build_s`` is the
    sharded fit; ``op_p50_ms`` reopens the fitted model's shard manifest
    memory-mapped (what a server does to load it).
    """
    work = ctx.workdir("shard")

    def setup():
        points = household_points(SHARD_N, ctx.seed)
        path = os.path.join(work, "household.npy")
        np.save(path, points)
        plan = plan_shards(points, 4)
        budget = 2 * minimum_budget_bytes(plan.shard_sizes, 4, "float64", 32)
        warm_path = os.path.join(work, "warm.npy")
        warm = points[:WARMUP_N]
        np.save(warm_path, warm)
        warm_plan = plan_shards(warm, 4)
        sharded(2 * minimum_budget_bytes(warm_plan.shard_sizes, 4, "float64", 32)).fit(
            warm_path
        )
        return path, budget

    def sharded(budget):
        return ShardedDPC(
            HOUSEHOLD_D_CUT,
            n_clusters=HOUSEHOLD_CLUSTERS,
            n_shards=4,
            pipeline_workers=2,
            memory_budget_bytes=budget,
            spool_dir=ctx.workdir("spool"),
        )

    path, budget = ctx.setup(setup)
    ctx.describe(dataset="household", n=SHARD_N, d=4, d_cut=HOUSEHOLD_D_CUT)

    fit_times, op_times, observed = [], [], []
    step = 0
    while step < 3 or ctx.more():
        traced = ctx.trace_step("shard")
        model = sharded(budget)
        with ctx.span("shard.fit", traced=traced) as span:
            result = model.fit(path)
        fit_times.append((span.seconds, traced))
        observed.append((f"shard fit {step}", fit_digest(result)))
        ctx.note_shard(model, traced)
        manifest = os.path.join(work, f"manifest-{step}")
        save_sharded(model, manifest)
        for trip in range(REOPENS):
            start = time.perf_counter()
            restored = load_sharded(manifest, mmap=True)
            op_times.append((time.perf_counter() - start, traced))
            ctx.attempt(
                np.array_equal(restored.result_.labels_, result.labels_),
                f"manifest reopen {step}.{trip}",
            )
            del restored
        del model, result
        step += 1

    ctx.timed("build_s", fit_times)
    ctx.timed("op_p50_ms", op_times, scale=1000.0)
    ctx.metrics["peak_rss_mb"] = maxrss_mb()
    reference = ctx.digests.get("shard-household4d", ctx.seed)
    if reference is None:
        reference = shard_reference(np.load(path))
    for what, digest in observed:
        ctx.attempt(digest == reference, what)
    if ctx.trace:
        layers.shard_layers(ctx)
        layers.workload_layers(ctx)


def shard_reference(points) -> dict:
    """Digests of the exact single-tree Ex-DPC fit the shard fit must equal.

    The reference runs on the dual engine: an independent code path that the
    library keeps bit-identical to every other engine (and it is the fastest).
    """
    return fit_digest(
        ExDPC(HOUSEHOLD_D_CUT, n_clusters=HOUSEHOLD_CLUSTERS, engine="dual").fit(points)
    )


# ================================================================== serve


def _server_main(conn, tracer) -> None:
    """Server child: wait for a snapshot path, serve it until SIGTERM."""
    from repro.serve import ModelRegistry, PredictServer

    message = conn.recv()
    if message is None:
        conn.close()
        return
    # The CLI's `repro serve` defaults: mmap'd snapshots, 2 ms window,
    # 256-request batches, one batch in flight, four resident models.
    registry = ModelRegistry(max_models=4, mmap=True)
    registry.register("syn", message)
    server = PredictServer(
        registry, window_seconds=0.002, max_batch=256, max_pending_batches=1
    )

    async def serve() -> None:
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
        _, port = await server.start()
        conn.send(port)
        await stop.wait()
        await server.close()

    asyncio.run(serve())
    conn.send(
        {
            "maxrss_mb": maxrss_mb(),
            "spans": tracer.spans if tracer is not None else [],
        }
    )
    conn.close()


class ServerChild:
    """One forked ``PredictServer`` process (forked right after imports)."""

    def __init__(self, ctx):
        import multiprocessing

        parent, child = multiprocessing.Pipe()
        self.conn = parent
        self.process = multiprocessing.get_context("fork").Process(
            target=_server_main, args=(child, ctx.tracer), daemon=True
        )
        self.process.start()
        child.close()
        self.port = None
        self.report = None

    def start(self, snapshot: str) -> int:
        self.conn.send(snapshot)
        if not self.conn.poll(60):
            raise RuntimeError("server child did not report its port")
        self.port = self.conn.recv()
        return self.port

    def stop(self) -> dict | None:
        if self.process.is_alive():
            if self.port is None:
                self.conn.send(None)
            else:
                os.kill(self.process.pid, signal.SIGTERM)
                if self.conn.poll(60):
                    self.report = self.conn.recv()
        self.process.join(30)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(30)
        self.conn.close()
        return self.report


def serve_data():
    """The served deployment: one fixed Syn draw and train/query split.

    Every run serves the same model (and so meets the same slow queries);
    ``--seed`` shapes the traffic.
    """
    points = generate_syn(n_points=SERVE_N, n_peaks=13, seed=DATA_SEED)[0]
    order = np.random.default_rng(DATA_SEED).permutation(SERVE_N)
    return points[order[:SERVE_TRAIN]], points[order[SERVE_TRAIN:]]


async def _connect(port: int, first_id: int):
    from repro.serve import PredictClient

    client = await PredictClient.connect("127.0.0.1", port)
    # Distinct id ranges per connection let server-side spans (which see
    # only the request id) be matched to client requests.
    client._next_id = first_id
    return client


async def _send(client, points, outcome, index, due):
    """One predict request; records latency from ``due`` or a failure."""
    sent = time.perf_counter()
    try:
        labels = await asyncio.wait_for(
            client.predict("syn", points), timeout=REPLY_TIMEOUT_S
        )
    except (asyncio.TimeoutError, ConnectionError, RuntimeError) as error:
        outcome["errors"].append(f"request {index}: {type(error).__name__}: {error}")
        return
    done = time.perf_counter()
    outcome["latency"][index] = done - due
    outcome["rtt"][index] = done - sent
    outcome["labels"][index] = labels


async def _load_phase(clients, requests, order, ctx, outcome):
    """Open loop at ``LOAD_RATE`` req/s alternating the two connections."""
    tasks = []
    start = time.perf_counter() + 0.05
    for step, index in enumerate(order):
        due = start + step / LOAD_RATE
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        outcome["late"].append(time.perf_counter() - due)
        client = clients[step % 2]
        tasks.append(
            asyncio.create_task(_send(client, requests[index], outcome, index, due))
        )
    await asyncio.gather(*tasks)


async def _probe_phase(clients, requests, order, ctx, outcome):
    """Traced pass only: each request sent untraced, then traced (overhead)."""
    for index in order:
        for traced in (0, 1):
            ctx.tracer.enabled.value = traced
            await _send(
                clients[0], requests[index], outcome, (index, traced), time.perf_counter()
            )


async def _burst_phase(clients, requests, order, ctx, outcome):
    """Closed loop, ``BURST_OUTSTANDING`` requests in flight per connection."""
    queue = list(order)[::-1]

    async def worker(client):
        while queue:
            index = queue.pop()
            await _send(client, requests[index], outcome, index, time.perf_counter())

    workers = [
        worker(client) for client in clients for _ in range(BURST_OUTSTANDING)
    ]
    await asyncio.gather(*workers)


def _new_outcome():
    return {
        "latency": {},
        "rtt": {},
        "labels": {},
        "errors": [],
        "late": [],
    }


def run_serve(ctx, children) -> None:
    """Serve a saved Approx-DPC snapshot from a forked ``PredictServer``.

    Set-up fits the model and saves the snapshot; ``build_s`` is the time
    from handing the snapshot to the server until it answers a warm health
    probe (register, mmap load, bind); ``op_p50_ms`` the median latency of
    the open-loop load phase, timed from each request's due time.
    """
    train, queries = serve_data()
    requests = [
        queries[i : i + POINTS_PER_REQUEST]
        for i in range(0, len(queries), POINTS_PER_REQUEST)
    ]
    work = ctx.workdir("serve")
    ready_times = []
    state = {}

    def setup():
        traced = bool(ctx.tracer is not None and ctx.tracer.enabled.value)
        child = children.pop(0)
        with ctx.span("approx.fit", traced=traced):
            model = approx()
            model.fit(train)
        path = os.path.join(work, f"syn-{len(ready_times)}.npz")
        snapshot.save_model(model, path)

        async def warm():
            client = await _connect(port, 0)
            await client.health("syn")
            await client.close()

        start = time.perf_counter()
        port = child.start(path)
        asyncio.run(warm())
        ready_times.append((time.perf_counter() - start, traced))
        if "child" in state:
            state["child"].stop()
        state.update(child=child, port=port, model=model)
        return None

    ctx.setup(setup)
    ctx.describe(dataset="syn", n=SERVE_TRAIN, d=2, d_cut=SYN_D_CUT)
    expected = ctx.digests.get("serve-syn2d", "labels")
    if expected is None:
        expected = state["model"].predict(queries)
    else:
        expected = unpack_labels(expected)
    answers = [
        expected[i : i + POINTS_PER_REQUEST]
        for i in range(0, len(queries), POINTS_PER_REQUEST)
    ]
    train_labels = state.pop("model").result_.labels_

    rng = np.random.default_rng([ctx.seed, 1])
    load_order = rng.permutation(len(requests))
    schedule = [("load", requests, answers, load_order, _load_phase)]
    if ctx.trace:
        # Burst feeds only per-layer metrics, so only the traced pass runs it.
        burst_order = rng.permutation(len(requests))[:BURST_REQUESTS]
        # Probe requests are training points, which resolve to themselves, so
        # the overhead probe never meets an attachment stall.
        rows = rng.choice(SERVE_TRAIN, (PROBE_REQUESTS, POINTS_PER_REQUEST), replace=False)
        schedule += [
            ("burst", requests, answers, burst_order, _burst_phase),
            (
                "probe",
                [train[r] for r in rows],
                [train_labels[r] for r in rows],
                range(PROBE_REQUESTS),
                _probe_phase,
            ),
        ]
    phases = {}

    async def traffic():
        clients = [await _connect(state["port"], 0), await _connect(state["port"], 10**7)]
        try:
            for name, phase_requests, _, order, body in schedule:
                outcome = _new_outcome()
                if ctx.trace:
                    ctx.tracer.enabled.value = 1
                before = (await clients[0].stats())["models"].get("syn", {})
                start = time.perf_counter()
                await body(clients, phase_requests, order, ctx, outcome)
                end = time.perf_counter()
                after = (await clients[0].stats())["models"]["syn"]
                outcome.update(window=(start, end), before=before, after=after)
                phases[name] = outcome
        finally:
            for client in clients:
                await client.close()

    asyncio.run(traffic())
    report = state["child"].stop() or {}

    for name, _, phase_answers, order, _ in schedule:
        outcome = phases[name]
        if name == "probe":
            keys = [(i, traced) for i in order for traced in (0, 1)]
        else:
            keys = list(order)
            # Raw latencies (request index, seconds from due time) for analysis.
            np.save(
                ctx.result_path(f"{name}-latency.npy"),
                np.array(sorted(outcome["latency"].items()), dtype=np.float64),
            )
        for key in keys:
            got = outcome["labels"].get(key)
            index = key[0] if name == "probe" else key
            ok = got is not None and np.array_equal(got, phase_answers[index])
            ctx.attempt(ok, f"{name} request {key}")
        for error in outcome["errors"][:5]:
            ctx.log(error)

    latency = list(phases["load"]["latency"].values())
    ctx.timed("build_s", ready_times)
    ctx.metrics["op_p50_ms"] = median(latency) * 1000.0
    ctx.repeats["op_p50_ms"] = {
        "n": len(latency),
        "min": min(latency) * 1000.0,
        "median": ctx.metrics["op_p50_ms"],
        "p99": float(np.percentile(latency, 99)) * 1000.0,
    }
    ctx.metrics["peak_rss_mb"] = float(report.get("maxrss_mb", 0.0))
    if ctx.trace:
        probe = phases.pop("probe")["latency"]
        untraced = [t for (_, traced), t in probe.items() if not traced]
        traced = [t for (_, on), t in probe.items() if on]
        ctx.overhead["op_p50_ms"] = (median(traced) - median(untraced)) * 1000.0
        layers.serve_layers(ctx, phases, report.get("spans", []))
        layers.workload_layers(ctx)


# ================================================================ explore


def tour(seed: int):
    """A fixed seeded tour of recluster stops.

    ``TOUR_DCUT_MOVES`` stops move ``d_cut`` within [0.6, 2] x the fitted
    value; the rest keep the previous ``d_cut`` and change only ``rho_min``
    and ``n_clusters``.
    """
    rng = np.random.default_rng([seed, 2])
    kinds = np.array([1] * TOUR_DCUT_MOVES + [0] * (TOUR_STOPS - TOUR_DCUT_MOVES))
    rng.shuffle(kinds)
    kinds[0] = 1
    stops, d_cut = [], SYN_D_CUT
    for moves_d_cut in kinds:
        if moves_d_cut:
            d_cut = float(SYN_D_CUT * rng.uniform(0.6, 2.0))
        rho_min = float(rng.choice([3.0, 5.0, 8.0, 12.0]))
        n_clusters = int(rng.integers(8, 17))
        stops.append((d_cut, rho_min, n_clusters))
    return stops


def cold_stop_digest(points, stop) -> str:
    d_cut, rho_min, n_clusters = stop
    result = ExDPC(
        d_cut=d_cut, rho_min=rho_min, n_clusters=n_clusters, engine="dual"
    ).fit(points)
    return fit_digest(result)["labels"]


def run_explore(ctx) -> None:
    """Fit Ex-DPC on Syn at n=15,000, build the recluster index, tour stops.

    ``build_s`` is fit + index build (index ready); ``op_p50_ms`` the median
    recluster stop.
    """

    def setup():
        points = syn_points(EXPLORE_N, ctx.seed)
        warm = exdpc()
        warm.fit(points[:WARMUP_N // 2])
        warm.recluster(SYN_D_CUT * 1.5, rho_min=SYN_RHO_MIN, n_clusters=SYN_CLUSTERS)
        return points

    points = ctx.setup(setup)
    ctx.describe(dataset="syn", n=EXPLORE_N, d=2, d_cut=SYN_D_CUT)
    stops = tour(ctx.seed)

    ready_times, stop_times, observed = [], [], []

    def tour_pass(model):
        for number, (d_cut, rho_min, n_clusters) in enumerate(stops):
            traced = ctx.trace_step("stop")
            with ctx.span("explore.stop", traced=traced) as span:
                result = model.recluster(d_cut, rho_min=rho_min, n_clusters=n_clusters)
            stop_times.append((span.seconds, traced))
            observed.append((number, fit_digest(result)["labels"]))

    for step in range(2):
        traced = ctx.trace_step("explore")
        # Release the previous model and index before building the next.
        model = index = None
        model = exdpc()
        with ctx.span("explore.ready", traced=traced) as span:
            with ctx.span("exdpc.fit", traced=traced):
                model.fit(points)
            index = model.recluster_index()
        ready_times.append((span.seconds, traced))
        ctx.note_index(index, traced)
        # Stops follow each build, so they sample the whole run's time.
        for _ in range(TOUR_PASSES):
            tour_pass(model)
    while ctx.more():
        tour_pass(model)

    ctx.timed("build_s", ready_times)
    ctx.timed("op_p50_ms", stop_times, scale=1000.0)
    ctx.metrics["peak_rss_mb"] = maxrss_mb()
    del model, index
    expected = ctx.digests.get("explore-syn2d", ctx.seed)
    if expected is None:
        expected = [cold_stop_digest(points, stop) for stop in stops]
    for number, digest in observed:
        ctx.attempt(digest == expected[number], f"stop {number}")
    if ctx.trace:
        layers.explore_layers(ctx)
        layers.workload_layers(ctx)


WORKLOADS = {
    "cluster-syn2d": run_cluster,
    "shard-household4d": run_shard,
    "serve-syn2d": run_serve,
    "explore-syn2d": run_explore,
}
