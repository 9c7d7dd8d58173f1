"""Outside-in benchmark of the density-peaks library.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cluster-syn2d --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` is the separate traced pass: it wraps the public callables of
every layer, alternates traced and untraced repeats, and reports the
per-layer metrics plus the tracing overhead of each end-to-end metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records provenance (the ledger row, also appended to
``.perfbench/ledger.jsonl``).  Everything the benchmark writes stays under
``.perfbench/`` in the checkout; per-run inputs, spills and snapshots are
removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")

#: Variables that would silently change the defaults the benchmark measures.
SCRUBBED_ENV = (
    "REPRO_DEFAULT_ENGINE",
    "REPRO_DEFAULT_BACKEND",
    "REPRO_KERNEL",
    "REPRO_DUAL_FRONTIER",
    "REPRO_SCALE",
)
SETUP_REPEATS = 3


class _Timer:
    """Untraced stand-in for a tracer span: just the wall time."""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.seconds = self.end - self.start
        return False


class Context:
    """Run state shared by a workload: inputs, checks, metrics, trace."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, tracer, digests):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = tracer
        self.digests = digests
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.overhead: dict[str, float] = {}
        self.repeats: dict[str, dict] = {}
        self.inputs: dict = {}
        self.attempted = 0
        self.failed = 0
        self.results: dict[str, list] = {}
        self.shard_stats: list[dict] = []
        self.indexes: list[tuple[int, int]] = []
        self._steps: dict[str, int] = {}
        self._extra_spans: list = []

    # ------------------------------------------------------------ scheduling

    def trace_step(self, kind: str) -> bool:
        """Switch tracing for the next repeat of ``kind``; returns whether on.

        In the traced pass repeats alternate traced / untraced (first one
        traced), so each end-to-end metric has both and the difference is
        the tracing overhead.  The untraced pass never traces.
        """
        count = self._steps.get(kind, 0)
        self._steps[kind] = count + 1
        traced = self.trace and count % 2 == 0
        if self.tracer is not None:
            self.tracer.enabled.value = int(traced)
        return traced

    def span(self, name: str, traced: bool):
        if traced and self.tracer is not None:
            return self.tracer.span(name)
        return _Timer()

    def setup(self, build):
        """Run the workload's set-up ``SETUP_REPEATS`` times; median is ``setup_s``."""
        samples, value = [], None
        for _ in range(SETUP_REPEATS):
            traced = self.trace_step("setup")
            value = None  # let the previous set-up's inputs go first
            start = time.perf_counter()
            value = build()
            samples.append((time.perf_counter() - start, traced))
        if self.tracer is not None:
            self.tracer.enabled.value = 0
        self.timed("setup_s", samples)
        self._timed_start = time.perf_counter()
        return value

    def more(self) -> bool:
        """Whether the timed section has run for less than ``--seconds``."""
        return time.perf_counter() - self._timed_start < self.seconds

    @property
    def scratch(self) -> str:
        """Per-run directory for inputs, spills and snapshots (removed at exit)."""
        return os.path.join(OUT, "work", f"{self.workload}-{self.seed}")

    def workdir(self, name: str) -> str:
        path = os.path.join(self.scratch, name)
        os.makedirs(path, exist_ok=True)
        return path

    def result_path(self, name: str) -> str:
        """A kept output file of this run (``.perfbench/results``)."""
        os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
        return os.path.join(OUT, "results", f"{self.workload}-{self.seed}-{name}")

    # ---------------------------------------------------------------- checks

    def attempt(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.log(f"output check failed: {what}")

    @staticmethod
    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    # --------------------------------------------------------------- metrics

    def timed(self, name: str, samples, scale: float = 1.0) -> None:
        """Median of the untraced samples; overhead from the traced ones."""
        plain = [s * scale for s, traced in samples if not traced]
        traced = [s * scale for s, on in samples if on]
        self.metrics[name] = statistics.median(plain)
        self.repeats[name] = {
            "n": len(plain),
            "min": min(plain),
            "median": self.metrics[name],
            "samples": plain,
        }
        if traced:
            self.overhead[name] = statistics.median(traced) - self.metrics[name]

    def describe(self, **facts) -> None:
        self.inputs.update(facts, seed=self.seed)

    def note_result(self, name: str, result, traced: bool) -> None:
        if traced:
            self.results.setdefault(name, []).append(result)

    def note_shard(self, model, traced: bool) -> None:
        if traced:
            self.shard_stats.append(dict(model.shard_stats_))

    def note_index(self, index, traced: bool) -> None:
        if traced:
            self.indexes.append((int(index.n_profile_entries), int(index.memory_bytes())))

    def spanset(self, extra=None):
        from tracer import SpanSet

        if extra is not None:
            self._extra_spans = list(extra)
        return SpanSet(list(self.tracer.spans) + self._extra_spans)


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    try:
        spec = _load_spec()
    except (OSError, ValueError) as error:
        print(f"error: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no library sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # Library temporaries (spool directories, shard spills) stay in the checkout.
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(OUT, "tmp")
    tempfile.tempdir = None

    import numpy as np  # noqa: F401 - import cost stays out of every timing

    import tracer as tracing
    import verify
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"expected one of {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install_layers(tracer)
    ctx = Context(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        tracer,
        verify.DigestStore(),
    )

    children = []
    try:
        if args.workload == "serve-syn2d":
            # Fork the servers now, after the imports and before any data,
            # so no set-up time is interpreter start-up and no child inherits
            # the parent's inputs.
            children = [workloads.ServerChild(ctx) for _ in range(SETUP_REPEATS)]
            workloads.run_serve(ctx, list(children))
        else:
            workloads.WORKLOADS[args.workload](ctx)
    finally:
        for child in children:
            child.stop()
        shutil.rmtree(ctx.scratch, ignore_errors=True)

    if args.trace:
        import layers

        spans = ctx.spanset().spans
        ctx.overhead["peak_rss_mb"] = layers.span_buffer_mb(spans)
        for name, value in ctx.overhead.items():
            ctx.layers[f"overhead.{name}"] = value
        path = os.path.join(OUT, "spans", f"{args.workload}-{args.seed}.jsonl")
        tracer.dump(path, {"workload": args.workload, "seed": args.seed}, spans)
        tracer.uninstall()
        wanted = spec["per_layer"]
        values = {m["name"]: float(ctx.layers.get(m["name"], 0.0)) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in ctx.metrics]
        if missing:
            print(f"error: metrics not measured: {missing}", file=sys.stderr)
            return 1
        values = {m["name"]: float(ctx.metrics[m["name"]]) for m in wanted}

    row = {
        "workload": args.workload,
        "trace": args.trace,
        "inputs": ctx.inputs,
        "repeats": ctx.repeats,
        "provenance": verify.provenance(ROOT),
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "ledger.jsonl"), "a") as ledger:
        ledger.write(json.dumps({**row, "metrics": values}) + "\n")
    print(json.dumps(row))
    units = {m["name"]: m["unit"] for m in wanted}
    print(
        json.dumps(
            {
                "correct": ctx.failed == 0,
                "attempted": ctx.attempted,
                "failed": ctx.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
