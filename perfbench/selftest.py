"""Self-test of the benchmark at tiny sizes.

Checks that

1. every metric named in ``BENCHMARK.json`` is emitted, with its unit, by
   every workload in both the untraced and the traced pass;
2. a corrupted label fails the output checks (exact fit, sharded fit,
   recluster stop and served labels);
3. outputs and ``work_`` counters are identical with tracing on and off.

Run from the root of a checkout (takes about a minute)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "CLUSTER_N": 3000,
    "SHARD_N": 3000,
    "SERVE_N": 3000,
    "SERVE_TRAIN": 2600,
    "EXPLORE_N": 2500,
    "SAMPLE_N": 1500,
    "WARMUP_N": 1200,
    "LOAD_RATE": 400.0,
    "BURST_REQUESTS": 20,
    "PROBE_REQUESTS": 4,
    "TOUR_PASSES": 1,
}


TRACED_LAYER = {
    "cluster-syn2d": "exdpc.dependency_join.s",
    "shard-household4d": "pipeline.stages",
    "serve-syn2d": "load.predict.attach_s",
    "explore-syn2d": "recluster.build_s",
}


class _NoDigests(verify.DigestStore):
    """Stored digests match the full sizes only: recompute references."""

    def __init__(self, path=None):
        self.path = path
        self.data = {}


@contextlib.contextmanager
def patched(holder, attr, value):
    original = getattr(holder, attr)
    setattr(holder, attr, value)
    try:
        yield
    finally:
        setattr(holder, attr, original)


def run_once(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
        )
    if code != 0:
        raise AssertionError(f"{workload} trace={trace} exited {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_metrics(spec) -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_once(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            assert set(got) == set(wanted), (workload, set(wanted) ^ set(got))
            for name, unit in wanted.items():
                assert got[name]["unit"] == unit, (workload, name)
                assert isinstance(got[name]["value"], float), (workload, name)
            if trace == 0:
                zero = [n for n, v in got.items() if v["value"] == 0]
                assert not zero, (workload, zero)
            else:
                # One layer each workload must reach (serve: spans shipped
                # back from the forked server).
                layer = TRACED_LAYER[workload]
                assert got[layer]["value"] > 0, (workload, layer)
            print(f"ok  metrics  {workload} trace={trace}", flush=True)


def _flip_first(labels):
    labels = np.array(labels, copy=True)
    labels[0] = labels[0] + 1
    return labels


def check_corruption() -> None:
    from repro.core import ExDPC
    from repro.core.framework import DensityPeaksBase
    from repro.core.recluster import ReclusterIndex
    from repro.shard import ShardedDPC

    def corrupt_fit(original):
        def fit(self, points):
            result = original(self, points)
            result.labels_ = _flip_first(result.labels_)
            return result

        return fit

    def corrupt_result(original):
        def method(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            result.labels_ = _flip_first(result.labels_)
            return result

        return method

    def corrupt_predict(original):
        def predict(self, points, **kwargs):
            return _flip_first(original(self, points, **kwargs))

        return predict

    # The expected outputs are computed before the corruption is switched on,
    # so only the measured outputs carry the bad label.
    seed = 3
    train, queries = workloads.serve_data()
    model = workloads.approx()
    model.fit(train)
    expected = {
        "cluster-syn2d": {
            str(seed): workloads.cluster_reference(
                workloads.syn_points(workloads.CLUSTER_N, seed)
            )
        },
        "explore-syn2d": {
            str(seed): [
                workloads.cold_stop_digest(
                    workloads.syn_points(workloads.EXPLORE_N, seed), stop
                )
                for stop in workloads.tour(seed)
            ]
        },
        "serve-syn2d": {"labels": verify.pack_labels(model.predict(queries))},
    }

    class Expected(verify.DigestStore):
        def __init__(self, path=None):
            self.path = path
            self.data = expected

    cases = [
        ("cluster-syn2d", ExDPC, "fit", corrupt_fit(ExDPC.fit)),
        ("shard-household4d", ShardedDPC, "fit", corrupt_fit(ShardedDPC.fit)),
        ("explore-syn2d", ReclusterIndex, "recluster", corrupt_result(ReclusterIndex.recluster)),
        (
            "serve-syn2d",
            DensityPeaksBase,
            "predict",
            corrupt_predict(DensityPeaksBase.predict),
        ),
    ]
    for workload, holder, attr, bad in cases:
        with patched(verify, "DigestStore", Expected), patched(holder, attr, bad):
            result = run_once(workload, 0)
        assert not result["correct"] and result["failed"] >= 1, (workload, result)
        print(f"ok  corrupted label fails  {workload}", flush=True)


def check_trace_identity() -> None:
    from repro.core import ApproxDPC, ExDPC, SApproxDPC
    from repro.shard import ShardedDPC

    points = workloads.syn_points(2000, 5)
    household = workloads.household_points(2000, 5)
    queries = workloads.syn_points(200, 6)

    def outputs():
        rows = []
        for model, data in (
            (ExDPC(2000.0, rho_min=5, n_clusters=13), points),
            (ApproxDPC(2000.0, rho_min=5, n_clusters=13), points),
            (SApproxDPC(2000.0, rho_min=5, n_clusters=13, epsilon=0.8), points),
            (ShardedDPC(3000.0, n_clusters=15, n_shards=4, pipeline_workers=2), household),
        ):
            result = model.fit(data)
            rows.append(
                (
                    verify.fit_digest(result),
                    dict(result.work_),
                    verify.array_digest(model.predict(queries if data is points else data[:50])),
                )
            )
        return rows

    plain = outputs()
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    tracer.enabled.value = 1
    try:
        traced = outputs()
    finally:
        tracer.uninstall()
    assert tracer.spans, "tracing recorded no spans"
    assert plain == traced, "tracing changed outputs or work counters"
    print(f"ok  outputs and work_ identical with tracing ({len(tracer.spans)} spans)", flush=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for name, value in TINY.items():
        setattr(workloads, name, value)
    with patched(verify, "DigestStore", _NoDigests):
        check_trace_identity()
        check_metrics(spec)
        check_corruption()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
