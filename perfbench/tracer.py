"""In-memory span tracer installed around the library's public callables.

The benchmark measures the program from outside: it never edits ``src/``.
For the traced pass it replaces public functions and methods of each layer
with thin wrappers that record one span per call.  A span is the tuple
``(name, start, end, parent, span_id, thread, pid, attrs)``; ``start`` and
``end`` come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so a
forked server child's spans share the parent's time base).  The parent is
the innermost open span on the same thread.

Spans stay in memory; :meth:`Tracer.dump` writes them out once at the end.
``Tracer.enabled`` lives in anonymous shared memory, so a forked child
inherits the switch and the parent can turn tracing on and off mid-run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import mmap
import os
import sys
import threading
import time

import numpy as np


class SharedFlag:
    """One byte of anonymous shared memory (``.value``), inherited by forks."""

    def __init__(self):
        self._byte = mmap.mmap(-1, 1)

    @property
    def value(self) -> int:
        return self._byte[0]

    @value.setter
    def value(self, on) -> None:
        self._byte[0] = int(on)


class Tracer:
    """Collects spans from wrapped callables while ``enabled`` is set."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.enabled = SharedFlag()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name, start, end, parent=0, span_id=None, attrs=None):
        self.spans.append(
            (
                name,
                start,
                end,
                parent,
                span_id if span_id is not None else next(self._ids),
                threading.get_ident(),
                os.getpid(),
                attrs or {},
            )
        )

    def span(self, name: str):
        """Context manager recording one span (even when tracing is off)."""
        return _Span(self, name)

    # --------------------------------------------------------------- wrapping

    def wrap(self, fn, name: str, attrs_fn=None):
        """Return a wrapper of ``fn`` that records a span per call when on."""
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not tracer.enabled.value:
                    return await fn(*args, **kwargs)
                # Coroutines interleave on one thread, so they take no part
                # in the per-thread parent stack.
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.record(name, start, time.perf_counter())

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled.value:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = attrs_fn(args, kwargs, result) if attrs_fn else None
                tracer.record(name, start, end, parent, span_id, attrs)

        return wrapper

    def patch_function(self, module, attr: str, name: str, attrs_fn=None):
        """Wrap ``module.attr`` and every ``repro.*`` binding of the same object.

        ``from x import f`` copies the reference into the importing module, so
        each such binding is replaced as well.
        """
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, attrs_fn)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name: str, attrs_fn=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(self.wrap(original.__func__, name, attrs_fn))
        else:
            wrapped = self.wrap(original, name, attrs_fn)
        setattr(cls, attr, wrapped)

    def patch_object(self, holder, attr: str, replacement):
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, replacement)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # ----------------------------------------------------------------- output

    def dump(self, path, extra: dict | None = None, spans=None) -> None:
        """Write every span as one JSON line (plus an optional header line).

        ``spans`` defaults to this process's spans; pass the merged list to
        include spans shipped back by child processes.
        """
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as out:
            if extra:
                out.write(json.dumps(extra) + "\n")
            for name, start, end, parent, span_id, thread, pid, attrs in (
                self.spans if spans is None else spans
            ):
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "id": span_id,
                            "thread": thread,
                            "pid": pid,
                            **{k: _plain(v) for k, v in attrs.items()},
                        }
                    )
                    + "\n"
                )


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else 0
        self.span_id = next(self.tracer._ids)
        stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.record(self.name, self.start, self.end, self.parent, self.span_id)
        return False

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _plain(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


# ------------------------------------------------------------------ layers


def _block_attrs(q_block, d_block):
    """Padded pair slots and real pairs of one kernel block call.

    Padded rows carry ``+inf`` coordinates (the kernel ABI's padding
    contract), so real rows are the finite ones.
    """
    q_block = np.asarray(q_block)
    d_block = np.asarray(d_block)
    q_real = np.isfinite(q_block[..., 0]).sum(axis=-1)
    d_real = np.isfinite(d_block[..., 0]).sum(axis=-1)
    lead = int(np.prod(q_block.shape[:-2], dtype=np.int64))
    slots = lead * q_block.shape[-2] * d_block.shape[-2]
    return {"slots": int(slots), "pairs": int(np.sum(q_real * d_real))}


def install_layers(tracer: Tracer) -> None:
    """Wrap the public callables of every layer the per-layer metrics name."""
    import repro.core.assignment as assignment
    import repro.core.dependency_join as dependency_join
    import repro.core.framework as framework
    import repro.core.predict as predict
    import repro.core.recluster as recluster
    import repro.index.grid as grid
    import repro.index.kdtree as kdtree
    import repro.index.sample_grid as sample_grid
    import repro.kernels as kernels
    import repro.parallel.executor as executor
    import repro.serve.coalesce as coalesce
    import repro.serve.server as server
    import repro.shard.manifest as manifest
    import repro.shard.partition as partition
    import repro.stream.snapshot as snapshot

    tree = kdtree.KDTree
    tracer.patch_method(tree, "__init__", "kdtree.build")
    for method in (
        "range_count_batch",
        "range_count_dual",
        "range_count_dual_vs",
        "range_count_dual_pairs",
    ):
        tracer.patch_method(tree, method, "kdtree.range")
    tracer.patch_method(tree, "nn_dual_vs", "kdtree.nn_dual")
    tracer.patch_method(tree, "range_nn_dual", "kdtree.nn_dual")
    tracer.patch_method(tree, "range_profile_batch", "kdtree.profile")
    tracer.patch_method(tree, "knn_batch", "kdtree.knn")

    tracer.patch_function(dependency_join, "nearest_denser_join", "dependency_join")
    tracer.patch_method(
        dependency_join.PartitionedDependencySearcher, "query_batch", "dependency_join"
    )
    tracer.patch_function(dependency_join, "attach_targets", "predict.attach")
    tracer.patch_function(predict, "nearest_denser_targets", "predict.attach")
    tracer.patch_function(assignment, "assign_clusters", "assignment")
    tracer.patch_method(grid.UniformGrid, "__init__", "grid")
    tracer.patch_method(sample_grid.SampledGrid, "__init__", "sample_grid")

    def block_attrs(args, kwargs, result):
        return _block_attrs(args[0], args[1])

    tier = kernels.get_kernel(None)
    for fn in ("count_blocks", "nn_blocks", "pair_distances_sq"):
        tracer.patch_function(tier, fn, "kernels", block_attrs)

    def map_attrs(args, kwargs, result):
        return {"tasks": len(result) if result is not None else 0}

    for method in ("map", "map_chunks", "map_index_chunks"):
        tracer.patch_method(executor.ParallelExecutor, method, "executor", map_attrs)

    tracer.patch_function(partition, "plan_shards", "partition.plan")
    tracer.patch_function(partition, "plan_shards_streaming", "partition.plan")
    tracer.patch_function(partition, "slab_indices", "partition.slab")

    def spill_attrs(args, kwargs, result):
        try:
            return {"bytes": os.path.getsize(result)}
        except (OSError, TypeError):
            return {"bytes": 0}

    tracer.patch_function(manifest, "write_shard_archive", "manifest.spill", spill_attrs)
    tracer.patch_function(manifest, "read_shard_archive", "manifest.reload")

    def predict_attrs(args, kwargs, result):
        return {"points": int(np.asarray(result).shape[0]) if result is not None else 0}

    tracer.patch_method(framework.DensityPeaksBase, "predict", "predict", predict_attrs)
    tracer.patch_method(coalesce.RequestCoalescer, "predict", "coalesce.request")
    tracer.patch_function(snapshot, "save_model", "snapshot.save")
    tracer.patch_function(snapshot, "load_model", "registry.load")
    tracer.patch_method(recluster.ReclusterIndex, "from_estimator", "recluster.build")
    tracer.patch_method(recluster.ReclusterIndex, "recluster", "recluster.stop")
    tracer.patch_method(recluster.ReclusterIndex, "density", "recluster.density")

    # The server speaks NDJSON through the `json` module it imported; give it
    # a stand-in whose dumps/loads are traced, leaving every other caller of
    # `json` untouched.
    codec = _JsonCodec(tracer)
    tracer.patch_object(server, "json", codec)


class _JsonCodec:
    """``json`` stand-in for the server module with traced dumps/loads."""

    def __init__(self, tracer: Tracer):
        self.JSONDecodeError = json.JSONDecodeError
        self.dumps = tracer.wrap(json.dumps, "server.codec", _codec_id)
        self.loads = tracer.wrap(json.loads, "server.codec", _codec_id)


def _codec_id(args, kwargs, result):
    payload = result if isinstance(result, dict) else args[0]
    request_id = payload.get("id") if isinstance(payload, dict) else None
    return {"rid": request_id}


# ----------------------------------------------------------------- analysis


class SpanSet:
    """Queries over a list of span tuples (self time, roots, windows)."""

    def __init__(self, spans):
        self.spans = list(spans)
        # Ids are per process (a forked child continues the parent's
        # counter), so a span is identified by (pid, id).
        self.by_id = {(s[6], s[4]): s for s in self.spans}

    def parent(self, span):
        return self.by_id.get((span[6], span[3]))

    def select(self, name: str, pid=None):
        """Spans called ``name`` (of process ``pid`` when given)."""
        return [
            s for s in self.spans if s[0] == name and (pid is None or s[6] == pid)
        ]

    def outermost(self, spans):
        """Drop spans nested (via parents) inside another span of the same name."""
        out = []
        for span in spans:
            parent = self.parent(span)
            nested = False
            while parent is not None:
                if parent[0] == span[0]:
                    nested = True
                    break
                parent = self.parent(parent)
            if not nested:
                out.append(span)
        return out

    def total(self, spans) -> float:
        return float(sum(s[2] - s[1] for s in spans))

    def self_time(self, spans) -> float:
        """Duration minus the time children on the same thread cover."""
        children: dict[tuple, list] = {}
        for span in self.spans:
            children.setdefault((span[6], span[3]), []).append(span)
        total = 0.0
        for span in spans:
            covered = sum(
                c[2] - c[1]
                for c in children.get((span[6], span[4]), ())
                if c[5] == span[5]
            )
            total += (span[2] - span[1]) - covered
        return float(total)
