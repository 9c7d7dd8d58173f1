"""Stage pipeline: the one driver of the sharded fit.

:class:`ShardPipeline` runs the per-shard building blocks of
:class:`repro.shard.fit.ShardedDPC` as a dependency-ordered stage DAG on
``pipeline_workers`` threads, overlapping stages of different shards -- and,
under ``memory_budget_bytes``, only while the live accounted memory fits the
budget:

.. code-block:: text

    build(k) ──> density(k) ──────────┐
        │                             ├──> localdep(k) ──> [persist(k)]
        └──> halo(k, b)  (for all b) ─┘                          │
                                                                 v
    all density + all halo + localdep(a) + [all persist] ──> cross(a)

* ``build(k)`` gathers shard ``k``'s rows and bulk-loads its kd-tree.
* ``density(k)`` runs the shard's strict self-counts (dual/batch/scalar
  engine, per-shard executor and shared-memory segment).
* ``halo(a, b)`` counts shard ``a``'s boundary slab against shard ``b``'s
  (:meth:`~repro.shard.fit.ShardedDPC._halo_pair`); it reads only the global
  point matrix, so halo stages never pin partner trees.
* ``localdep(k)`` is the shard-local nearest-denser join; it needs shard
  ``k``'s *final* density rows, i.e. ``density(k)`` plus every
  ``halo(k, b)``.
* ``persist(k)`` (budget mode only) spills the shard tree to a manifest
  archive (:func:`repro.shard.manifest.write_shard_archive`) and releases its
  reserve; the cross pass later memory-maps it back on demand.
* ``cross(a)`` is the cross-shard dependency pass for shard ``a``'s rows; it
  needs the global density vector (all density + halo stages) and, in budget
  mode, runs against the spilled (file-backed) trees.

**Determinism / bit-identity.**  All mutable commits -- density and halo
additions into ``rho_raw``, local-join folds into ``best_idx``/``best_sq``,
counter swaps, tree registration -- happen in the scheduler thread at stage
completion.  Densities are integer-valued, and integers below ``2**53`` add
exactly in float64, so the commit *order* of density/halo contributions is
bit-irrelevant; and local and cross dependency stages touch row sets that
are disjoint by shard.  The result (labels, densities, dependencies, and the
per-phase work counters) is therefore the same for every schedule -- any
budget, any worker count -- and bit-identical to single-tree ``ExDPC``, which
is property-tested in ``tests/property/test_shard_equivalence.py``.

**Memory without a budget.**  With ``memory_budget_bytes=None`` every shard
tree stays resident and stages are admitted without accounting, so the
default runs one stage at a time: one pool and one shared-memory segment are
live at once.  An explicit ``pipeline_workers > 1`` overlaps stages, which is
faster but lets that many stages hold their temporaries (and, under the
process backend, their pools and segments) at once; a budget bounds the
memory of an overlapped run (see ``docs/sharding.md`` for measurements).

**Budget model.**  Admission control works on deterministic upper-bound
*estimates*, not on sampled RSS (which would make scheduling racy and
machine-dependent):

* ``T(k)`` (:func:`estimate_shard_bytes`) bounds the resident bytes of shard
  ``k``'s tree: float64 source rows, storage-dtype points and ordered-point
  cache, the permutation, and per-node arrays.
* ``S = 3 * max_k T(k) + 64 * max_k n_k`` bounds any single stage's scratch:
  a shared-memory bundle (< source + tree), a halo pair's two slab gathers
  plus slab tree, or a cross stage's query tree plus one memory-mapped
  partner's cast/ordered copies.
* A shard's **reserve** ``R(k) = T(k) + S`` is charged when ``build(k)`` is
  admitted and released by ``persist(k)``; stages of shard ``k`` that use
  scratch (density, halo, localdep, persist) hold the shard's single scratch
  token, so they draw from the already-charged reserve and can never deadlock
  waiting for new memory.  ``cross(a)`` charges ``S`` on its own (every
  reserve has been released by then).  The minimum feasible budget is
  therefore ``max_k R(k)`` (full serialization, one shard resident at a
  time); smaller budgets raise ``ValueError`` before any work starts.

The observed peak of this accounting is reported as
``shard_stats_["peak_rss_bytes"]`` next to ``"budget_bytes"``; real shared
memory is additionally instrumented by
:class:`repro.parallel.shm.SharedArrayBundle`'s class-level live/peak
counters, which the budget tests assert against.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.parallel.executor import ParallelExecutor, resolve_n_jobs
from repro.shard.manifest import read_shard_archive, write_shard_archive
from repro.utils.counters import WorkCounter

__all__ = [
    "PipelineOutputs",
    "ShardPipeline",
    "estimate_shard_bytes",
    "minimum_budget_bytes",
    "stage_scratch_bytes",
]


class _LockedCounter(WorkCounter):
    """A :class:`WorkCounter` safe to share between concurrent stages.

    The base counter is a plain dict accumulator; pipeline stages of
    different shards add to the same phase counter from worker threads, so
    the mutating entry points take a lock.  Totals are exact sums either
    way, hence independent of stage interleaving.
    """

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()

    def add(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            super().add(key, amount)

    def merge(self, other: WorkCounter) -> None:
        with self._lock:
            super().merge(other)


def estimate_shard_bytes(
    n_points: int, dim: int, dtype: str = "float64", leaf_size: int = 32
) -> int:
    """Deterministic upper bound on one resident shard tree's bytes.

    Counts the float64 source rows, the storage-dtype point matrix and
    ordered-point cache (both counted even when storage aliases the source,
    keeping the bound one-sided), the index permutation, and the per-node
    arrays of :class:`repro.index.kdtree.KDTreeArrays` for a conservative
    node count of ``4 * ceil(n / leaf_size) + 2``.
    """
    itemsize = 4 if np.dtype(dtype) == np.float32 else 8
    nodes = 4 * ((n_points + leaf_size - 1) // max(1, leaf_size)) + 2
    per_node = 6 * 8 + itemsize + 2 * dim * itemsize
    return int(
        n_points * dim * 8  # float64 source rows
        + 2 * n_points * dim * itemsize  # storage points + ordered cache
        + 8 * n_points  # permutation
        + nodes * per_node
    )


def stage_scratch_bytes(shard_sizes, dim: int, dtype: str, leaf_size: int) -> int:
    """Upper bound on any single stage's transient allocation (see module doc)."""
    n_max = int(max(shard_sizes))
    t_max = max(
        estimate_shard_bytes(int(size), dim, dtype, leaf_size)
        for size in shard_sizes
    )
    return int(3 * t_max + 64 * n_max)


def minimum_budget_bytes(shard_sizes, dim: int, dtype: str, leaf_size: int) -> int:
    """Smallest feasible ``memory_budget_bytes`` for a given shard plan.

    Equals the largest single-shard reserve ``T(k) + S``: with exactly this
    budget the pipeline degenerates to one resident shard at a time, which is
    always schedulable (no stage ever needs memory beyond its shard's
    reserve).
    """
    scratch = stage_scratch_bytes(shard_sizes, dim, dtype, leaf_size)
    t_max = max(
        estimate_shard_bytes(int(size), dim, dtype, leaf_size)
        for size in shard_sizes
    )
    return int(t_max + scratch)


@dataclass
class PipelineOutputs:
    """Everything the pipelined fit hands back to :class:`ShardedDPC`."""

    rho_raw: np.ndarray  #: jitter-free global densities (exact integers)
    best_idx: np.ndarray  #: global nearest-denser indices (``-1`` for peaks)
    best_sq: np.ndarray  #: canonical float64 squared distances (``inf`` for peaks)
    cost_chunks: list  #: per-shard join cost estimates, shard order
    density_counter: WorkCounter  #: work of build/density/halo stages
    dep_counter: WorkCounter  #: work of localdep/cross stages
    halo_exported: int  #: total slab points exported across shard borders
    halo_credits: int  #: total cross-border density credits
    peak_tracked_bytes: int  #: peak of the budget accounting model
    report: dict = field(default_factory=dict)  #: scheduling diagnostics


class _Stage:
    __slots__ = ("key", "deps", "run", "commit", "charge", "scratch_shard")

    def __init__(self, key, deps, run, commit, charge=0, scratch_shard=None):
        self.key = key
        self.deps = frozenset(deps)
        self.run = run
        self.commit = commit
        self.charge = int(charge)
        self.scratch_shard = scratch_shard


class ShardPipeline:
    """Run one sharded fit as a budget-admitted stage DAG (see module doc).

    The pipeline holds no algorithmic logic of its own: every stage body is a
    bound building block of the owning :class:`~repro.shard.fit.ShardedDPC`
    (``_build_shard_tree``, ``_shard_self_counts``, ``_halo_pair``,
    ``_local_join``, ``_cross_pass_shard``); the pipeline only schedules and
    commits them.
    """

    def __init__(self, owner, points: np.ndarray):
        self.owner = owner
        self.points = points
        self.plan = owner._plan
        self.budget = owner.memory_budget_bytes
        if owner.pipeline_workers is not None:
            self.workers = owner.pipeline_workers
        elif self.budget is None:
            # Nothing bounds what concurrent stages hold without a budget
            # (under the process backend each opens its own pool and shard
            # segment), so the default runs one stage at a time.
            self.workers = 1
        else:
            self.workers = max(2, resolve_n_jobs(owner.n_jobs))
        sizes = self.plan.shard_sizes
        dim = int(points.shape[1])
        self._tree_bytes = [
            estimate_shard_bytes(int(size), dim, owner.dtype, owner.leaf_size)
            for size in sizes
        ]
        self._scratch = stage_scratch_bytes(sizes, dim, owner.dtype, owner.leaf_size)
        self._reserve = [t + self._scratch for t in self._tree_bytes]
        self._minimum = minimum_budget_bytes(sizes, dim, owner.dtype, owner.leaf_size)
        if self.budget is not None and self.budget < self._minimum:
            raise ValueError(
                f"memory_budget_bytes={self.budget} is below the minimum "
                f"feasible budget {self._minimum} for this shard plan "
                f"(largest shard reserve: tree + stage scratch); raise the "
                f"budget or increase n_shards"
            )
        if self.budget is not None:
            # Resolve the spill directory in the scheduler thread, before
            # concurrent persist stages could race its lazy creation.
            owner._ensure_spool_dir()

        n = points.shape[0]
        k = self.plan.n_shards
        self.rho_raw = np.zeros(n, dtype=np.float64)
        self.best_idx = np.full(n, -1, dtype=np.intp)
        self.best_sq = np.full(n, np.inf, dtype=np.float64)
        self.cost_chunks: list = [None] * k
        self.density_counter = _LockedCounter()
        self.dep_counter = _LockedCounter()
        self.halo_exported = 0
        self.halo_credits = 0.0
        self.trees: list = [None] * k
        self.spill_paths: list = [None] * k
        self._live = 0
        self._peak = 0
        self._scratch_busy = [False] * k
        self._estimate_adjustments = 0
        self._stage_log: list[str] = []
        self._rho_full: np.ndarray | None = None
        self._rho_max: np.ndarray | None = None

    # ------------------------------------------------------------ stage bodies

    def _jitter(self) -> np.ndarray:
        jitter = getattr(self.owner, "_tiebreak_jitter_", None)
        if jitter is None:
            raise RuntimeError(
                "tie-break jitter missing: the pipeline must run inside "
                "DensityPeaksBase.fit (which draws it before the density phase)"
            )
        return np.asarray(jitter, dtype=np.float64)

    def _run_build(self, k: int):
        return self.owner._build_shard_tree(
            self.points, self.plan.members[k], self.density_counter
        )

    def _commit_build(self, k: int, tree) -> None:
        self.trees[k] = tree
        source = tree.source_points
        self.owner._shard_bbox[k] = (source.min(axis=0), source.max(axis=0))
        if self.budget is not None:
            actual = self.owner._tree_resident_bytes(tree)
            if actual > self._tree_bytes[k]:
                # Keep the accounting honest if the estimate ever under-shoots
                # (it should not: the bound is one-sided by construction).
                self._live += actual - self._tree_bytes[k]
                self._peak = max(self._peak, self._live)
                self._estimate_adjustments += 1

    def _run_density(self, k: int):
        tree = self.trees[k]
        return self.owner._shard_self_counts(tree, counter=self.density_counter)

    def _commit_density(self, k: int, counts) -> None:
        # += (not assignment): halo credits for this shard may have landed
        # first.  Densities are exact integers in float64, so the order of
        # these additions never changes a bit.
        self.rho_raw[self.plan.members[k]] += counts
        # From here on every query against this tree is dependency work.
        self.trees[k].counter = self.dep_counter

    def _run_halo(self, a: int, b: int):
        return self.owner._halo_pair(self.points, a, b, self.density_counter)

    def _commit_halo(self, key, pair) -> None:
        if pair is None:
            return
        rows, credits, exported_b = pair
        self.rho_raw[rows] += credits
        self.halo_exported += exported_b
        self.halo_credits += float(credits.sum())

    def _launch_localdep(self, k: int):
        # Materialise the shard's final (jittered) densities in the scheduler
        # thread: after this stage's deps committed, these rows are frozen.
        members = self.plan.members[k]
        rho_members = self.rho_raw[members] + self._jitter()[members]
        tree = self.trees[k]

        def run():
            return self.owner._local_join(
                tree, members, rho_members, counter=self.dep_counter
            )

        return run

    def _commit_localdep(self, k: int, outcome) -> None:
        self.owner._apply_local_join(
            self.points, self.plan.members[k], outcome, self.best_idx, self.best_sq
        )
        self.cost_chunks[k] = np.asarray(outcome.cost_estimates, dtype=np.float64)

    def _run_persist(self, k: int):
        directory = self.owner._ensure_spool_dir()
        path = Path(directory) / f"spill_{k}.npz"
        tree = self.trees[k]
        write_shard_archive(path, self.plan.members[k], tree.source_points, tree)
        return path

    def _commit_persist(self, k: int, path) -> None:
        self.spill_paths[k] = path
        self.trees[k] = None  # drop the resident tree; cross mmaps the spill
        self._live -= self._reserve[k]

    def _mmap_tree(self, b: int, counter: WorkCounter):
        members, tree = read_shard_archive(
            self.spill_paths[b],
            mmap=True,
            counter=counter,
            leaf_size=self.owner.leaf_size,
            kernel=self.owner.kernel,
        )
        return tree

    def _freeze_rho(self) -> None:
        if self._rho_full is None:
            self._rho_full = self.rho_raw + self._jitter()
            self._rho_max = np.asarray(
                [float(self._rho_full[m].max()) for m in self.plan.members]
            )

    def _launch_cross(self, a: int):
        self._freeze_rho()
        rho, rho_max = self._rho_full, self._rho_max
        if self.budget is None:
            tree_for = lambda b: self.trees[b]  # noqa: E731 (resident trees)
        else:
            # Load partners fresh per stage so only one file-backed partner's
            # anonymous copies (storage cast, ordered cache) are live at a
            # time -- that is what the scratch term budgets for.
            tree_for = lambda b: self._mmap_tree(b, self.dep_counter)  # noqa: E731

        def run():
            self.owner._cross_pass_shard(
                self.points, a, rho, rho_max, self.best_idx, self.best_sq, tree_for
            )

        return run

    # -------------------------------------------------------------- DAG set-up

    def _stages(self) -> dict:
        k = self.plan.n_shards
        budget = self.budget is not None
        stages: dict = {}

        def add(stage: _Stage) -> None:
            stages[stage.key] = stage

        for s in range(k):
            add(
                _Stage(
                    ("build", s),
                    deps=(),
                    run=lambda s=s: self._run_build(s),
                    commit=lambda s=s, r=None: self._commit_build(s, r),
                    charge=self._reserve[s] if budget else 0,
                )
            )
            add(
                _Stage(
                    ("density", s),
                    deps=[("build", s)],
                    run=lambda s=s: self._run_density(s),
                    commit=lambda s=s, r=None: self._commit_density(s, r),
                    scratch_shard=s if budget else None,
                )
            )
        for a in range(k):
            for b in range(k):
                if a == b:
                    continue
                add(
                    _Stage(
                        ("halo", a, b),
                        deps=[("build", a)],
                        run=lambda a=a, b=b: self._run_halo(a, b),
                        commit=lambda key=("halo", a, b), r=None: self._commit_halo(
                            key, r
                        ),
                        scratch_shard=a if budget else None,
                    )
                )
        rho_deps = [("density", s) for s in range(k)] + [
            ("halo", a, b) for a in range(k) for b in range(k) if a != b
        ]
        for s in range(k):
            local_deps = [("density", s)] + [
                ("halo", s, b) for b in range(k) if b != s
            ]
            add(
                _Stage(
                    ("localdep", s),
                    deps=local_deps,
                    run=None,  # closure built at launch (needs frozen rho rows)
                    commit=lambda s=s, r=None: self._commit_localdep(s, r),
                    scratch_shard=s if budget else None,
                )
            )
            if budget:
                add(
                    _Stage(
                        ("persist", s),
                        deps=[("localdep", s)],
                        run=lambda s=s: self._run_persist(s),
                        commit=lambda s=s, r=None: self._commit_persist(s, r),
                        scratch_shard=s,
                    )
                )
        for a in range(k):
            cross_deps = list(rho_deps) + [("localdep", a)]
            if budget:
                cross_deps += [("persist", s) for s in range(k)]
            add(
                _Stage(
                    ("cross", a),
                    deps=cross_deps,
                    run=None,  # closure built at launch (freezes global rho)
                    commit=lambda s=a, r=None: None,
                    charge=self._scratch if budget else 0,
                )
            )
        return stages

    # --------------------------------------------------------------- scheduler

    _KIND_ORDER = {
        "build": 0,
        "density": 1,
        "halo": 2,
        "localdep": 3,
        "persist": 4,
        "cross": 5,
    }

    def _sort_key(self, key):
        return (self._KIND_ORDER[key[0]], key[1:])

    def _admit(self, stage: _Stage) -> bool:
        if self.budget is not None and stage.charge:
            if self._live + stage.charge > self.budget:
                return False
        if stage.scratch_shard is not None and self._scratch_busy[stage.scratch_shard]:
            return False
        if self.budget is not None and stage.charge:
            self._live += stage.charge
            self._peak = max(self._peak, self._live)
        if stage.scratch_shard is not None:
            self._scratch_busy[stage.scratch_shard] = True
        return True

    def run(self) -> PipelineOutputs:
        stages = self._stages()
        done: set = set()
        launched: set = set()
        pending: dict = {}
        order = sorted(stages, key=self._sort_key)
        executor = ParallelExecutor(self.workers, backend="thread")
        try:
            while len(done) < len(stages):
                for key in order:
                    if key in launched:
                        continue
                    stage = stages[key]
                    if not stage.deps <= done:
                        continue
                    if not self._admit(stage):
                        continue
                    run = stage.run
                    if run is None:
                        kind, shard = key[0], key[1]
                        run = (
                            self._launch_localdep(shard)
                            if kind == "localdep"
                            else self._launch_cross(shard)
                        )
                    launched.add(key)
                    pending[executor.submit(run)] = key
                if not pending:
                    raise RuntimeError(
                        "shard pipeline stalled with no runnable stage "
                        "(scheduler bug: the reserve model is deadlock-free)"
                    )
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in sorted(
                    finished, key=lambda f: self._sort_key(pending[f])
                ):
                    key = pending.pop(future)
                    stage = stages[key]
                    result = future.result()
                    stage.commit(r=result)
                    if stage.scratch_shard is not None:
                        self._scratch_busy[stage.scratch_shard] = False
                    if key[0] == "cross" and self.budget is not None and stage.charge:
                        self._live -= stage.charge
                    done.add(key)
                    self._stage_log.append(":".join(str(part) for part in key))
        finally:
            executor.close()
        return self._finalize(len(stages))

    def _finalize(self, n_stages: int) -> PipelineOutputs:
        owner = self.owner
        if self.budget is None:
            # Non-budget runs keep every tree resident; report that
            # residency plus the largest shared-memory segment.
            for tree in self.trees:
                tree.counter = owner._counter
            owner._shard_trees = self.trees
            resident = sum(owner._tree_resident_bytes(t) for t in self.trees)
            peak = int(
                resident + owner.shard_stats_.get("shm_peak_bytes", 0)
            )
        else:
            # Budget runs end with every shard spilled: rehydrate the
            # post-fit trees as memory-mapped wrappers over the archives
            # (predict faults in only the pages it touches).
            owner._shard_trees = [
                self._mmap_tree(s, owner._counter)
                for s in range(self.plan.n_shards)
            ]
            peak = int(self._peak)
        report = {
            "workers": int(self.workers),
            "n_stages": int(n_stages),
            "budget_bytes": self.budget,
            "minimum_budget_bytes": int(self._minimum),
            "reserve_bytes": [int(r) for r in self._reserve],
            "scratch_bytes": int(self._scratch),
            "spilled": [
                s for s, path in enumerate(self.spill_paths) if path is not None
            ],
            "estimate_adjustments": int(self._estimate_adjustments),
            "stage_log": self._stage_log,
        }
        return PipelineOutputs(
            rho_raw=self.rho_raw,
            best_idx=self.best_idx,
            best_sq=self.best_sq,
            cost_chunks=[chunk for chunk in self.cost_chunks],
            density_counter=self.density_counter,
            dep_counter=self.dep_counter,
            halo_exported=int(self.halo_exported),
            halo_credits=int(self.halo_credits),
            peak_tracked_bytes=peak,
            report=report,
        )
