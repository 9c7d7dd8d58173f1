"""The shared Density-Peaks Clustering estimator lifecycle.

Every algorithm in the paper -- the three contributions (Ex-DPC, Approx-DPC,
S-Approx-DPC) and every baseline (Scan, R-tree + Scan, LSH-DDP, CFSFDP-A) --
follows the same four-step lifecycle:

1. build whatever index the algorithm needs,
2. compute the local density of every point (Definition 1),
3. compute every point's dependent point / distance (Definitions 2 and 3),
4. select noise and cluster centers and propagate labels (Definitions 4-6).

:class:`DensityPeaksBase` implements the lifecycle once: subclasses override
:meth:`DensityPeaksBase._build_index`,
:meth:`DensityPeaksBase._compute_local_density` and
:meth:`DensityPeaksBase._compute_dependencies`, and inherit parameter
handling, tie-breaking, timing, memory accounting, the parallel-phase profile
and the final assignment step.
"""

from __future__ import annotations

import abc
import os
import time
from typing import Any

import numpy as np

from repro.core.assignment import NOISE_LABEL, assign_clusters, propagate_labels
from repro.core.dependency_join import attach_targets
from repro.core.predict import (
    float32_density_recheck,
    nearest_denser_bruteforce,
    predict_density_bruteforce,
)
from repro.index.kdtree import (
    DUAL_FRONTIER_AUTO,
    adaptive_dual_frontier,
    resolve_dual_frontier,
)
from repro.kernels import resolve_kernel
from repro.core.result import DPCResult, canonical_rho_raw
from repro.parallel.backends import (
    ChunkTask,
    kernel_predict_attach,
    kernel_predict_density,
    pack_tree_arrays,
    resolve_backend,
)
from repro.parallel.executor import ParallelExecutor, resolve_n_jobs
from repro.parallel.shm import SharedArrayBundle
from repro.parallel.simulate import SimulatedMulticore
from repro.utils.counters import WorkCounter
from repro.utils.rng import draw_tiebreak_jitter, ensure_rng
from repro.utils.validation import (
    check_non_negative,
    check_points,
    check_positive,
)

__all__ = [
    "DensityPeaksBase",
    "ENGINES",
    "ENGINE_CHOICES",
    "AUTO_DUAL_MAX_DIM",
    "DEFAULT_ENGINE_ENV",
    "resolve_engine",
    "effective_engine",
]

#: Query-execution engines of the density/dependency hot paths.
ENGINES = ("scalar", "batch", "dual")

#: Accepted values of the ``engine`` parameter: the concrete engines plus
#: ``"auto"``, which resolves per fit from the data dimensionality (see
#: :func:`effective_engine` and the engine x dimension table in
#: ``docs/performance.md``).
ENGINE_CHOICES = ENGINES + ("auto",)

#: Largest dimensionality at which ``engine="auto"`` picks the dual-tree
#: engine.  With the blocked kernel tier supplying one canonical sequential
#: accumulation at every dimensionality, the dual engine wins the combined
#: density+dependency workload at every dimension of the recorded sweep
#: (d = 2..5: the nearest-denser join is 2.4-5.4x faster than batch
#: throughout, and the density self-join wins or ties except a ~0.8x
#: residual at d=4 caused by node-granular pruning visiting ~1.2x more
#: pairs, not by arithmetic; see docs/performance.md).  Above the measured
#: range ``"auto"`` stays with the batch engine pending measurement.
AUTO_DUAL_MAX_DIM = 5

#: Environment variable naming the engine used when an estimator is built
#: with ``engine=None`` (default ``"auto"``); CI runs the whole suite on the
#: batch engine by exporting it.
DEFAULT_ENGINE_ENV = "REPRO_DEFAULT_ENGINE"


def resolve_engine(engine: str | None) -> str:
    """Normalise an ``engine`` parameter.

    ``None`` reads :data:`DEFAULT_ENGINE_ENV` and falls back to ``"auto"``
    (the dual-tree engine up to :data:`AUTO_DUAL_MAX_DIM` dimensions, batch
    above); any explicit value must be one of :data:`ENGINE_CHOICES`.
    ``"auto"`` is kept symbolic here and resolved against the data
    dimensionality at fit time (:func:`effective_engine`).
    """
    if engine is None:
        engine = os.environ.get(DEFAULT_ENGINE_ENV) or "auto"
    if engine not in ENGINE_CHOICES:
        raise ValueError(
            f"engine must be one of {ENGINE_CHOICES}, got {engine!r}"
        )
    return engine


def effective_engine(engine: str, dim: int) -> str:
    """Resolve an engine parameter against the data dimensionality.

    Concrete engines pass through; ``"auto"`` picks the dual-tree engine up
    to :data:`AUTO_DUAL_MAX_DIM` dimensions and the batch engine above it
    (the measured crossover of the engine x dimension table in
    ``docs/performance.md``).
    """
    if engine != "auto":
        return engine
    return "dual" if int(dim) <= AUTO_DUAL_MAX_DIM else "batch"


class DensityPeaksBase(abc.ABC):
    """Abstract base class of every DPC estimator in the library.

    Parameters
    ----------
    d_cut:
        The cutoff distance of Definition 1.  Local density is the number of
        points strictly closer than ``d_cut``.
    rho_min:
        Noise threshold (Definition 4).  ``None`` disables noise removal.
    delta_min:
        Cluster-center threshold (Definition 5).  Mutually exclusive with
        ``n_clusters``.
    n_clusters:
        Select exactly this many centers by the ``gamma = rho * delta``
        heuristic instead of thresholding ``delta``.  This is how the
        evaluation section fixes "13 clusters on Syn" / "15 clusters on Sx".
    n_jobs:
        Workers for the parallelisable phases.  ``1`` runs serially
        (recommended for small inputs); ``-1`` uses every CPU the process's
        affinity mask allows.
    backend:
        Execution backend for the parallel phases: ``"serial"``, ``"thread"``
        or ``"process"`` (see ``docs/parallel.md``).  ``None`` (default)
        reads the ``REPRO_DEFAULT_BACKEND`` environment variable and falls
        back to ``"thread"``.  The process backend ships the batch-engine
        phases to worker processes as picklable index-chunk tasks reading the
        dataset and the flattened kd-tree through shared memory; all three
        backends produce bit-for-bit identical results (property-tested).
    seed:
        Seed for the density tie-breaking perturbation (and any internal
        randomness such as LSH directions in subclasses).
    record_costs:
        When true (default) the estimator records per-task cost estimates for
        each parallel phase so that thread-scaling can be simulated afterwards
        via ``result.parallel_profile_``.
    engine:
        Query-execution engine for the density and dependency hot paths.
        ``"batch"`` issues chunked, vectorised batch queries through
        :meth:`repro.parallel.executor.ParallelExecutor.map_index_chunks`;
        ``"dual"`` additionally runs the density phase as a dual-tree
        self-join (:meth:`repro.index.kdtree.KDTree.range_count_dual` and
        friends) and the dependency phase as a dual-tree nearest-denser
        join (:meth:`repro.index.kdtree.KDTree.nn_dual_vs`, dispatched
        through :mod:`repro.core.dependency_join`), which amortises pruning
        across whole query subtrees and is the fastest option on
        low-dimensional data (see ``docs/performance.md``); ``"scalar"``
        runs the original one-query-per-point code, which is slower but
        exercises the per-query work-counter instrumentation; ``"auto"``
        resolves per fit from the data dimensionality (dual up to
        ``AUTO_DUAL_MAX_DIM`` dimensions, batch above).  ``None`` (the
        default) reads the ``REPRO_DEFAULT_ENGINE`` environment variable
        and falls back to ``"auto"``.  All engines produce bit-for-bit
        identical densities, dependencies and labels (property-tested);
        baselines that have no batch/dual kernels simply ignore the flag.
    dual_frontier:
        Number of independent work units the dual engine expands its
        traversals into (the canonical chunking shared by every execution
        backend, so results and work counters stay backend-invariant).
        ``"auto"`` (the default) sizes the frontier from the fitted data
        size and leaf size (:func:`repro.index.kdtree.adaptive_dual_frontier`
        -- deterministic, so replays are identical); an explicit positive
        integer pins it.  ``None`` reads the ``REPRO_DUAL_FRONTIER``
        environment variable and falls back to ``"auto"``.  The value
        resolved at fit time is exposed as ``dual_frontier_`` and recorded
        in ``get_params()`` -- and therefore in model snapshots -- so
        restored models stay counter-deterministic.
    kernel:
        Blocked distance-kernel tier of the hot paths: ``"numpy"`` (always
        available), ``"numba"`` (JIT-compiled loops), or ``"auto"``
        (numba when installed, else numpy).  ``None`` reads the ``REPRO_KERNEL`` environment
        variable and falls back to ``"auto"``.  Every tier produces
        bit-identical results and work counters (property-tested), so the
        choice is purely a performance knob; requesting a tier whose
        optional dependency is missing raises at dispatch time.  See
        ``docs/kernels.md``.
    """

    #: Human-readable algorithm name; subclasses override.
    algorithm_name: str = "density-peaks"

    #: Whether this estimator supports the re-cluster-at-any-parameter index
    #: (:mod:`repro.core.recluster`).  Only exact algorithms whose density /
    #: dependency definitions are pure functions of ``(points, d_cut, seed)``
    #: can replay a cold fit from persisted profiles; approximate algorithms
    #: entangle ``d_cut`` with their index construction and must refit.
    supports_recluster: bool = False

    def __init__(
        self,
        d_cut: float,
        *,
        rho_min: float | None = None,
        delta_min: float | None = None,
        n_clusters: int | None = None,
        n_jobs: int = 1,
        backend: str | None = None,
        seed: int | None = 0,
        record_costs: bool = True,
        engine: str | None = None,
        dual_frontier=None,
        kernel: str | None = None,
    ):
        self.d_cut = check_positive(d_cut, "d_cut")
        self.backend = resolve_backend(backend)
        self.engine = resolve_engine(engine)
        self.dual_frontier = resolve_dual_frontier(dual_frontier)
        self.kernel = resolve_kernel(kernel)
        self.rho_min = None if rho_min is None else check_non_negative(rho_min, "rho_min")
        if delta_min is not None and n_clusters is not None:
            raise ValueError("delta_min and n_clusters are mutually exclusive")
        if delta_min is None and n_clusters is None:
            raise ValueError(
                "specify either delta_min (threshold on dependent distance) or "
                "n_clusters (number of centers to select); inspect "
                "DPCResult.decision_graph() to choose a threshold"
            )
        self.delta_min = None if delta_min is None else check_positive(delta_min, "delta_min")
        if self.delta_min is not None and self.delta_min <= self.d_cut:
            raise ValueError(
                f"delta_min ({self.delta_min}) must exceed d_cut ({self.d_cut}); "
                "see Definition 5 of the paper"
            )
        self.n_clusters = n_clusters
        if n_clusters is not None and int(n_clusters) <= 0:
            raise ValueError(f"n_clusters must be positive, got {n_clusters}")
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.seed = seed
        self.record_costs = bool(record_costs)

        # Populated by fit().
        self.result_: DPCResult | None = None

    # ------------------------------------------------------------ subclass API

    @abc.abstractmethod
    def _build_index(self, points: np.ndarray) -> None:
        """Build the algorithm's index structures over ``points``."""

    @abc.abstractmethod
    def _compute_local_density(self, points: np.ndarray) -> np.ndarray:
        """Return the integer local density of every point (Definition 1)."""

    @abc.abstractmethod
    def _compute_dependencies(
        self, points: np.ndarray, rho: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(dependent, delta, exact_mask)``.

        ``dependent[i]`` is the index of point ``i``'s dependent point (``-1``
        for the densest point), ``delta[i]`` its dependent distance and
        ``exact_mask[i]`` whether the dependency was computed exactly.
        """

    def _index_memory_bytes(self) -> int:
        """Approximate memory footprint of the algorithm's index structures."""
        return 0

    def _check_fit_points(self, points) -> np.ndarray:
        """Validate and canonicalise the fit input (hook for subclasses).

        The default materialises a contiguous float64 matrix via
        :func:`~repro.utils.validation.check_points`.  Out-of-core estimators
        (the sharded streaming fit) override this to keep an already
        chunk-validated memmap as-is instead of copying it into RAM.
        """
        return check_points(points, min_points=2, name="points")

    # -------------------------------------------------------------- public API

    def fit(self, points) -> DPCResult:
        """Cluster ``points`` and return a :class:`~repro.core.result.DPCResult`.

        The result is also stored on the estimator as ``self.result_``.
        """
        points = self._check_fit_points(points)
        # Invalidate fitted state up front: _build_index replaces the index in
        # place, so a refit that fails mid-way must leave the estimator
        # *unfitted* (predict refuses) rather than a silent mix of the old
        # result and the new index.
        self.result_ = None
        self._tiebreak_jitter_ = None
        self._recluster_index_ = None
        # engine="auto" resolves against the data dimensionality; the
        # subclass hot paths read the resolved engine through `engine_`.
        self._fit_dim = int(points.shape[1])
        # dual_frontier="auto" resolves against the data size (deterministic
        # in n and leaf size, so replays are identical); the subclass hot
        # paths read the resolved value through `dual_frontier_` and
        # get_params() records it for snapshots.
        if self.dual_frontier == DUAL_FRONTIER_AUTO:
            self._dual_frontier_ = adaptive_dual_frontier(
                points.shape[0], getattr(self, "leaf_size", 32)
            )
        else:
            self._dual_frontier_ = self.dual_frontier
        rng = ensure_rng(self.seed)
        profile = SimulatedMulticore()
        self._profile = profile
        self._executor = ParallelExecutor(self.n_jobs, backend=self.backend)
        self._counter = WorkCounter()
        self._shared_bundle = None
        timings: dict[str, float] = {}
        work: dict[str, float] = {}

        try:
            start_total = time.perf_counter()

            start = time.perf_counter()
            self._build_index(points)
            timings["index_build"] = time.perf_counter() - start

            # Tie-break densities so dependent points are well-defined (§3).
            # The jitter is kept on the estimator (and in model snapshots):
            # re-clustering at a different d_cut re-applies the *same* jitter
            # to the new integer counts, which is what keeps its tie-broken
            # densities -- and therefore its dependency forest -- bit-identical
            # to a cold fit at that d_cut.  Drawn *before* the density phase
            # (it depends only on n and the rng, and this is the rng's first
            # draw, so the values are unchanged): the shard pipeline overlaps
            # the dependency stages with density work and reads the jitter
            # through `_tiebreak_jitter_` to tie-break per-shard densities
            # exactly as this method will.
            jitter = draw_tiebreak_jitter((points.shape[0],), rng)
            self._tiebreak_jitter_ = jitter

            start = time.perf_counter()
            work_before = self._counter.get("distance_calcs")
            rho_raw = np.asarray(self._compute_local_density(points), dtype=np.float64)
            work["density_distance_calcs"] = (
                self._counter.get("distance_calcs") - work_before
            )
            timings["local_density"] = time.perf_counter() - start
            if rho_raw.shape[0] != points.shape[0]:
                raise RuntimeError("local density array has the wrong length")

            rho = rho_raw + jitter

            # Attach the per-node density maxima the nearest-denser join
            # prunes with; also persisted into model snapshots so restored
            # models serve without recomputing them.  Only dual-engine fits
            # ever read them (a later dual `predict` on a batch-fit model
            # computes them lazily through the join's identity-keyed cache),
            # so other engines skip the sweep and keep snapshots lean.
            if self.engine_ == "dual":
                tree = self._predict_tree()
                if tree is not None and hasattr(tree, "attach_density_bounds"):
                    tree.attach_density_bounds(rho)

            start = time.perf_counter()
            work_before = self._counter.get("distance_calcs")
            dependent, delta, exact_mask = self._compute_dependencies(points, rho)
            work["dependency_distance_calcs"] = (
                self._counter.get("distance_calcs") - work_before
            )
            timings["dependency"] = time.perf_counter() - start
            work["total_distance_calcs"] = self._counter.get("distance_calcs")

            start = time.perf_counter()
            labels, centers, noise_mask = assign_clusters(
                rho,
                rho_raw,
                delta,
                dependent,
                rho_min=self.rho_min,
                delta_min=self.delta_min,
                n_clusters=self.n_clusters,
            )
            timings["assignment"] = time.perf_counter() - start
            timings["total"] = time.perf_counter() - start_total

            self._scale_profile_to_timings(profile, timings)
            memory_bytes = self._total_memory_bytes(points)
        finally:
            self._release_parallel_resources()

        self._fit_points_ = points  # only on success, matching result_
        self._tiebreak_jitter_ = jitter
        dependent = np.asarray(dependent, dtype=np.intp).copy()
        dependent_raw = dependent.copy()
        dependent[centers] = -1  # a center's dependent point is itself (§2.1)

        result = DPCResult(
            labels_=labels,
            rho_=rho,
            rho_raw_=canonical_rho_raw(rho_raw),
            delta_=np.asarray(delta, dtype=np.float64),
            dependent_=dependent,
            centers_=np.asarray(centers, dtype=np.intp),
            noise_mask_=np.asarray(noise_mask, dtype=bool),
            n_clusters_=int(len(centers)),
            exact_dependency_mask_=np.asarray(exact_mask, dtype=bool),
            timings_=timings,
            work_=work,
            memory_bytes_=memory_bytes,
            parallel_profile_=profile,
            params_=self.get_params(),
            algorithm_=self.algorithm_name,
            dependent_raw_=dependent_raw,
        )
        self.result_ = result
        return result

    def fit_predict(self, points) -> np.ndarray:
        """Cluster ``points`` and return only the label array."""
        return self.fit(points).labels_

    @property
    def engine_(self) -> str:
        """The effective query engine of the current/last fit.

        Identical to :attr:`engine` for concrete engines; ``"auto"``
        resolves against the fitted data dimensionality (and therefore
        requires a fit or a restored snapshot).
        """
        if self.engine != "auto":
            return self.engine
        dim = getattr(self, "_fit_dim", None)
        if dim is None:
            points = getattr(self, "_fit_points_", None)
            if points is None:
                raise RuntimeError(
                    "engine='auto' resolves against the data dimensionality; "
                    "fit the estimator (or load a snapshot) first"
                )
            dim = points.shape[1]
        return effective_engine(self.engine, dim)

    @property
    def dual_frontier_(self) -> int:
        """The resolved dual-frontier target of the current/last fit.

        Identical to :attr:`dual_frontier` for explicit integer values;
        ``"auto"`` resolves against the fitted data size via
        :func:`repro.index.kdtree.adaptive_dual_frontier` (and therefore
        requires a fit or a restored snapshot).
        """
        value = getattr(self, "_dual_frontier_", None)
        if value is not None:
            return value
        if self.dual_frontier != DUAL_FRONTIER_AUTO:
            return self.dual_frontier
        points = getattr(self, "_fit_points_", None)
        if points is None:
            raise RuntimeError(
                "dual_frontier='auto' resolves against the fitted data size; "
                "fit the estimator (or load a snapshot) first"
            )
        value = adaptive_dual_frontier(
            points.shape[0], getattr(self, "leaf_size", 32)
        )
        self._dual_frontier_ = value
        return value

    # ----------------------------------------------------------- re-clustering

    def recluster_index(self, *, d_cut_max: float | None = None, rebuild: bool = False):
        """Build (and cache) the re-cluster-at-any-parameter index.

        The index persists every point's sorted neighbor-distance profile up
        to ``d_cut_max`` (default: twice the fitted ``d_cut``) plus the fitted
        dependency forest; :meth:`repro.core.recluster.ReclusterIndex.recluster`
        then answers any ``(d_cut, rho_min, delta_min)`` with labels
        bit-identical to a cold :meth:`fit` at those parameters, at a fraction
        of the cost.  Only estimators with ``supports_recluster = True``
        (Ex-DPC) can build one.  The index is cached on the estimator and
        reused by :meth:`recluster`; pass ``rebuild=True`` (or a different
        ``d_cut_max``) to force a fresh build.
        """
        from repro.core.recluster import ReclusterIndex

        cached = getattr(self, "_recluster_index_", None)
        if (
            cached is not None
            and not rebuild
            and (d_cut_max is None or float(d_cut_max) == cached.d_cut_max)
        ):
            return cached
        index = ReclusterIndex.from_estimator(self, d_cut_max=d_cut_max)
        self._recluster_index_ = index
        return index

    def recluster(
        self,
        d_cut: float | None = None,
        *,
        rho_min: float | None = None,
        delta_min: float | None = None,
        n_clusters: int | None = None,
        d_cut_max: float | None = None,
    ) -> DPCResult:
        """Re-cluster the fitted data at new parameters without refitting.

        Convenience wrapper over :meth:`recluster_index`; see
        :meth:`repro.core.recluster.ReclusterIndex.recluster` for the exact
        parameter semantics.  ``d_cut=None`` keeps the fitted cutoff.
        """
        return self.recluster_index(d_cut_max=d_cut_max).recluster(
            d_cut, rho_min=rho_min, delta_min=delta_min, n_clusters=n_clusters
        )

    # ------------------------------------------------------ online prediction

    def check_is_fitted(self) -> DPCResult:
        """Return the fitted result, raising ``RuntimeError`` if unfitted."""
        if self.result_ is None or getattr(self, "_fit_points_", None) is None:
            raise RuntimeError(
                f"this {type(self).__name__} instance is not fitted yet; "
                "call fit() (or load a snapshot with repro.io.load_model) first"
            )
        return self.result_

    def predict(self, points, *, float32_recheck: bool | None = None) -> np.ndarray:
        """Assign out-of-sample ``points`` to the fitted clusters.

        Each query point ``q`` follows the same rule ``fit`` applies to every
        non-center point (Definition 6, one step beyond the training set):

        1. ``q``'s local density is the number of *fitted* points strictly
           within ``d_cut`` (for a point of the training set this reproduces
           its fitted density exactly);
        2. ``q`` attaches to its dependency target -- the nearest fitted point
           with higher (tie-broken) density -- and inherits that point's
           cluster label, labels forwarding through fitted noise points just
           as they do during ``fit``'s propagation;
        3. mirroring ``fit``'s noise rule (Definition 4), queries whose
           density falls below ``rho_min`` are labelled ``-1``.

        A query denser than every fitted point (a brand-new density peak)
        attaches to its plain nearest neighbour -- serving cannot mint new
        clusters; refit (or stream with :class:`repro.stream.StreamingDPC`)
        to materialise new structure.

        Consequently ``predict`` on the training matrix returns ``fit``'s own
        labels: every training point resolves to itself at distance zero
        because its tie-broken density exceeds its integer density.

        The density and attachment passes are issued as chunked batch queries
        through the estimator's executor, so ``n_jobs``/``backend`` behave as
        in :meth:`fit` (the process backend ships the fitted kd-tree and
        densities to workers through shared memory; index-free estimators
        fall back to threads).

        ``float32_recheck`` controls the float32 serving policy on
        float32-storage models: the density pass still runs the float32
        kernels, but queries with a fitted point within a few float32 ulps
        of ``d_cut`` get their density recomputed with the exact float64
        arithmetic over the original coordinates
        (:func:`repro.core.predict.float32_density_recheck`), so the density
        -- and therefore the noise test and attachment eligibility -- match
        the float64 counts for every query inside the documented accuracy
        envelope (``docs/performance.md``).  The flag is a no-op on float64
        models.

        .. note:: **Changed default.** The re-check used to be opt-in (the
           predict server enabled it; the library default was off).  It is
           now the library-wide default for float32 models
           (``float32_recheck=None`` resolves to ``True`` when the model's
           storage dtype is float32).  Pass ``float32_recheck=False`` to
           restore the raw float32 counts -- note the fitted labels
           themselves are defined by the float32 counts, so re-checking the
           training matrix can legitimately diverge from ``labels_`` for
           queries at the cutoff.
        """
        if float32_recheck is None:
            float32_recheck = getattr(self, "dtype", "float64") == "float32"
        result = self.check_is_fitted()
        dim = self._fit_points_.shape[1]
        queries = np.asarray(points, dtype=np.float64)
        if queries.ndim == 1 and queries.shape[0] == dim:
            queries = queries.reshape(1, -1)  # a bare (d,) vector is one query
        queries = check_points(queries, min_points=1, name="points")
        if queries.shape[1] != dim:
            raise ValueError(
                f"query points have dimension {queries.shape[1]}, "
                f"but the model was fitted on dimension {dim}"
            )
        if getattr(self, "_counter", None) is None:
            self._counter = WorkCounter()
        # One executor per call: concurrent predicts (the serving scenario)
        # each own their pool and, on the process backend, their shared-memory
        # bundle; close() tears both down.
        executor = ParallelExecutor(self.n_jobs, backend=self.backend)
        try:
            rho_q = self._predict_density(queries, executor)
            if float32_recheck and getattr(self, "dtype", "float64") == "float32":
                exact, uncertain = float32_density_recheck(
                    self._fit_points_, queries, self.d_cut, counter=self._counter
                )
                rho_q = np.where(uncertain, exact.astype(np.float64), rho_q)
            targets = self._predict_attach(queries, rho_q, executor)
        finally:
            executor.close()

        attach = self._attachment_labels()
        labels = np.where(targets >= 0, attach[np.clip(targets, 0, None)], NOISE_LABEL)
        if self.rho_min is not None:
            labels = np.where(rho_q < self.rho_min, NOISE_LABEL, labels)
        return labels.astype(np.int64)

    def _attachment_labels(self) -> np.ndarray:
        """Per-training-point labels used for attachment (cached per result).

        Label propagation *without* the final noise masking: a fitted noise
        point forwards its chain root's label (exactly as inside ``fit``), so
        a query attaching to a border point still lands in the right cluster;
        the query's own ``rho_min`` test decides its noise status.
        """
        result = self.check_is_fitted()
        cached = getattr(self, "_attach_labels_cache", None)
        if cached is not None and cached[0] is result:
            return cached[1]
        dependent = (
            result.dependent_raw_
            if result.dependent_raw_ is not None
            else result.dependent_
        )
        labels = propagate_labels(
            dependent, result.centers_, np.zeros(result.n_points, dtype=bool)
        )
        self._attach_labels_cache = (result, labels)
        return labels

    def _predict_tree(self):
        """The fitted kd-tree used by the predict hot path (``None``: brute force)."""
        return getattr(self, "_tree", None)

    def _predict_shared_arrays(self) -> dict[str, np.ndarray] | None:
        """Arrays published to worker processes for the predict phases."""
        tree = self._predict_tree()
        if tree is None:
            return None
        arrays = pack_tree_arrays(tree)
        arrays["rho"] = np.asarray(self.result_.rho_, dtype=np.float64)
        return arrays

    def _predict_process_task(self, executor, kernel, payload_fn) -> ChunkTask | None:
        """Process-backend descriptor for one predict phase (cf. ``_process_task``).

        The backing segment is created on first use and stored on the
        per-call ``executor`` (created and torn down inside :meth:`predict`),
        so concurrent predict calls never share or clobber each other's
        bundle.
        """
        if executor.backend != "process":
            return None
        if executor._predict_bundle is None:
            arrays = self._predict_shared_arrays()
            if arrays is None:
                return None
            executor._predict_bundle = SharedArrayBundle.create(arrays)
        return ChunkTask(
            kernel=kernel,
            spec=executor._predict_bundle.spec,
            payload_fn=payload_fn,
            counter=self._counter,
        )

    def _dual_density_vs_tree(self, tree, queries: np.ndarray) -> np.ndarray:
        """Dual-tree join of out-of-sample ``queries`` against the fitted tree.

        Builds a throwaway kd-tree over the queries (same storage dtype,
        leaves sized to the batch: :meth:`KDTree.for_queries`) and runs one
        simultaneous traversal instead of per-chunk batch counts; the result
        is bit-for-bit identical to the batch path.  Driver-side on every
        backend, so results and work counters are backend-independent.
        """
        from repro.index.kdtree import KDTree

        query_tree = KDTree.for_queries(queries, tree)
        return tree.range_count_dual_vs(query_tree, self.d_cut, strict=True)

    def _predict_density(self, queries: np.ndarray, executor) -> np.ndarray:
        """Raw (integer-scale) local density of each query over the fitted set."""
        tree = self._predict_tree()
        d_cut = self.d_cut
        n_q = queries.shape[0]
        if tree is not None and self.engine_ == "dual" and n_q:
            return self._dual_density_vs_tree(tree, queries).astype(np.float64)
        if tree is not None:
            task = self._predict_process_task(
                executor,
                kernel_predict_density,
                lambda chunk: {"queries": queries[chunk], "d_cut": d_cut},
            )

            def count_chunk(chunk: np.ndarray) -> np.ndarray:
                return tree.range_count_batch(queries[chunk], d_cut, strict=True)

            counts = executor.map_index_chunks(count_chunk, n_q, task=task)
        else:
            train = self._fit_points_
            counter = self._counter

            def count_chunk(chunk: np.ndarray) -> np.ndarray:
                return predict_density_bruteforce(
                    train, queries[chunk], d_cut, counter=counter
                )

            counts = executor.map_index_chunks(count_chunk, n_q)
        if not counts:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate(counts).astype(np.float64)

    def _predict_attach(
        self, queries: np.ndarray, rho_q: np.ndarray, executor
    ) -> np.ndarray:
        """Dependency target (nearest denser fitted point) of each query.

        Routed through the unified nearest-denser join layer
        (:func:`repro.core.dependency_join.attach_targets`): the batch and
        scalar engines run the escalating-kNN search in executor chunks,
        ``engine="dual"`` joins a throwaway tree over the queries against
        the fitted tree in one simultaneous traversal.  Index-free
        estimators fall back to the brute-force kernel.
        """
        result = self.result_
        rho_train = np.asarray(result.rho_, dtype=np.float64)
        tree = self._predict_tree()
        n_q = queries.shape[0]
        if tree is not None:
            task = self._predict_process_task(
                executor,
                kernel_predict_attach,
                lambda chunk: {"queries": queries[chunk], "rho_q": rho_q[chunk]},
            )
            return attach_targets(
                tree,
                rho_train,
                queries,
                rho_q,
                engine=self.engine_,
                executor=executor,
                process_task=task,
            )

        train = self._fit_points_
        counter = self._counter

        def attach_chunk(chunk: np.ndarray) -> np.ndarray:
            return nearest_denser_bruteforce(
                train, rho_train, queries[chunk], rho_q[chunk], counter=counter
            )

        chunks = executor.map_index_chunks(attach_chunk, n_q)
        if not chunks:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(chunks).astype(np.intp)

    def get_params(self) -> dict[str, Any]:
        """Return the estimator parameters as a plain dictionary."""
        return {
            "algorithm": self.algorithm_name,
            "d_cut": self.d_cut,
            "rho_min": self.rho_min,
            "delta_min": self.delta_min,
            "n_clusters": self.n_clusters,
            "n_jobs": self.n_jobs,
            "backend": self.backend,
            "seed": self.seed,
            "engine": self.engine,
            # The resolved (integer) frontier once fitted, so snapshots of an
            # "auto" fit replay with the identical decomposition and work
            # counters; symbolic before fit.
            "dual_frontier": getattr(self, "_dual_frontier_", None)
            or self.dual_frontier,
            "kernel": self.kernel,
        }

    def __repr__(self) -> str:
        params = ", ".join(
            f"{key}={value!r}"
            for key, value in self.get_params().items()
            if key != "algorithm" and value is not None
        )
        return f"{type(self).__name__}({params})"

    # ----------------------------------------------------------------- helpers

    def _record_phase(
        self,
        name: str,
        policy: str,
        task_costs,
        serial_overhead: float = 0.0,
    ) -> None:
        """Record a parallel phase on the current run's profile (if enabled)."""
        if not self.record_costs:
            return
        self._profile.add_phase(name, policy, task_costs, serial_overhead)

    def _scale_profile_to_timings(
        self, profile: SimulatedMulticore, timings: dict[str, float]
    ) -> None:
        """Rescale recorded per-task cost estimates to measured phase seconds.

        Subclasses record *relative* per-task costs (the same cost models the
        paper's partitioner uses).  To make simulated makespans comparable to
        wall-clock measurements, each phase's costs are rescaled so that their
        total equals the measured duration of the lifecycle step the phase
        belongs to (phases are named ``"<step>:<detail>"`` or ``"<step>"``).
        """
        step_phase_totals: dict[str, float] = {}
        for phase in profile.phases:
            step = phase.name.split(":", 1)[0]
            step_phase_totals[step] = step_phase_totals.get(step, 0.0) + phase.total_cost
        for phase in profile.phases:
            step = phase.name.split(":", 1)[0]
            measured = timings.get(step)
            recorded_total = step_phase_totals.get(step, 0.0)
            if measured is None or recorded_total <= 0.0:
                continue
            scale = measured / recorded_total
            phase.task_costs = phase.task_costs * scale
            phase.serial_overhead = phase.serial_overhead * scale

    def _total_memory_bytes(self, points: np.ndarray) -> int:
        """Points + index structures + per-point result arrays + shared memory.

        The index term includes the flattened kd-tree arrays (node bounds,
        split dims/values, children, and the point-index permutation; see
        :class:`repro.index.kdtree.KDTreeArrays`) through each algorithm's
        :meth:`_index_memory_bytes`.  The shared-memory segment published for
        the process backend is physical memory paid exactly once -- workers
        map the same pages -- so it is counted once here, never per worker.
        """
        per_point_arrays = 5  # rho, rho_raw, delta, dependent, labels
        return int(
            points.nbytes
            + self._index_memory_bytes()
            + per_point_arrays * 8 * points.shape[0]
            + self._shared_memory_bytes()
        )

    def _shared_memory_bytes(self) -> int:
        """Size of the shared-memory segment published for the process backend."""
        bundle = getattr(self, "_shared_bundle", None)
        return bundle.nbytes if bundle is not None else 0

    # ------------------------------------------------------- process backend

    def _shared_arrays(self) -> dict[str, np.ndarray] | None:
        """Arrays to publish to worker processes (subclass hook).

        Subclasses with process kernels return a flat name -> array mapping
        (typically the point matrix plus the flattened kd-tree via
        :func:`repro.parallel.backends.pack_tree_arrays`); ``None`` (the
        default) means the algorithm has no process kernels and its phases
        fall back to the thread path under the process backend.
        """
        return None

    def _process_task(self, kernel, payload=None, payload_fn=None) -> ChunkTask | None:
        """Build the process-backend task descriptor for one parallel phase.

        Returns ``None`` unless this fit runs on the process backend and the
        subclass publishes shared arrays; the caller then simply passes the
        result as ``task=`` to ``map_index_chunks``, keeping the serial and
        thread paths untouched.  The backing shared-memory segment is created
        on first use and reused by every later phase of the same fit.
        """
        if self._executor.backend != "process":
            return None
        if self._shared_bundle is None:
            arrays = self._shared_arrays()
            if arrays is None:
                return None
            self._shared_bundle = SharedArrayBundle.create(arrays)
        return ChunkTask(
            kernel=kernel,
            spec=self._shared_bundle.spec,
            payload=payload or {},
            payload_fn=payload_fn,
            counter=self._counter,
        )

    def _release_parallel_resources(self) -> None:
        """Tear down the worker pool and the shared-memory segment (fit end).

        Order matters: the pool is drained first so no worker still maps the
        segment, then the owner closes its mapping and unlinks the segment
        name.  ``memory_bytes_`` is computed before this runs.
        """
        executor = getattr(self, "_executor", None)
        if executor is not None:
            executor.close()
        bundle = getattr(self, "_shared_bundle", None)
        if bundle is not None:
            bundle.close()
            bundle.unlink()
            self._shared_bundle = None
