"""Incremental Density-Peaks Clustering over a point stream.

:class:`StreamingDPC` keeps an **exact** Ex-DPC clustering of the current
window alive under point insertions and evictions without refitting from
scratch on every update.  The design has three ingredients:

**Buffered inserts, amortized rebuilds.**  A fitted run owns two indexes: the
static bulk-loaded :class:`~repro.index.kdtree.KDTree` built by the last full
(re)fit over the *base* points, and a dynamic pointer
:class:`~repro.index.kdtree.IncrementalKDTree` holding the *hot buffer* of
points inserted since.  Range queries consult both (evicted base points are
masked out).  Once the number of mutations since the last rebuild reaches a
quarter of the window (and at least 64), the window is cold-fitted again
through the stream's engine, which resets the buffer -- classic
amortization: each rebuild costs one fit but pays for ``Theta(n)`` cheap
updates.

**Localized repair.**  Definition 1 is local: inserting or evicting a point
``q`` changes the density of exactly the points whose ``d_cut``-ball contains
``q``, so those counts are adjusted by ``+-1`` via two range searches.
Dependencies are repaired for the *dirty set*: points whose own tie-broken
density changed, points whose dependency target changed density or was
evicted, and points for which a changed/inserted point became a denser
candidate within their current dependent distance.  Everything else provably
keeps its dependency, which is what makes the update sublinear in practice.
The repair itself is one call into the unified nearest-denser join layer
(:func:`repro.core.dependency_join.repair_nearest_denser`) -- the same
engine that serves ``fit`` and ``predict`` -- so the recomputed pairs are
bit-identical to what a cold fit would produce.
Labels are then re-derived from the repaired arrays; the propagation step is
``O(n)`` and far below the cost of the phases the repair machinery avoids.

**Window discipline.**  The window is a slot array with swap-remove eviction:
surviving points never change slots except for the single point swapped into
an evicted slot.  This matters because the density tie-break of a cold fit is
positional (``random_tiebreak`` draws one uniform per slot from the fit
seed), so slot stability keeps the dirty set small.  The "current window" a
cold fit sees is exactly ``window_``, in slot order.

``refit_equivalence=True`` turns on the self-check mode: after every update
batch the maintained labels (and raw densities) are compared against a cold
``ExDPC().fit`` of the current window and any mismatch raises
:class:`StreamingEquivalenceError`.  Equivalence is bit-for-bit on the raw
densities and on the labels for data in general position (exact distance
ties between distinct candidate pairs may resolve differently, as may
last-ulp coincidences at the ``delta_min`` boundary).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.assignment import assign_clusters
from repro.core.dependency_join import repair_nearest_denser
from repro.core.ex_dpc import ExDPC
from repro.core.result import DPCResult, canonical_rho_raw
from repro.index.kdtree import IncrementalKDTree, KDTree
from repro.kernels import pair_distances_sq, resolve_kernel
from repro.utils.counters import WorkCounter
from repro.utils.rng import ensure_rng, random_tiebreak
from repro.utils.validation import check_points, check_positive, check_positive_int

__all__ = ["StreamingDPC", "StreamingEquivalenceError"]

#: ``_dependent`` sentinel: the stored target was evicted, recompute.
_STALE = -2


class StreamingEquivalenceError(AssertionError):
    """Raised in ``refit_equivalence`` mode when the incremental state diverges
    from a cold fit of the current window."""


class StreamingDPC:
    """Exact DPC over a sliding or landmark window of a point stream.

    Parameters
    ----------
    d_cut:
        Cutoff distance of Definition 1 (shared with the wrapped Ex-DPC).
    window_size:
        Maximum number of live points.  ``None`` (landmark mode) never
        evicts; otherwise :meth:`update` evicts the oldest points to make
        room (sliding window).
    rho_min, delta_min, n_clusters:
        Center / noise selection, as in
        :class:`~repro.core.framework.DensityPeaksBase`.
    seed:
        Tie-break seed.  Must stay fixed for the lifetime of the stream; it
        is what makes incremental state and cold refits agree.
    leaf_size:
        kd-tree leaf size for rebuilds and snapshots.
    refit_equivalence:
        Self-check mode: verify every update against a cold fit (slow --
        meant for tests and debugging, not production).
    engine:
        Query engine of the wrapped Ex-DPC (``"scalar"``, ``"batch"``,
        ``"dual"`` or ``"auto"``; ``None`` reads ``REPRO_DEFAULT_ENGINE``
        and falls back to ``"auto"``, which is dual up to 5 dimensions).
        With ``"dual"`` the amortized rebuilds run the density phase as a
        dual-tree self-join -- results are bit-for-bit identical on every
        engine.  :meth:`predict` joins new points against the window tree
        with one simultaneous traversal whatever the engine.
    kernel:
        Blocked kernel tier of every distance evaluation (``"auto"``,
        ``"numpy"``, ``"numba"``; ``None`` reads ``REPRO_KERNEL``).  Tiers
        are bit-identical, so the stream's incremental state is portable
        across machines with and without numba -- see ``docs/kernels.md``.

    Attributes
    ----------
    labels_, centers_, noise_mask_:
        Current clustering of the window, identical to what a cold
        ``ExDPC(...).fit(window_)`` would produce.
    stats_:
        Operation counters: inserts, evicts, repairs, rebuilds, dirty-set
        sizes, equivalence checks.

    An operation that raises part-way (for example ``ValueError: no cluster
    centers selected`` when the new window has no eligible center) leaves
    the stream unfitted, exactly like a failed
    :meth:`~repro.core.framework.DensityPeaksBase.fit`: :meth:`insert`,
    :meth:`update`, :meth:`evict_oldest`, :meth:`predict` and ``window_``
    then raise until the next successful :meth:`fit`.
    """

    #: Mutations (inserts + evicts), as a fraction of the window size, that
    #: trigger a full amortized rebuild.
    _REBUILD_THRESHOLD = 0.25
    #: Never rebuild before this many mutations accumulate (keeps tiny
    #: windows from rebuilding constantly).
    _MIN_REBUILD = 64
    #: Dirty points processed per vectorised repair block.
    _REPAIR_CHUNK = 256

    def __init__(
        self,
        d_cut: float,
        *,
        window_size: int | None = None,
        rho_min: float | None = None,
        delta_min: float | None = None,
        n_clusters: int | None = None,
        seed: int | None = 0,
        leaf_size: int = 32,
        refit_equivalence: bool = False,
        engine: str | None = None,
        kernel: str | None = None,
    ):
        from repro.core.framework import resolve_engine

        self.engine = resolve_engine(engine)
        self.kernel = resolve_kernel(kernel)
        self.d_cut = check_positive(d_cut, "d_cut")
        if window_size is not None:
            window_size = check_positive_int(window_size, "window_size")
            if window_size < 2:
                raise ValueError("window_size must be at least 2")
        self.window_size = window_size
        self.rho_min = rho_min
        self.delta_min = delta_min
        self.n_clusters = n_clusters
        self.seed = seed
        self.leaf_size = check_positive_int(leaf_size, "leaf_size")
        self.refit_equivalence = bool(refit_equivalence)
        # Validate the center-selection parameters eagerly (ExDPC rejects
        # inconsistent combinations with the library's standard messages).
        self._make_estimator()

        self._counter = WorkCounter()
        self._n = 0
        self._dim: int | None = None
        self._base_tree: KDTree | None = None
        self._epoch = 0
        self.labels_: np.ndarray | None = None
        self.centers_: np.ndarray | None = None
        self.noise_mask_: np.ndarray | None = None
        self.stats_: dict[str, int] = {
            "inserts": 0,
            "evicts": 0,
            "repairs": 0,
            "rebuilds": 0,
            "dirty_density": 0,
            "dirty_dependency": 0,
            "equivalence_checks": 0,
        }

    # ---------------------------------------------------------------- plumbing

    def _make_estimator(self) -> ExDPC:
        """A fresh Ex-DPC configured exactly like a cold fit of this stream."""
        return ExDPC(
            self.d_cut,
            rho_min=self.rho_min,
            delta_min=self.delta_min,
            n_clusters=self.n_clusters,
            seed=self.seed,
            leaf_size=self.leaf_size,
            backend="serial",
            record_costs=False,
            engine=self.engine,
            kernel=self.kernel,
        )

    def _effective_engine(self) -> str:
        """The concrete engine of this stream (``"auto"`` resolves by dim)."""
        from repro.core.framework import effective_engine

        return effective_engine(self.engine, self._dim or 0)

    def _check_fitted(self) -> None:
        if self._base_tree is None:
            raise RuntimeError(
                "this StreamingDPC instance is not fitted yet; call fit() with "
                "the initial window first"
            )

    @contextmanager
    def _unfitted_on_error(self):
        """Leave the stream unfitted if the wrapped mutation raises part-way.

        The window arrays may already describe the new window while the
        index and clustering still describe the old one; dropping the
        fitted state makes every later operation refuse until a new fit.
        """
        try:
            yield
        except BaseException:
            self._base_tree = None
            self.labels_ = self.centers_ = self.noise_mask_ = None
            raise

    @property
    def n_points(self) -> int:
        """Number of points currently in the window."""
        return self._n

    @property
    def window_(self) -> np.ndarray:
        """The current window in slot order (the array a cold fit would see)."""
        self._check_fitted()
        return self._points[: self._n].copy()

    def _ensure_capacity(self, extra: int) -> None:
        need = self._n + extra
        capacity = self._points.shape[0]
        if need <= capacity:
            return
        new_capacity = max(need, 2 * capacity)
        for name in (
            "_points",
            "_age",
            "_rho_raw",
            "_rho",
            "_delta",
            "_dependent",
            "_slot_base",
            "_slot_hot",
        ):
            old = getattr(self, name)
            shape = (new_capacity,) + old.shape[1:]
            grown = np.empty(shape, dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    # -------------------------------------------------------------- public API

    def fit(self, points) -> "StreamingDPC":
        """Cold-fit the initial window and return ``self``."""
        points = check_points(points, min_points=2, name="points")
        if self.window_size is not None and points.shape[0] > self.window_size:
            raise ValueError(
                f"initial window has {points.shape[0]} points, which exceeds "
                f"window_size={self.window_size}"
            )
        with self._unfitted_on_error():
            n, self._dim = points.shape
            capacity = max(n, self.window_size or 0, 8)
            self._points = np.empty((capacity, self._dim), dtype=np.float64)
            self._points[:n] = points
            self._age = np.empty(capacity, dtype=np.int64)
            self._age[:n] = np.arange(n)
            self._next_age = n
            self._rho_raw = np.zeros(capacity, dtype=np.float64)
            self._rho = np.zeros(capacity, dtype=np.float64)
            self._delta = np.zeros(capacity, dtype=np.float64)
            self._dependent = np.full(capacity, -1, dtype=np.intp)
            self._slot_base = np.full(capacity, -1, dtype=np.intp)
            self._slot_hot = np.full(capacity, -1, dtype=np.intp)
            self._n = n
            self._rebuild()
            if self.refit_equivalence:
                self._check_equivalence()
        return self

    def insert(self, points) -> "StreamingDPC":
        """Insert points into the window (no eviction; see :meth:`update`)."""
        self._check_fitted()
        points = self._check_stream_points(points)
        if (
            self.window_size is not None
            and self._n + points.shape[0] > self.window_size
        ):
            raise ValueError(
                f"inserting {points.shape[0]} points would exceed "
                f"window_size={self.window_size}; use update() for sliding-"
                "window semantics"
            )
        with self._unfitted_on_error():
            for row in points:
                self._insert_one(row)
            self._finish_update()
        return self

    def evict_oldest(self, count: int = 1) -> "StreamingDPC":
        """Evict the ``count`` oldest points from the window."""
        self._check_fitted()
        count = check_positive_int(count, "count")
        if self._n - count < 2:
            raise ValueError(
                f"evicting {count} points would shrink the window below 2"
            )
        with self._unfitted_on_error():
            for _ in range(count):
                self._evict_slot(int(np.argmin(self._age[: self._n])))
            self._finish_update()
        return self

    def update(self, points) -> "StreamingDPC":
        """Insert points, evicting the oldest first when the window is full."""
        self._check_fitted()
        points = self._check_stream_points(points)
        with self._unfitted_on_error():
            for row in points:
                if self.window_size is not None and self._n >= self.window_size:
                    # The insert immediately below restores the population, so
                    # the window may transiently hold one point
                    # (transient=True); repairs only run after the batch, on a
                    # full window.
                    self._evict_slot(
                        int(np.argmin(self._age[: self._n])), transient=True
                    )
                self._insert_one(row)
            self._finish_update()
        return self

    def predict(self, points) -> np.ndarray:
        """Assign out-of-sample points against the current window state."""
        return self.to_estimator().predict(points)

    def to_estimator(self) -> ExDPC:
        """Materialise the current state as a fitted :class:`ExDPC`.

        The returned estimator carries the maintained arrays as its result, a
        freshly bulk-loaded kd-tree over the window (cheap: no density or
        dependency work), and supports ``predict`` and
        :func:`repro.io.save_model` -- the fit-once / snapshot / serve recipe
        of ``docs/streaming.md``.  Cached until the next update.
        """
        self._check_fitted()
        cached = getattr(self, "_estimator_cache", None)
        if cached is not None and cached[0] == self._epoch:
            return cached[1]
        n = self._n
        points = self._points[:n].copy()
        estimator = self._make_estimator()
        estimator._fit_points_ = points
        estimator._counter = WorkCounter()
        estimator._tree = KDTree(
            points,
            leaf_size=self.leaf_size,
            counter=estimator._counter,
            kernel=self.kernel,
        )
        rho_raw = self._rho_raw[:n].copy()
        dependent_raw = self._dependent[:n].copy()
        dependent = dependent_raw.copy()
        dependent[self.centers_] = -1
        estimator.result_ = DPCResult(
            labels_=self.labels_.copy(),
            rho_=self._rho[:n].copy(),
            rho_raw_=canonical_rho_raw(rho_raw),
            delta_=self._delta[:n].copy(),
            dependent_=dependent,
            centers_=self.centers_.copy(),
            noise_mask_=self.noise_mask_.copy(),
            n_clusters_=int(self.centers_.shape[0]),
            exact_dependency_mask_=np.ones(n, dtype=bool),
            params_=estimator.get_params(),
            algorithm_=estimator.algorithm_name,
            dependent_raw_=dependent_raw,
        )
        self._estimator_cache = (self._epoch, estimator)
        return estimator

    # ------------------------------------------------------------- ingest ops

    def _check_stream_points(self, points) -> np.ndarray:
        points = check_points(np.atleast_2d(np.asarray(points, dtype=np.float64)),
                              name="points")
        if points.shape[1] != self._dim:
            raise ValueError(
                f"stream points have dimension {points.shape[1]}, "
                f"but the window holds dimension {self._dim}"
            )
        return points

    def _window_range(self, query: np.ndarray, radius: float) -> np.ndarray:
        """Slots of live window points strictly within ``radius`` of ``query``."""
        slots: list[np.ndarray] = []
        base_hits = self._base_tree.range_search(query, radius, strict=True)
        if base_hits.size:
            mapped = self._base_slot[base_hits]
            slots.append(mapped[mapped >= 0])
        if self._hot.size:
            hot_hits = self._hot.range_search(query, radius, strict=True)
            if hot_hits.size:
                mapped = self._hot_slot[: self._hot_count][hot_hits]
                slots.append(mapped[mapped >= 0])
        if not slots:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(slots)

    def _insert_one(self, point: np.ndarray) -> None:
        """Append one point and apply the localized density repair."""
        self._ensure_capacity(1)
        slot = self._n
        self._points[slot] = point
        self._age[slot] = self._next_age
        self._next_age += 1
        hot_index = self._hot.append(point)
        if self._hot_count == self._hot_slot.shape[0]:
            # Geometric growth: a run of k buffered inserts stays O(k) total.
            grown = np.empty(max(8, 2 * self._hot_slot.shape[0]), dtype=np.intp)
            grown[: self._hot_count] = self._hot_slot[: self._hot_count]
            self._hot_slot = grown
        self._hot_slot[self._hot_count] = slot
        self._hot_count += 1
        self._slot_hot[slot] = hot_index
        self._slot_base[slot] = -1
        # Fresh slots start from a value the repair pass always flags dirty.
        self._rho_raw[slot] = 0.0
        self._rho[slot] = -1.0
        self._delta[slot] = np.inf
        self._dependent[slot] = -1
        self._n += 1

        # Localized density repair: only the d_cut-ball of the new point
        # changes (the search includes the point itself, matching the strict
        # self-count of Definition 1).
        neighbors = self._window_range(point, self.d_cut)
        others = neighbors[neighbors != slot]
        self._rho_raw[others] += 1.0
        self._rho_raw[slot] = float(neighbors.size)
        self.stats_["inserts"] += 1
        self.stats_["dirty_density"] += int(neighbors.size)
        self._mutations += 1

    def _evict_slot(self, slot: int, *, transient: bool = False) -> None:
        """Remove the point in ``slot`` (swap-remove) with density repair.

        ``transient=True`` (update's paired evict+insert) allows the window
        to hold a single point between the two halves of the pair.
        """
        if self._n <= (1 if transient else 2):
            raise ValueError("window cannot shrink below 2 points")
        n = self._n
        point = self._points[slot].copy()

        # Localized density repair for the survivors.
        neighbors = self._window_range(point, self.d_cut)
        others = neighbors[neighbors != slot]
        self._rho_raw[others] -= 1.0
        self.stats_["dirty_density"] += int(others.size)

        # Points that depended on the evicted one must recompute.
        stale = np.flatnonzero(self._dependent[:n] == slot)
        self._dependent[stale] = _STALE

        # Unregister from whichever index holds the point.
        base_index = self._slot_base[slot]
        hot_index = self._slot_hot[slot]
        if base_index >= 0:
            self._base_slot[base_index] = -1
        if hot_index >= 0:
            self._hot_slot[hot_index] = -1

        last = n - 1
        if slot != last:
            # Swap-remove: the point in the last slot moves into the hole.
            # Its coordinates (hence all distances) are unchanged; only its
            # positional tie-break fraction changes, which the repair pass
            # detects through the rho comparison.
            for name in ("_points", "_age", "_rho_raw", "_rho", "_delta", "_dependent"):
                getattr(self, name)[slot] = getattr(self, name)[last]
            mover_base = self._slot_base[last]
            mover_hot = self._slot_hot[last]
            self._slot_base[slot] = mover_base
            self._slot_hot[slot] = mover_hot
            if mover_base >= 0:
                self._base_slot[mover_base] = slot
            if mover_hot >= 0:
                self._hot_slot[mover_hot] = slot
            moved_refs = np.flatnonzero(self._dependent[:last] == last)
            self._dependent[moved_refs] = slot
        self._n = last
        self.stats_["evicts"] += 1
        self._mutations += 1

    # ------------------------------------------------------------------ repair

    def _finish_update(self) -> None:
        """Repair (or rebuild) dependencies/labels after a batch of ingest ops."""
        threshold = max(self._MIN_REBUILD, int(self._REBUILD_THRESHOLD * self._n))
        if self._mutations >= threshold:
            # A rebuild recomputes everything from the window; the repair
            # pass would be redundant work.
            self._rebuild()
        else:
            self._repair()
            self._epoch += 1
        if self.refit_equivalence:
            self._check_equivalence()

    def _repair(self) -> None:
        n = self._n
        points = self._points[:n]
        delta_old = self._delta[:n].copy()

        # Recompute the positional tie-break exactly as a cold fit would: the
        # same seed draws the same fraction for every stable slot, so the
        # changed set is precisely {raw density changed} | {slot changed}.
        old_rho = self._rho[:n].copy()
        new_rho = random_tiebreak(self._rho_raw[:n], ensure_rng(self.seed))
        self._rho[:n] = new_rho
        changed = np.flatnonzero(new_rho != old_rho)

        dirty = np.zeros(n, dtype=bool)
        dirty[changed] = True
        dependent = self._dependent[:n]
        dirty[dependent == _STALE] = True
        # Points whose dependency target changed density (it may have dropped
        # out of their denser set).
        valid = dependent >= 0
        changed_mask = np.zeros(n, dtype=bool)
        changed_mask[changed] = True
        dirty[valid & changed_mask[np.where(valid, dependent, 0)]] = True

        # Points for which a changed/inserted point became a denser candidate
        # within their current dependent distance (<= keeps equal-distance
        # candidates eligible for the smallest-index tie-break).
        if changed.size:
            delta_sq = np.square(delta_old)
            for start in range(0, changed.size, self._REPAIR_CHUNK):
                block = changed[start : start + self._REPAIR_CHUNK]
                d_sq = pair_distances_sq(points[block], points)
                self._counter.add("distance_calcs", float(block.size) * float(n))
                cond = (new_rho[block][:, None] > new_rho[None, :]) & (
                    d_sq <= delta_sq[None, :]
                )
                dirty |= cond.any(axis=0)

        repair = np.flatnonzero(dirty)
        if repair.size:
            # Unified nearest-denser join (same tie-break and arithmetic as
            # fit and predict): no fallback -- a point denser than all others
            # is the forest root (dependent -1, delta inf), exactly as in a
            # cold fit.  With engine="dual" and a large enough dirty set the
            # join runs dual-tree; the engine choice never changes a bit of
            # the result.
            targets, distances = repair_nearest_denser(
                points,
                new_rho,
                points[repair],
                new_rho[repair],
                engine=self._effective_engine(),
                counter=self._counter,
                leaf_size=self.leaf_size,
                kernel=self.kernel,
            )
            self._dependent[repair] = targets
            self._delta[repair] = distances

        self.labels_, self.centers_, self.noise_mask_ = assign_clusters(
            new_rho,
            self._rho_raw[:n],
            self._delta[:n],
            self._dependent[:n],
            rho_min=self.rho_min,
            delta_min=self.delta_min,
            n_clusters=self.n_clusters,
        )
        self.stats_["repairs"] += 1
        self.stats_["dirty_dependency"] += int(repair.size)

    # ----------------------------------------------------------------- rebuild

    def _rebuild(self) -> None:
        """Amortized full rebuild: cold-fit the window through the stream's engine."""
        n = self._n
        base_points = self._points[:n].copy()
        model = self._make_estimator()
        result = model.fit(base_points)
        self._base_tree = model._tree
        self._base_slot = np.arange(n, dtype=np.intp)
        self._slot_base[:n] = np.arange(n)
        self._hot = IncrementalKDTree(dim=self._dim, counter=self._counter)
        self._hot_slot = np.empty(0, dtype=np.intp)
        self._hot_count = 0
        self._slot_hot[:n] = -1
        self._rho_raw[:n] = np.asarray(result.rho_raw_, dtype=np.float64)
        self._rho[:n] = result.rho_
        self._delta[:n] = result.delta_
        self._dependent[:n] = (
            result.dependent_raw_
            if result.dependent_raw_ is not None
            else result.dependent_
        )
        self.labels_ = result.labels_.copy()
        self.centers_ = result.centers_.copy()
        self.noise_mask_ = result.noise_mask_.copy()
        self.stats_["rebuilds"] += 1
        self._mutations = 0
        self._epoch += 1

    # ------------------------------------------------------------- equivalence

    def _check_equivalence(self) -> None:
        """Assert the maintained state matches a cold fit of the window."""
        n = self._n
        model = self._make_estimator()
        result = model.fit(self._points[:n].copy())
        self.stats_["equivalence_checks"] += 1
        rho_ok = np.array_equal(
            np.asarray(result.rho_raw_, dtype=np.float64), self._rho_raw[:n]
        )
        labels_ok = np.array_equal(result.labels_, self.labels_)
        if rho_ok and labels_ok:
            return
        detail = []
        if not rho_ok:
            bad = np.flatnonzero(
                np.asarray(result.rho_raw_, dtype=np.float64) != self._rho_raw[:n]
            )
            detail.append(f"raw densities differ at {bad.size} slots (first: {bad[:5]})")
        if not labels_ok:
            bad = np.flatnonzero(result.labels_ != self.labels_)
            detail.append(f"labels differ at {bad.size} slots (first: {bad[:5]})")
        raise StreamingEquivalenceError(
            "incremental state diverged from a cold refit of the window: "
            + "; ".join(detail)
        )
