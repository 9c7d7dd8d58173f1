"""The shard manifest: persistent format shared by sharded fit and serving.

A manifest is a *directory* (one file per shard, so a serving host can map
only the shards it touches) with the layout::

    <path>/
        manifest.json      # format version, params, shard plan, shard files
        global.npz         # per-point result arrays (labels, rho, delta, ...)
        shard_0.npz        # members + float64 points + flattened kd-tree
        shard_1.npz
        ...

Per-shard archives are written uncompressed (``np.savez``), so
:func:`repro.stream.snapshot.load_npz_arrays` can memory-map every array --
the predict server then touches only the pages its queries traverse.
:func:`load_sharded` restores a fitted :class:`repro.shard.fit.ShardedDPC`
whose ``predict`` is immediately usable and bit-identical to the fitted
estimator's (same trees, densities and attachment labels).

This is deliberately *not* :func:`repro.stream.snapshot.save_model`: model
snapshots are one monolithic archive with one kd-tree, which is exactly the
O(n) single mapping the sharded fit exists to avoid.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.result import DPCResult, canonical_rho_raw
from repro.index.kdtree import KDTree, KDTreeArrays
from repro.shard.partition import ShardPlan
from repro.stream.snapshot import _jsonable, load_npz_arrays
from repro.utils.counters import WorkCounter

__all__ = [
    "MANIFEST_FORMAT_VERSION",
    "load_sharded",
    "read_shard_archive",
    "save_sharded",
    "write_shard_archive",
]

MANIFEST_FORMAT_VERSION = 1

_MANIFEST_NAME = "manifest.json"
_GLOBAL_NAME = "global.npz"
_TREE_PREFIX = "tree."


def write_shard_archive(path, members, shard_points, tree) -> Path:
    """Write one shard (members + float64 points + flattened tree) to ``path``.

    The archive layout is exactly one ``shard_<k>.npz`` member of a manifest
    directory; the shard pipeline also uses it as its spill format, so a
    spilled shard can later be adopted verbatim by :func:`save_sharded`.
    Uncompressed on purpose: :func:`repro.stream.snapshot.load_npz_arrays`
    can then memory-map every array.
    """
    path = Path(path)
    arrays = {
        "members": np.asarray(members, dtype=np.int64),
        "points": np.asarray(shard_points, dtype=np.float64),
    }
    for name, array in tree.arrays.to_mapping(prefix=_TREE_PREFIX).items():
        arrays[name] = array
    np.savez(path, **arrays)
    return path


def read_shard_archive(
    path,
    *,
    mmap: bool = False,
    counter: WorkCounter | None = None,
    leaf_size: int = 32,
    kernel: str | None = None,
) -> tuple[np.ndarray, KDTree]:
    """Restore ``(members, tree)`` from a :func:`write_shard_archive` file.

    With ``mmap=True`` the shard's points and tree arrays stay on disk (the
    kd-tree is wrapped with :meth:`repro.index.kdtree.KDTree.from_arrays`, no
    rebuild), so touching the tree faults in only the pages a query visits --
    this is how the budgeted pipeline joins against spilled shards without
    re-charging them to the memory budget.
    """
    data = load_npz_arrays(path, mmap=mmap)
    members = np.asarray(data["members"], dtype=np.intp)
    tree = KDTree.from_arrays(
        data["points"],
        KDTreeArrays.from_mapping(data, prefix=_TREE_PREFIX),
        leaf_size=leaf_size,
        counter=counter,
        kernel=kernel,
    )
    return members, tree


def save_sharded(model, path) -> Path:
    """Write a fitted :class:`~repro.shard.fit.ShardedDPC` to a manifest directory."""
    result = model.check_is_fitted()
    plan = getattr(model, "_plan", None)
    trees = getattr(model, "_shard_trees", None)
    if plan is None or not trees:
        raise ValueError(
            "save_sharded requires a ShardedDPC fitted in this process "
            "(the shard plan and trees are not persisted on the result)"
        )
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    points = np.asarray(model._fit_points_, dtype=np.float64)
    global_arrays = {
        "labels": np.asarray(result.labels_, dtype=np.int64),
        "rho": np.asarray(result.rho_, dtype=np.float64),
        "rho_raw": np.asarray(result.rho_raw_, dtype=np.float64),
        "delta": np.asarray(result.delta_, dtype=np.float64),
        "dependent": np.asarray(result.dependent_, dtype=np.int64),
        "centers": np.asarray(result.centers_, dtype=np.int64),
        "noise_mask": np.asarray(result.noise_mask_, dtype=bool),
        "exact_mask": np.asarray(result.exact_dependency_mask_, dtype=bool),
    }
    if result.dependent_raw_ is not None:
        global_arrays["dependent_raw"] = np.asarray(
            result.dependent_raw_, dtype=np.int64
        )
    jitter = getattr(model, "_tiebreak_jitter_", None)
    if jitter is not None:
        global_arrays["tiebreak_jitter"] = np.asarray(jitter, dtype=np.float64)
    np.savez(path / _GLOBAL_NAME, **global_arrays)

    shard_files = []
    for shard, (members, tree) in enumerate(zip(plan.members, trees)):
        file_name = f"shard_{shard}.npz"
        write_shard_archive(path / file_name, members, points[members], tree)
        shard_files.append({"file": file_name, "size": int(members.size)})

    manifest = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "algorithm": result.algorithm_ or model.algorithm_name,
        "params": _jsonable(model.get_params()),
        "n_points": int(points.shape[0]),
        "dim": int(points.shape[1]),
        "plan": {
            "n_shards": int(plan.n_shards),
            "depth": int(plan.depth),
            "axes": [int(axis) for axis in plan.axes],
            "values": [float(value) for value in plan.values],
        },
        "shards": shard_files,
    }
    (path / _MANIFEST_NAME).write_text(
        json.dumps(manifest, sort_keys=True, indent=2)
    )
    return path


def load_sharded(path, *, mmap: bool = False):
    """Restore a fitted :class:`~repro.shard.fit.ShardedDPC` from a manifest.

    With ``mmap=True`` the per-shard points, tree arrays and the global
    result arrays are memory-mapped out of their archives; shard kd-trees
    are wrapped with :meth:`repro.index.kdtree.KDTree.from_arrays` (no
    rebuild).  The full float64 point matrix is reassembled in memory
    (predict's float32 re-check and the brute-force fallbacks index it
    globally); everything else stays on disk until touched.
    """
    from repro.shard.fit import ShardedDPC

    path = Path(path)
    manifest_path = path / _MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"shard manifest not found: {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    version = manifest.get("format_version")
    if not isinstance(version, int) or version < 1 or version > MANIFEST_FORMAT_VERSION:
        raise ValueError(
            f"unsupported shard manifest format version {version!r} "
            f"(this library reads versions 1..{MANIFEST_FORMAT_VERSION})"
        )

    params = dict(manifest.get("params", {}))
    known = {
        "rho_min", "delta_min", "n_clusters", "n_jobs", "backend", "seed",
        "engine", "kernel", "leaf_size", "dtype", "n_shards",
        "memory_budget_bytes",
    }
    kwargs = {key: value for key, value in params.items() if key in known}
    model = ShardedDPC(params["d_cut"], **kwargs)
    model._counter = WorkCounter()
    model._fit_dim = int(manifest["dim"])

    n_points = int(manifest["n_points"])
    plan_meta = manifest["plan"]
    n_shards = int(plan_meta["n_shards"])

    members_list: list[np.ndarray] = []
    trees: list[KDTree] = []
    points = np.empty((n_points, model._fit_dim), dtype=np.float64)
    for shard, record in enumerate(manifest["shards"]):
        members, tree = read_shard_archive(
            path / record["file"],
            mmap=mmap,
            counter=model._counter,
            leaf_size=int(params.get("leaf_size", 32)),
            kernel=params.get("kernel"),
        )
        points[members] = tree.source_points
        members_list.append(members)
        trees.append(tree)

    model._plan = ShardPlan(
        n_shards=n_shards,
        depth=int(plan_meta["depth"]),
        axes=np.asarray(plan_meta["axes"], dtype=np.intp),
        values=np.asarray(plan_meta["values"], dtype=np.float64),
        members=tuple(members_list),
    )
    model._shard_trees = trees
    model._shard_bbox = [
        (points[m].min(axis=0), points[m].max(axis=0)) for m in members_list
    ]
    model._tree = None
    model._fit_points_ = points
    model.shard_stats_ = {
        "n_shards": n_shards,
        "shard_sizes": [int(record["size"]) for record in manifest["shards"]],
        "shm_peak_bytes": 0,
        "halo_exported_points": 0,
        "halo_credits": 0,
        "budget_bytes": None,
        "peak_rss_bytes": 0,
    }

    data = load_npz_arrays(path / _GLOBAL_NAME, mmap=mmap)
    rho_raw = np.asarray(data["rho_raw"], dtype=np.float64)
    model.result_ = DPCResult(
        labels_=np.asarray(data["labels"], dtype=np.int64),
        rho_=np.asarray(data["rho"], dtype=np.float64),
        rho_raw_=canonical_rho_raw(rho_raw),
        delta_=np.asarray(data["delta"], dtype=np.float64),
        dependent_=np.asarray(data["dependent"], dtype=np.intp),
        centers_=np.asarray(data["centers"], dtype=np.intp),
        noise_mask_=np.asarray(data["noise_mask"], dtype=bool),
        n_clusters_=int(np.asarray(data["centers"]).shape[0]),
        exact_dependency_mask_=np.asarray(data["exact_mask"], dtype=bool),
        params_=params,
        algorithm_=manifest.get("algorithm", model.algorithm_name),
        dependent_raw_=(
            np.asarray(data["dependent_raw"], dtype=np.intp)
            if "dependent_raw" in data
            else None
        ),
    )
    if "tiebreak_jitter" in data:
        model._tiebreak_jitter_ = np.asarray(data["tiebreak_jitter"], dtype=np.float64)
    return model
