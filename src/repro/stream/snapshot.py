"""Model snapshots: ship a fitted estimator to serving replicas as one file.

A snapshot is a single uncompressed ``.npz`` archive holding everything
:meth:`~repro.core.framework.DensityPeaksBase.predict` needs:

* the fitted point matrix,
* the per-point result arrays (labels, tie-broken and raw densities,
  dependent distances, the dependency forest with and without center
  masking, centers, noise and exactness masks),
* the flattened kd-tree (:class:`~repro.index.kdtree.KDTreeArrays`, stored
  under ``tree.*`` keys) when the estimator owns one,
* the density tie-break jitter and, when the estimator had built one, the
  re-cluster index profiles (``profile.*`` keys), so restored models answer
  :meth:`~repro.core.framework.DensityPeaksBase.recluster` immediately, and
* a JSON metadata record (``meta``): format version, algorithm name and the
  constructor parameters used to rebuild the estimator.

Snapshots from every older format version load transparently (missing
pieces are rebuilt or simply absent); snapshots from a *newer* version are
rejected with a clear error.

Because ``np.savez`` stores members uncompressed, :func:`load_model` can
optionally **memory-map** every array straight out of the archive
(``mmap=True``): replicas serving a large fitted model share its pages
through the OS page cache instead of each materialising a private copy.

The format is versioned (:data:`MODEL_FORMAT_VERSION`); loaders reject
snapshots from a different version with a clear error instead of
misinterpreting them.
"""

from __future__ import annotations

import inspect
import io
import json
import struct
import zipfile
from pathlib import Path

import numpy as np

from repro.baselines.cfsfdp_a import CFSFDPA
from repro.baselines.scan import ScanDPC
from repro.core.approx_dpc import ApproxDPC
from repro.core.ex_dpc import ExDPC
from repro.core.result import DPCResult, canonical_rho_raw
from repro.core.s_approx_dpc import SApproxDPC
from repro.index.kdtree import KDTree, KDTreeArrays
from repro.utils.counters import WorkCounter

__all__ = [
    "MODEL_FORMAT_VERSION",
    "SNAPSHOT_ALGORITHMS",
    "load_model",
    "load_npz_arrays",
    "save_model",
]

#: Snapshot format version; bump on any incompatible layout change.
#: Version 2 added the per-node bounding boxes of the dual-tree engine
#: (``tree.bbox_min`` / ``tree.bbox_max``) and float32 tree storage (the
#: split values carry the storage dtype; points stay float64 on disk).
#: Version 3 added the per-node density maxima of the nearest-denser join
#: (``tree.rho_max``, attached by fit), so restored models serve the dual
#: dependency engine without recomputation.  v3 and v4 snapshots written
#: while estimators still took ``dual_frontier=`` record it in the params;
#: constructor filtering ignores it on load (the frontier is derived from
#: the data size, :func:`repro.index.kdtree.adaptive_dual_frontier`).
#: Version 4 added the density tie-break jitter (``tiebreak_jitter``) and,
#: when the estimator had built one, the re-cluster index profiles
#: (``profile.values`` / ``profile.join_ids`` / ``profile.indptr`` /
#: ``profile.coverage_sq`` / ``profile.d_cut_max``), so a restored model can
#: answer :meth:`~repro.core.framework.DensityPeaksBase.recluster` without
#: re-deriving either.  :func:`load_model` reads *every* version back to 1:
#: v1 tree bounding boxes are rebuilt on load, and pre-v4 snapshots simply
#: restore without a cached re-cluster index.  The ``kernel`` tier name
#: rides in the params record -- constructor filtering restores it without
#: a format bump, and ``kernel="auto"`` stays symbolic so snapshots are portable across
#: machines with different accelerators (tiers are bit-identical).
MODEL_FORMAT_VERSION = 4

_TREE_PREFIX = "tree."
_PROFILE_PREFIX = "profile."

#: Algorithm name (as recorded in ``result.algorithm_``) -> estimator class.
_ESTIMATOR_CLASSES = {
    "Ex-DPC": ExDPC,
    "Approx-DPC": ApproxDPC,
    "S-Approx-DPC": SApproxDPC,
    "Scan": ScanDPC,
    "CFSFDP-A": CFSFDPA,
}

#: Paper algorithm names that round-trip through save_model / load_model.
SNAPSHOT_ALGORITHMS = frozenset(_ESTIMATOR_CLASSES)


def _jsonable(value):
    """Convert numpy scalars inside a params dict to plain Python types."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def save_model(model, path) -> Path:
    """Serialize a fitted estimator to ``path`` (a ``.npz`` snapshot).

    ``model`` must be fitted (``fit()`` or a restored snapshot).  Returns the
    written path.  See :func:`load_model` for the inverse.
    """
    result = model.check_is_fitted()
    algorithm = result.algorithm_ or model.algorithm_name
    if algorithm not in _ESTIMATOR_CLASSES:
        # Refuse to write snapshots load_model cannot read back; discovering
        # that at serving time would make the snapshot a one-way trip.
        raise ValueError(
            f"cannot snapshot algorithm {algorithm!r}; snapshots support "
            f"{sorted(_ESTIMATOR_CLASSES)}"
        )
    path = Path(path)
    if path.suffix != ".npz":
        raise ValueError(
            f"model snapshots are .npz archives; got {path.suffix!r} "
            f"(pass a path ending in .npz)"
        )

    arrays: dict[str, np.ndarray] = {
        "points": np.asarray(model._fit_points_, dtype=np.float64),
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
        arrays["dependent_raw"] = np.asarray(result.dependent_raw_, dtype=np.int64)

    tree = model._predict_tree()
    if tree is not None:
        for name, array in tree.arrays.to_mapping(prefix=_TREE_PREFIX).items():
            arrays[name] = array
        arrays[_TREE_PREFIX + "leaf_size"] = np.asarray([tree.leaf_size], dtype=np.int64)

    jitter = getattr(model, "_tiebreak_jitter_", None)
    if jitter is not None:
        arrays["tiebreak_jitter"] = np.asarray(jitter, dtype=np.float64)

    recluster_index = getattr(model, "_recluster_index_", None)
    if recluster_index is not None:
        arrays[_PROFILE_PREFIX + "values"] = recluster_index._values
        arrays[_PROFILE_PREFIX + "join_ids"] = np.asarray(
            recluster_index._join_ids, dtype=np.int64
        )
        arrays[_PROFILE_PREFIX + "indptr"] = recluster_index._indptr
        arrays[_PROFILE_PREFIX + "coverage_sq"] = recluster_index._coverage_sq
        arrays[_PROFILE_PREFIX + "d_cut_max"] = np.asarray(
            [recluster_index.d_cut_max], dtype=np.float64
        )

    from repro import __version__  # deferred: repro/__init__ imports this module

    meta = {
        "format_version": MODEL_FORMAT_VERSION,
        "library_version": __version__,
        "algorithm": algorithm,
        "params": _jsonable(model.get_params()),
        "n_points": int(arrays["points"].shape[0]),
        "dim": int(arrays["points"].shape[1]),
        "has_tree": tree is not None,
        "has_profile": recluster_index is not None,
    }
    arrays["meta"] = np.asarray(json.dumps(meta, sort_keys=True))

    path.parent.mkdir(parents=True, exist_ok=True)
    # np.savez stores members uncompressed (ZIP_STORED), which is what makes
    # the optional mmap loading possible.
    np.savez(path, **arrays)
    return path


def load_npz_arrays(path, *, mmap: bool = False) -> dict[str, np.ndarray]:
    """Read every member of an ``.npz`` archive, optionally memory-mapped.

    With ``mmap=True`` the archive must be uncompressed (``np.savez``) and
    the arrays are mapped straight out of the file through
    :func:`_load_npz_memmap` -- replicas on the same host then share one
    physical copy via the page cache.  Shared by model snapshots, the
    sharded-fit manifests and the serving registry.
    """
    path = Path(path)
    if mmap:
        return _load_npz_memmap(path)
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def load_model(path, *, mmap: bool = False):
    """Restore a fitted estimator from a snapshot written by :func:`save_model`.

    Parameters
    ----------
    path:
        The ``.npz`` snapshot.
    mmap:
        When true, memory-map the arrays directly out of the (uncompressed)
        archive instead of reading them into private memory.  The restored
        model then reads fitted data lazily through the OS page cache --
        replicas on the same host share one physical copy.

    Returns
    -------
    DensityPeaksBase
        A fitted estimator of the snapshotted class; ``predict`` works
        immediately, no refit needed.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"model snapshot not found: {path}")
    data = load_npz_arrays(path, mmap=mmap)

    if "meta" not in data:
        raise ValueError(f"{path} is not a model snapshot (no 'meta' record)")
    meta = json.loads(str(data["meta"][()]))
    version = meta.get("format_version")
    if (
        not isinstance(version, int)
        or version < 1
        or version > MODEL_FORMAT_VERSION
    ):
        raise ValueError(
            f"unsupported model snapshot format version {version!r} "
            f"(this library reads versions 1..{MODEL_FORMAT_VERSION}); "
            "re-export the snapshot with a matching library version"
        )
    algorithm = meta.get("algorithm")
    cls = _ESTIMATOR_CLASSES.get(algorithm)
    if cls is None:
        raise ValueError(
            f"cannot restore algorithm {algorithm!r}; snapshot restore "
            f"supports {sorted(_ESTIMATOR_CLASSES)}"
        )

    params = dict(meta.get("params", {}))
    accepted = set(inspect.signature(cls.__init__).parameters)
    kwargs = {
        key: value
        for key, value in params.items()
        if key in accepted and key != "d_cut"
    }
    model = cls(params["d_cut"], **kwargs)
    model._counter = WorkCounter()

    points = np.asarray(data["points"], dtype=np.float64)
    model._fit_points_ = points

    rho_raw = np.asarray(data["rho_raw"], dtype=np.float64)
    dependent_raw = (
        np.asarray(data["dependent_raw"], dtype=np.intp)
        if "dependent_raw" in data
        else None
    )
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
        algorithm_=algorithm,
        dependent_raw_=dependent_raw,
    )

    if "tiebreak_jitter" in data:
        model._tiebreak_jitter_ = np.asarray(
            data["tiebreak_jitter"], dtype=np.float64
        )

    if meta.get("has_tree") and (_TREE_PREFIX + "split_dim") in data:
        if (_TREE_PREFIX + "bbox_min") not in data:
            # Version 1 snapshots predate the per-node bounding boxes; the
            # rebuild replays the builder's bottom-up sweep exactly.
            data = dict(data)
            data.update(_rebuild_bbox(points, data))
        tree_arrays = KDTreeArrays.from_mapping(data, prefix=_TREE_PREFIX)
        leaf_size = int(np.asarray(data[_TREE_PREFIX + "leaf_size"])[0])
        model._tree = KDTree.from_arrays(
            points, tree_arrays, leaf_size=leaf_size, counter=model._counter
        )
        if tree_arrays.rho_max is not None:
            # Adopt the fitted per-node density maxima so the dual
            # dependency engine serves immediately without recomputing them.
            model._tree.attach_density_bounds(
                model.result_.rho_, node_max=np.asarray(tree_arrays.rho_max)
            )

    if meta.get("has_profile") and (_PROFILE_PREFIX + "values") in data:
        from repro.core.recluster import ReclusterIndex

        model._recluster_index_ = ReclusterIndex.from_arrays(
            model,
            d_cut_max=float(np.asarray(data[_PROFILE_PREFIX + "d_cut_max"])[0]),
            values=np.asarray(data[_PROFILE_PREFIX + "values"]),
            join_ids=np.asarray(data[_PROFILE_PREFIX + "join_ids"], dtype=np.intp),
            indptr=np.asarray(data[_PROFILE_PREFIX + "indptr"], dtype=np.int64),
            coverage_sq=np.asarray(
                data[_PROFILE_PREFIX + "coverage_sq"], dtype=np.float64
            ),
        )
    return model


def _rebuild_bbox(points: np.ndarray, data) -> dict[str, np.ndarray]:
    """Per-node bounding boxes for a version-1 snapshot's tree arrays.

    Replays the builder's reverse preorder sweep (children carry larger node
    ids than their parent): leaves take the coordinate-wise extrema of their
    bucket slice, internal nodes merge their children.  Version-1 trees
    always stored float64 points, so the rebuilt boxes are bit-identical to
    what the builder of the day would have produced.
    """
    left = np.asarray(data[_TREE_PREFIX + "left"])
    right = np.asarray(data[_TREE_PREFIX + "right"])
    start = np.asarray(data[_TREE_PREFIX + "start"])
    stop = np.asarray(data[_TREE_PREFIX + "stop"])
    indices = np.asarray(data[_TREE_PREFIX + "indices"])
    n_nodes = left.shape[0]
    dim = points.shape[1]
    bbox_min = np.empty((n_nodes, dim), dtype=points.dtype)
    bbox_max = np.empty((n_nodes, dim), dtype=points.dtype)
    for node in range(n_nodes - 1, -1, -1):
        child_left = left[node]
        if child_left < 0:
            coords = points[indices[start[node] : stop[node]]]
            bbox_min[node] = coords.min(axis=0)
            bbox_max[node] = coords.max(axis=0)
        else:
            child_right = right[node]
            np.minimum(
                bbox_min[child_left], bbox_min[child_right], out=bbox_min[node]
            )
            np.maximum(
                bbox_max[child_left], bbox_max[child_right], out=bbox_max[node]
            )
    return {
        _TREE_PREFIX + "bbox_min": bbox_min,
        _TREE_PREFIX + "bbox_max": bbox_max,
    }


def _load_npz_memmap(path: Path) -> dict[str, np.ndarray]:
    """Memory-map every member of an *uncompressed* ``.npz`` archive.

    ``np.load(..., mmap_mode=...)`` silently ignores the mmap request for
    ``.npz`` files, so this walks the zip directory itself: for each stored
    member it locates the raw ``.npy`` payload (local file header + name +
    extra field), parses the npy header for dtype/shape/order, and maps the
    data region of the archive file directly.  Tiny or object-/string-typed
    members (the JSON ``meta`` record) are read normally.
    """
    out: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive:
        infos = archive.infolist()
        with open(path, "rb") as handle:
            for info in infos:
                if info.compress_type != zipfile.ZIP_STORED:
                    raise ValueError(
                        f"{path} is compressed; mmap loading requires an "
                        "uncompressed archive (written by np.savez / save_model)"
                    )
                name = info.filename
                if name.endswith(".npy"):
                    name = name[: -len(".npy")]
                handle.seek(info.header_offset)
                local_header = handle.read(30)
                if local_header[:4] != b"PK\x03\x04":
                    raise ValueError(f"corrupt zip member header for {info.filename}")
                name_len, extra_len = struct.unpack("<HH", local_header[26:30])
                data_start = info.header_offset + 30 + name_len + extra_len
                handle.seek(data_start)
                version = np.lib.format.read_magic(handle)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
                else:  # pragma: no cover - npy 3.0 needs utf8 names we never write
                    raise ValueError(
                        f"unsupported npy format version {version} in {info.filename}"
                    )
                if dtype.hasobject or dtype.kind in "US" or shape == ():
                    # Strings / scalars: not worth mapping, read the member.
                    with archive.open(info) as member:
                        out[name] = np.lib.format.read_array(
                            io.BytesIO(member.read()), allow_pickle=False
                        )
                    continue
                out[name] = np.memmap(
                    path,
                    dtype=dtype,
                    mode="r",
                    offset=handle.tell(),
                    shape=shape,
                    order="F" if fortran else "C",
                )
    return out
