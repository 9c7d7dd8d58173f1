"""Regenerate the golden model snapshots used by the compat tests.

Historical snapshot layouts (format versions 1..3) cannot be written by the
current library, so this script synthesises them: it fits a tiny Ex-DPC
model, saves a current-format snapshot, then strips the keys each older
version lacked and rewrites the ``meta`` record to the historical version
number.  The result is byte-layout-faithful to what the old writers
produced:

* **v1** -- no ``tree.bbox_min`` / ``tree.bbox_max`` (boxes were derived at
  query time), no ``tree.rho_max``, no jitter, no profiles;
* **v2** -- boxes present, still no ``tree.rho_max`` / jitter / profiles;
* **v3** -- ``tree.rho_max`` present, no jitter / profiles;
* **v4** -- the current format, with ``tiebreak_jitter`` and ``profile.*``.

Run from the repository root::

    PYTHONPATH=src python tests/fixtures/snapshots/make_goldens.py

The fixtures are tiny (a 64-point fit) and committed to the repository so
the compat tests never depend on this script at test time.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro import ExDPC
from repro.data import generate_syn
from repro.stream.snapshot import save_model

HERE = Path(__file__).resolve().parent

#: Keys introduced at each format version; version k's snapshot drops every
#: key introduced later than k.
_INTRODUCED_AT = {
    "tree.bbox_min": 2,
    "tree.bbox_max": 2,
    "tree.rho_max": 3,
    "tiebreak_jitter": 4,
    "profile.values": 4,
    "profile.join_ids": 4,
    "profile.indptr": 4,
    "profile.coverage_sq": 4,
    "profile.d_cut_max": 4,
}

#: meta keys introduced later than v1 (dropped from downgraded metas when
#: the target version predates them).
_META_INTRODUCED_AT = {"has_profile": 4}


def fit_reference_model() -> ExDPC:
    """The tiny deterministic fit every golden snapshot derives from."""
    points, _ = generate_syn(n_points=64, n_peaks=3, seed=17)
    model = ExDPC(900.0, n_clusters=3, rho_min=2, seed=5, engine="dual")
    model.fit(np.asarray(points, dtype=np.float64))
    # Build the re-cluster index so the v4 golden carries profile arrays.
    model.recluster_index()
    return model


def downgrade(arrays: dict, meta: dict, version: int) -> tuple[dict, dict]:
    """Strip post-``version`` keys and stamp the historical version number."""
    kept = {
        name: array
        for name, array in arrays.items()
        if _INTRODUCED_AT.get(name, 1) <= version
    }
    meta = {
        key: value
        for key, value in meta.items()
        if _META_INTRODUCED_AT.get(key, 1) <= version
    }
    meta["format_version"] = version
    return kept, meta


def main() -> None:
    model = fit_reference_model()
    current = HERE / "golden_v4.npz"
    save_model(model, current)

    with np.load(current, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(str(arrays.pop("meta")[()]))

    # The expected labels, shared by every version (the fit is identical).
    np.save(HERE / "golden_labels.npy", np.asarray(model.result_.labels_))

    for version in (1, 2, 3):
        kept, old_meta = downgrade(dict(arrays), dict(meta), version)
        kept["meta"] = np.asarray(json.dumps(old_meta, sort_keys=True))
        np.savez(HERE / f"golden_v{version}.npz", **kept)

    for version in (1, 2, 3, 4):
        path = HERE / f"golden_v{version}.npz"
        print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
