"""Output checks and provenance for the benchmark.

Every run checks what the program computed:

* exact fits (Ex-DPC at 50k, the sharded fit) against digests of the exact
  single-tree Ex-DPC fit of the same data -- labels, tie-broken densities
  and dependent distances, bit for bit;
* every recluster stop against the labels of a cold Ex-DPC fit at the
  stop's parameters;
* every served label against the offline ``predict`` labels of the served
  model.

The expected values live in ``digests.json`` (written by
``make_digests.py``).  A seed with no stored entry falls back to computing
the reference in the run, outside every timed region.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import platform
import subprocess
import zlib

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")


def array_digest(values) -> str:
    """SHA-256 of an array's dtype, shape and bytes (bit-exact identity)."""
    values = np.ascontiguousarray(values)
    digest = hashlib.sha256()
    digest.update(f"{values.dtype.str}{values.shape}".encode())
    digest.update(values.tobytes())
    return digest.hexdigest()[:32]


def fit_digest(result) -> dict:
    """Digests of the per-point arrays that define an exact DPC fit."""
    return {
        "labels": array_digest(np.asarray(result.labels_, dtype=np.int64)),
        "rho": array_digest(np.asarray(result.rho_, dtype=np.float64)),
        "delta": array_digest(np.asarray(result.delta_, dtype=np.float64)),
    }


def pack_labels(labels) -> str:
    """Compact text form of a small-integer label vector."""
    raw = np.asarray(labels, dtype=np.int8).tobytes()
    return base64.b64encode(zlib.compress(raw, 9)).decode()


def unpack_labels(text: str) -> np.ndarray:
    return np.frombuffer(zlib.decompress(base64.b64decode(text)), dtype=np.int8).astype(
        np.int64
    )


class DigestStore:
    """Read access to ``digests.json``: ``store.get(workload, key)``."""

    def __init__(self, path: str = DIGESTS_PATH):
        self.path = path
        try:
            with open(path) as handle:
                self.data = json.load(handle)
        except FileNotFoundError:
            self.data = {}

    def get(self, workload: str, key: str):
        return self.data.get(workload, {}).get(str(key))


def source_digest(root: str) -> str:
    """SHA-256 over the library sources (stands in for a sha outside git)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha(root: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def provenance(root: str) -> dict:
    """Host and library facts recorded with every result (the ledger row)."""
    from repro.core.framework import resolve_engine
    from repro.kernels import effective_kernel
    from repro.parallel.backends import resolve_backend

    return {
        "git_sha": git_sha(root),
        "src_digest": source_digest(root),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "engine": resolve_engine(None),
        "backend": resolve_backend(None),
        "kernel": effective_kernel(None),
    }
