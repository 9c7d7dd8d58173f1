"""Blocked distance/credit kernels behind a single pluggable ABI.

Every hot distance evaluation in the library -- the dual self-join's
density blocks, the mega-batched nearest-denser candidate blocks, the
batch engine's leaf kernels and the driver-side pruning bounds -- runs
through one of the kernel *tiers* in this package.  A tier is a module
exposing the four ABI functions below plus a ``name`` and a
``block_budget``; :func:`get_kernel` resolves a tier name (or ``"auto"``)
to the module object the kd-tree dispatches through.

The ABI (see ``docs/kernels.md`` for the full block-layout and padding
contract):

``pair_distances_sq(q_block, d_block)``
    Squared Euclidean distances between ``(..., q, d)`` and ``(..., j, d)``
    point blocks, returned as ``(..., q, j)``.
``squared_norms(diff)``
    Squared norms over the last axis of a difference array.
``count_blocks(q_block, d_block, radius_sq, strict, with_col)``
    Per-row (and optionally per-column) hit counts of the radius test over
    ``(g, q, d)`` x ``(g, j, d)`` padded blocks.
``nn_blocks(q_block, rho_q, d_block, d_rho, d_idx)``
    Per-row nearest *strictly denser* candidate -- lexicographic
    ``(squared distance, data index)`` minimum -- over padded blocks.

**Accumulation-order guarantee.**  Every tier computes each squared
distance as the *sequential ascending-dimension* IEEE-754 sum
``((x_0^2 + x_1^2) + x_2^2) + ...`` in the block's element dtype.  This is
the library's canonical distance arithmetic: the scalar reference
(:func:`repro.utils.distance.point_to_points_sq`), the batch leaf kernels
and the dual blocked kernels all produce bit-identical values at every
dimensionality, so engines -- and kernel tiers -- can be mixed freely
without breaking the cross-engine equivalence guarantees.  (A plain
``np.einsum`` reduction is *not* bit-compatible with a compiled loop at
``d >= 3``: its SIMD pairwise partial sums reassociate the additions.)

The numba tier is strictly optional: importing this package never imports
it, ``"auto"`` falls back to numpy when numba is missing, and requesting it
explicitly without numba installed raises a clear error.
"""

from __future__ import annotations

import importlib
import importlib.util
import os

__all__ = [
    "KERNEL_TIERS",
    "KERNEL_CHOICES",
    "KERNEL_ENV",
    "available_kernels",
    "resolve_kernel",
    "effective_kernel",
    "get_kernel",
    "pair_distances_sq",
    "squared_norms",
]

#: Concrete kernel tiers, in shared-memory packing order (a fitted tree's
#: effective tier ships to process-backend workers as an index into this
#: tuple, so the workers run the exact tier the driver resolved).
KERNEL_TIERS = ("numpy", "numba")

#: Accepted values of the ``kernel`` parameter: the concrete tiers plus
#: ``"auto"`` (numba when importable, else numpy).
KERNEL_CHOICES = KERNEL_TIERS + ("auto",)

#: Environment variable naming the kernel tier used when an estimator or
#: tree is built with ``kernel=None``; the CI numba leg exports it.
KERNEL_ENV = "REPRO_KERNEL"

_TIER_CACHE: dict[str, object] = {}


def resolve_kernel(kernel: str | None) -> str:
    """Normalise a ``kernel`` parameter.

    ``None`` reads :data:`KERNEL_ENV` (default ``"auto"``); any explicit
    value must be one of :data:`KERNEL_CHOICES`.  ``"auto"`` is kept
    symbolic -- it resolves against the installed optional dependencies via
    :func:`effective_kernel` wherever a concrete tier is needed, so a
    snapshot saved with ``kernel="auto"`` restores portably on machines
    with a different set of accelerators (results are bit-identical across
    tiers either way).
    """
    if kernel is None:
        kernel = os.environ.get(KERNEL_ENV) or "auto"
    if kernel not in KERNEL_CHOICES:
        raise ValueError(
            f"kernel must be one of {KERNEL_CHOICES}, got {kernel!r}"
        )
    return kernel


def available_kernels() -> tuple[str, ...]:
    """Concrete tiers importable in this environment (numpy always is)."""
    if importlib.util.find_spec("numba") is not None:
        return ("numpy", "numba")
    return ("numpy",)


def effective_kernel(kernel: str | None) -> str:
    """Resolve a kernel parameter to a concrete, available tier name.

    ``"auto"`` picks numba when it is importable and numpy otherwise; an
    explicitly requested tier that is not installed raises ``RuntimeError``
    (silently falling back would invalidate a benchmark's tier tag).
    """
    kernel = resolve_kernel(kernel)
    if kernel == "auto":
        return "numba" if importlib.util.find_spec("numba") is not None else "numpy"
    if kernel != "numpy" and importlib.util.find_spec(kernel) is None:
        raise RuntimeError(
            f"kernel={kernel!r} requested but the {kernel!r} package is not "
            f"installed; install it or use kernel='auto' (available tiers: "
            f"{available_kernels()})"
        )
    return kernel


def get_kernel(kernel: str | None = None):
    """Return the kernel tier module for ``kernel`` (name or ``None``).

    The returned module exposes the blocked ABI (``pair_distances_sq``,
    ``squared_norms``, ``count_blocks``, ``nn_blocks``) plus ``name`` and
    ``block_budget``.  Tier modules are imported lazily and cached, so the
    optional dependencies are only touched when actually selected.
    """
    name = effective_kernel(kernel)
    tier = _TIER_CACHE.get(name)
    if tier is None:
        tier = importlib.import_module(f"repro.kernels.{name}_tier")
        _TIER_CACHE[name] = tier
    return tier


# Canonical (numpy-tier) reference arithmetic, re-exported for the many
# driver-side callers -- pruning bounds, brute-force oracles, streaming
# repair scans -- that need the exact kernel arithmetic without tier
# dispatch.  All tiers produce identical bits, so mixing these with any
# tier's blocked kernels is sound.
from repro.kernels.numpy_tier import (  # noqa: E402
    pair_distances_sq,
    squared_norms,
)
