"""Property tests: every kernel tier is bit-identical to the numpy tier.

The blocked-kernel ABI (:mod:`repro.kernels`) promises that all tiers
compute squared distances with the same sequential ascending-dimension
IEEE-754 accumulation and the same lexicographic tie-breaks, so the choice
of tier is invisible in results *and* work counters.  These tests pin that
down three ways:

* the numpy tier against an unvectorised pure-Python oracle that spells
  out the canonical arithmetic one operation at a time;
* every other *available* tier (numba) against the numpy tier over
  hypothesis-generated block shapes, dtypes and padded tails -- the suite
  skips those comparisons cleanly when the optional package is absent,
  and the CI ``numba-kernels`` leg runs them with numba installed;
* the dispatch layer itself: ``REPRO_KERNEL`` env resolution, the
  ``"auto"`` fallback order, bad-name errors, and the hard error for an
  explicitly requested tier that is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExDPC
from repro.kernels import (
    KERNEL_CHOICES,
    KERNEL_ENV,
    KERNEL_TIERS,
    available_kernels,
    effective_kernel,
    get_kernel,
    resolve_kernel,
)
from repro.kernels import numpy_tier
from repro.stream.snapshot import load_model, save_model

_INTP_MAX = np.iinfo(np.intp).max

#: Tiers actually importable here, beyond the always-present numpy tier.
OPTIONAL_TIERS = [t for t in available_kernels() if t != "numpy"]

MAX_EXAMPLES = 30


# --------------------------------------------------------------------- oracle


def _oracle_pair_sq(q_row: np.ndarray, d_row: np.ndarray):
    """One squared distance, spelled out in canonical accumulation order."""
    acc = (q_row[0] - d_row[0]) * (q_row[0] - d_row[0])
    for k in range(1, q_row.shape[0]):
        diff = q_row[k] - d_row[k]
        acc = acc + diff * diff
    return acc


def _oracle_pair_distances(q_block: np.ndarray, d_block: np.ndarray):
    g, q, d = q_block.shape
    j = d_block.shape[1]
    out = np.empty((g, q, j), dtype=q_block.dtype)
    with np.errstate(invalid="ignore", over="ignore"):
        for gi in range(g):
            for qi in range(q):
                for ji in range(j):
                    out[gi, qi, ji] = _oracle_pair_sq(
                        q_block[gi, qi], d_block[gi, ji]
                    )
    return out


# ----------------------------------------------------------------- strategies


@st.composite
def padded_blocks(draw):
    """Random padded (g, q, d) x (g, j, d) blocks honouring the ABI contract."""
    g = draw(st.integers(1, 3))
    q = draw(st.integers(1, 6))
    j = draw(st.integers(1, 7))
    d = draw(st.integers(1, 5))
    dtype = np.dtype(draw(st.sampled_from(["float64", "float32"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e3, 1e-3]))
    q_block = (rng.standard_normal((g, q, d)) * scale).astype(dtype)
    d_block = (rng.standard_normal((g, j, d)) * scale).astype(dtype)
    if draw(st.booleans()):
        # Lattice-valued coordinates force exact distance ties.
        q_block = np.round(q_block).astype(dtype)
        d_block = np.round(d_block).astype(dtype)
    rho_q = rng.integers(0, 5, size=(g, q)).astype(np.float64)
    d_rho = rng.integers(0, 5, size=(g, j)).astype(np.float64)
    d_idx = rng.permutation(g * j).reshape(g, j).astype(np.intp)
    # Pad a random tail of each group's rows per the ABI contract.
    q_pad = draw(st.integers(0, q - 1))
    j_pad = draw(st.integers(0, j - 1))
    if q_pad:
        q_block[:, q - q_pad :, :] = np.inf
        rho_q[:, q - q_pad :] = np.inf
    if j_pad:
        d_block[:, j - j_pad :, :] = np.inf
        d_rho[:, j - j_pad :] = -np.inf
        d_idx[:, j - j_pad :] = _INTP_MAX
    radius_sq = dtype.type(draw(st.floats(0.0, 4.0)) * scale * scale)
    return q_block, d_block, rho_q, d_rho, d_idx, radius_sq


# --------------------------------------------- numpy tier vs pure-Python oracle


class TestNumpyTierMatchesOracle:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(padded_blocks())
    def test_pair_distances_sq(self, blocks):
        q_block, d_block, *_ = blocks
        # Padded +inf coordinates legitimately produce inf/nan distances;
        # the in-tree callers silence the IEEE flags the same way.
        with np.errstate(invalid="ignore", over="ignore"):
            got = numpy_tier.pair_distances_sq(q_block, d_block)
        expected = _oracle_pair_distances(q_block, d_block)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(padded_blocks())
    def test_squared_norms(self, blocks):
        q_block, *_ = blocks
        with np.errstate(invalid="ignore", over="ignore"):
            got = numpy_tier.squared_norms(q_block)
        expected = np.empty(q_block.shape[:-1], dtype=q_block.dtype)
        with np.errstate(invalid="ignore", over="ignore"):
            for gi in range(q_block.shape[0]):
                for qi in range(q_block.shape[1]):
                    acc = q_block[gi, qi, 0] * q_block[gi, qi, 0]
                    for k in range(1, q_block.shape[2]):
                        acc = acc + q_block[gi, qi, k] * q_block[gi, qi, k]
                    expected[gi, qi] = acc
        np.testing.assert_array_equal(got, expected)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(padded_blocks(), st.booleans())
    def test_count_blocks(self, blocks, strict):
        q_block, d_block, _, _, _, radius_sq = blocks
        row_hits, col_hits = numpy_tier.count_blocks(
            q_block, d_block, radius_sq, strict
        )
        d_sq = _oracle_pair_distances(q_block, d_block)
        with np.errstate(invalid="ignore"):
            hits = d_sq < radius_sq if strict else d_sq <= radius_sq
        np.testing.assert_array_equal(row_hits, np.count_nonzero(hits, axis=2))
        np.testing.assert_array_equal(col_hits, np.count_nonzero(hits, axis=1))
        only_rows, no_cols = numpy_tier.count_blocks(
            q_block, d_block, radius_sq, strict, with_col=False
        )
        np.testing.assert_array_equal(only_rows, row_hits)
        assert no_cols is None

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(padded_blocks())
    def test_nn_blocks(self, blocks):
        q_block, d_block, rho_q, d_rho, d_idx, _ = blocks
        cand_sq, cand_idx = numpy_tier.nn_blocks(
            q_block, rho_q, d_block, d_rho, d_idx
        )
        assert cand_sq.dtype == np.float64
        assert cand_idx.dtype == np.intp
        d_sq = _oracle_pair_distances(q_block, d_block)
        for gi in range(q_block.shape[0]):
            for qi in range(q_block.shape[1]):
                best = np.inf
                best_idx = None
                for ji in range(d_block.shape[1]):
                    if not d_rho[gi, ji] > rho_q[gi, qi]:
                        continue
                    dist = float(d_sq[gi, qi, ji])
                    if dist < best or (
                        dist == best
                        and best_idx is not None
                        and d_idx[gi, ji] < best_idx
                    ):
                        best = dist
                        best_idx = int(d_idx[gi, ji])
                assert cand_sq[gi, qi] == best
                if np.isfinite(best):
                    assert cand_idx[gi, qi] == best_idx
                # cand_idx is unspecified when cand_sq == inf: no assertion.


# --------------------------------------------- optional tiers vs the numpy tier


def _tier_or_skip(tier_name):
    if tier_name not in available_kernels():
        pytest.skip(f"{tier_name} is not installed")
    return get_kernel(tier_name)


@pytest.mark.parametrize("tier_name", OPTIONAL_TIERS or ["numba"])
class TestOptionalTiersMatchNumpy:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(padded_blocks())
    def test_pair_distances_sq(self, tier_name, blocks):
        tier = _tier_or_skip(tier_name)
        q_block, d_block, *_ = blocks
        with np.errstate(invalid="ignore", over="ignore"):
            got = tier.pair_distances_sq(q_block, d_block)
            ref = numpy_tier.pair_distances_sq(q_block, d_block)
        np.testing.assert_array_equal(got, ref)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(padded_blocks())
    def test_squared_norms(self, tier_name, blocks):
        tier = _tier_or_skip(tier_name)
        q_block, *_ = blocks
        with np.errstate(invalid="ignore", over="ignore"):
            got = tier.squared_norms(q_block)
            ref = numpy_tier.squared_norms(q_block)
        np.testing.assert_array_equal(got, ref)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(padded_blocks(), st.booleans())
    def test_count_blocks(self, tier_name, blocks, strict):
        tier = _tier_or_skip(tier_name)
        q_block, d_block, _, _, _, radius_sq = blocks
        got_rows, got_cols = tier.count_blocks(q_block, d_block, radius_sq, strict)
        ref_rows, ref_cols = numpy_tier.count_blocks(
            q_block, d_block, radius_sq, strict
        )
        np.testing.assert_array_equal(got_rows, ref_rows)
        np.testing.assert_array_equal(got_cols, ref_cols)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(padded_blocks())
    def test_nn_blocks(self, tier_name, blocks):
        tier = _tier_or_skip(tier_name)
        q_block, d_block, rho_q, d_rho, d_idx, _ = blocks
        got_sq, got_idx = tier.nn_blocks(q_block, rho_q, d_block, d_rho, d_idx)
        ref_sq, ref_idx = numpy_tier.nn_blocks(q_block, rho_q, d_block, d_rho, d_idx)
        np.testing.assert_array_equal(got_sq, ref_sq)
        finite = np.isfinite(ref_sq)
        np.testing.assert_array_equal(got_idx[finite], ref_idx[finite])


# --------------------------------------------------------------- end-to-end fit


@pytest.mark.parametrize("tier_name", OPTIONAL_TIERS or ["numba"])
def test_fit_is_tier_invariant(tier_name):
    """A full 3-D Ex-DPC dual fit is bit-identical under every installed tier."""
    _tier_or_skip(tier_name)
    points = np.random.default_rng(5).standard_normal((300, 3)) * 10.0
    base = ExDPC(d_cut=8.0, n_clusters=4, engine="dual", kernel="numpy").fit(points)
    other = ExDPC(d_cut=8.0, n_clusters=4, engine="dual", kernel=tier_name).fit(
        points
    )
    np.testing.assert_array_equal(base.labels_, other.labels_)
    np.testing.assert_array_equal(base.rho_, other.rho_)
    np.testing.assert_array_equal(base.delta_, other.delta_)
    np.testing.assert_array_equal(base.dependent_, other.dependent_)
    # Work counters are part of the contract too.
    assert base.work_ == other.work_


# ------------------------------------------------------------------- dispatch


class TestDispatchResolution:
    def test_resolve_default_is_auto(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert resolve_kernel(None) == "auto"

    def test_resolve_env_and_explicit_precedence(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "numpy")
        assert resolve_kernel(None) == "numpy"
        # Explicit values win over the environment.
        assert resolve_kernel("auto") == "auto"

    def test_resolve_rejects_bad_names(self, monkeypatch):
        with pytest.raises(ValueError, match="kernel must be one of"):
            resolve_kernel("fortran")
        monkeypatch.setenv(KERNEL_ENV, "fortran")
        with pytest.raises(ValueError):
            resolve_kernel(None)

    def test_cupy_name_rejected(self):
        # The GPU tier was removed; its name is now an unknown tier.
        assert "cupy" not in KERNEL_CHOICES
        with pytest.raises(ValueError, match="kernel must be one of"):
            resolve_kernel("cupy")
        with pytest.raises(ValueError, match="kernel"):
            ExDPC(d_cut=1.0, n_clusters=2, kernel="cupy")

    def test_auto_fallback_order(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        # auto -> numba when importable, numpy otherwise.
        expected = "numba" if "numba" in available_kernels() else "numpy"
        assert effective_kernel("auto") == expected
        assert effective_kernel(None) == expected

    def test_explicit_missing_tier_raises(self):
        for tier_name in KERNEL_TIERS:
            if tier_name in available_kernels():
                continue
            with pytest.raises(RuntimeError, match=tier_name):
                effective_kernel(tier_name)
        if set(KERNEL_TIERS) <= set(available_kernels()):
            pytest.skip("all tiers installed; nothing to reject")

    def test_available_kernels_always_has_numpy(self):
        tiers = available_kernels()
        assert tiers[0] == "numpy"
        assert set(tiers) <= set(KERNEL_TIERS)

    def test_choices_are_tiers_plus_auto(self):
        assert KERNEL_CHOICES == KERNEL_TIERS + ("auto",)

    def test_get_kernel_exposes_abi(self):
        tier = get_kernel("numpy")
        assert tier.name == "numpy"
        assert tier.block_budget > 0
        for fn in ("pair_distances_sq", "squared_norms", "count_blocks", "nn_blocks"):
            assert callable(getattr(tier, fn))

    def test_get_kernel_is_cached(self):
        assert get_kernel("numpy") is get_kernel("numpy")


class TestKernelParamPlumbing:
    def test_recorded_in_params_and_snapshot(self, tmp_path, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        points = np.random.default_rng(3).standard_normal((120, 2)) * 10.0
        model = ExDPC(d_cut=8.0, n_clusters=3, kernel="numpy")
        assert model.get_params()["kernel"] == "numpy"
        model.fit(points)
        path = save_model(model, tmp_path / "m.npz")
        restored = load_model(path)
        assert restored.kernel == "numpy"

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "numpy")
        assert ExDPC(d_cut=1.0, n_clusters=2).kernel == "numpy"
        monkeypatch.delenv(KERNEL_ENV)
        assert ExDPC(d_cut=1.0, n_clusters=2).kernel == "auto"

    def test_bad_kernel_rejected_at_construction(self):
        with pytest.raises(ValueError, match="kernel"):
            ExDPC(d_cut=1.0, n_clusters=2, kernel="fortran")
