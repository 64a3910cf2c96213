"""Tests for least-squares CV in KDE — the paper's named extension."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.grid import BandwidthGrid
from repro.data import bimodal_normal_sample, uniform_sample
from repro.exceptions import ValidationError
from repro.kde.lscv import (
    lscv_score,
    lscv_scores_fastgrid,
    lscv_scores_grid,
    supports_fast_lscv,
)


class TestEligibility:
    def test_epanechnikov_and_uniform_supported(self):
        assert supports_fast_lscv("epanechnikov")
        assert supports_fast_lscv("uniform")

    def test_others_not_supported(self):
        assert not supports_fast_lscv("gaussian")
        assert not supports_fast_lscv("triangular")
        assert not supports_fast_lscv("biweight")

    def test_fastgrid_rejects_unsupported_kernel(self):
        x = np.random.default_rng(0).normal(size=30)
        with pytest.raises(ValidationError, match="fast-grid LSCV"):
            lscv_scores_fastgrid(x, np.array([0.1, 0.2]), "gaussian")


def _adversarial(x: np.ndarray, grid: np.ndarray, variant: str):
    """Offset X, tied X, or bandwidths below the smallest gap."""
    if variant == "offset":
        return x + 1e6, grid
    if variant == "tied":
        return np.round(x, 2), grid
    if variant == "empty-windows":
        gap = float(np.min(np.diff(np.unique(x))))
        return x, np.concatenate([[gap / 4, gap / 2], grid])
    return x, grid


class TestFastDenseEquivalence:
    """The fast sweep's contract: the dense oracle within ``rtol=1e-9``
    and the same argmin, on offset X, tied X and empty windows too."""

    @pytest.mark.parametrize(
        "variant", ["plain", "offset", "tied", "empty-windows"]
    )
    @pytest.mark.parametrize("kernel", ["epanechnikov", "uniform"])
    def test_matches_dense_on_normal_sample(self, kernel, variant, rng):
        x0 = rng.normal(size=150)
        x, grid = _adversarial(
            x0, BandwidthGrid.for_sample(x0, 12).values, variant
        )
        fast = lscv_scores_fastgrid(x, grid, kernel)
        dense = lscv_scores_grid(x, grid, kernel)
        np.testing.assert_allclose(fast, dense, rtol=1e-9)
        assert np.argmin(fast) == np.argmin(dense)

    @given(n=st.integers(5, 60), k=st.integers(1, 10), seed=st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_property(self, n, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, n)
        if x.max() == x.min():
            return
        grid = BandwidthGrid.for_sample(x, k)
        fast = lscv_scores_fastgrid(x, grid.values)
        dense = lscv_scores_grid(x, grid.values)
        np.testing.assert_allclose(fast, dense, rtol=1e-8, atol=1e-10)

    def test_duplicate_points_handled(self):
        x = np.repeat([0.1, 0.5, 0.9], 4)
        grid = np.array([0.05, 0.2, 1.0])
        fast = lscv_scores_fastgrid(x, grid)
        dense = lscv_scores_grid(x, grid)
        np.testing.assert_allclose(fast, dense, rtol=1e-9)


class TestLscvBehaviour:
    def test_score_formula_consistency(self, rng):
        x = rng.normal(size=80)
        assert lscv_score(x, 0.4) == pytest.approx(
            lscv_scores_grid(x, np.array([0.4]))[0]
        )

    def test_lscv_minimum_interior_on_normal_data(self, rng):
        x = rng.normal(size=500)
        grid = BandwidthGrid.evenly_spaced(0.02, 3.0, 60)
        scores = lscv_scores_fastgrid(x, grid.values)
        j = int(np.argmin(scores))
        assert 0 < j < len(grid) - 1

    def test_lscv_penalises_tiny_bandwidth(self, rng):
        x = rng.normal(size=300)
        scores = lscv_scores_fastgrid(x, np.array([0.001, 0.5]))
        assert scores[0] > scores[1]

    def test_bimodal_prefers_smaller_h_than_silverman(self):
        from repro.kde.rot import silverman_bandwidth

        s = bimodal_normal_sample(800, seed=7)
        grid = BandwidthGrid.evenly_spaced(0.02, 2.0, 80)
        scores = lscv_scores_fastgrid(s.x, grid.values)
        h_lscv = grid.values[int(np.argmin(scores))]
        h_silv = silverman_bandwidth(s.x, "epanechnikov")
        assert h_lscv < h_silv

    def test_needs_two_observations(self):
        with pytest.raises(ValidationError):
            lscv_score(np.array([1.0]), 0.1)

    def test_bandwidth_positive_required(self):
        with pytest.raises(ValidationError):
            lscv_score(np.array([1.0, 2.0]), 0.0)

    def test_chunking_invariance(self, rng):
        x = rng.normal(size=200)
        grid = np.array([0.1, 0.3, 0.9])
        a = lscv_scores_fastgrid(x, grid, chunk_rows=200)
        b = lscv_scores_fastgrid(x, grid, chunk_rows=11)
        np.testing.assert_allclose(a, b, rtol=1e-12)
