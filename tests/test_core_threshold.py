"""Unit tests for Ψ_γ and the CAP threshold set."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.threshold import (
    cap_quota,
    cap_thresholds,
    psi,
    solve_alpha,
)

L, U = 50.0, 450.0


class TestPsi:
    def test_psi_of_one_is_upper_bound(self):
        """Ψ_γ(1) = U: maximally important tasks always run (Section 4.1)."""
        for gamma in (0.0, 0.3, 0.7, 1.0):
            assert psi(1.0, gamma, L, U) == pytest.approx(U)

    def test_psi_of_zero_is_floor(self):
        assert psi(0.0, 0.5, L, U) == pytest.approx(0.5 * L + 0.5 * U)
        assert psi(0.0, 1.0, L, U) == pytest.approx(L)

    def test_gamma_zero_is_carbon_agnostic(self):
        for r in (0.0, 0.3, 1.0):
            assert psi(r, 0.0, L, U) == U

    def test_monotone_increasing_in_importance(self):
        values = [psi(r, 0.6, L, U) for r in np.linspace(0, 1, 21)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_monotone_decreasing_in_gamma_for_low_importance(self):
        values = [psi(0.2, g, L, U) for g in np.linspace(0, 1, 11)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_within_bounds(self):
        for gamma in np.linspace(0, 1, 6):
            for r in np.linspace(0, 1, 6):
                value = psi(float(r), float(gamma), L, U)
                assert L - 1e-9 <= value <= U + 1e-9

    def test_exponential_below_linear_inside(self):
        """exp(γr)-1 / exp(γ)-1 < r for r in (0,1): the exponential shape
        is more conservative about mid-importance tasks."""
        expo = psi(0.5, 0.8, L, U)
        linear = psi(0.5, 0.8, L, U, shape="linear")
        assert expo < linear

    def test_flat_bounds_degenerate(self):
        assert psi(0.4, 0.7, 100.0, 100.0) == pytest.approx(100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            psi(1.5, 0.5, L, U)
        with pytest.raises(ValueError):
            psi(0.5, -0.1, L, U)
        with pytest.raises(ValueError):
            psi(0.5, 0.5, U, L)  # L > U
        with pytest.raises(ValueError):
            psi(0.5, 0.5, L, U, shape="cubic")


class TestAlphaSolver:
    def test_root_satisfies_equation(self):
        k = 20
        alpha = solve_alpha(k, L, U)
        lhs = (1.0 + 1.0 / (k * alpha)) ** k
        rhs = ((U - L) / U) / (1.0 - 1.0 / alpha)
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_alpha_greater_than_one(self):
        for k in (1, 5, 50):
            assert solve_alpha(k, L, U) > 1.0

    def test_flat_bounds_give_infinite_alpha(self):
        assert solve_alpha(10, 100.0, 100.0) == math.inf

    @pytest.mark.parametrize("k", [1, 5, 80])
    @pytest.mark.parametrize(
        "spread, rel", [(1e-4, 1e-6), (1e-7, 1e-6), (2e-9, 1e-6), (2e-11, 1e-4)]
    )
    def test_small_spread_root_is_accurate(self, k, spread, rel):
        """α - 1 shrinks with the spread; the root keeps full precision.

        ``2e-11`` sits just above the flat cutoff, where ``α - 1`` spans
        only 3e4 to 5e4 float64 spacings, so 1e-4 is what float64 can place.
        """
        low, high = 1.0, 1.0 + spread
        alpha = solve_alpha(k, low, high)
        lhs = (1.0 + 1.0 / (k * alpha)) ** k
        rhs = ((high - low) / high) / (1.0 - 1.0 / alpha)
        assert lhs == pytest.approx(rhs, rel=rel)

    def test_near_flat_bounds_degenerate_to_upper_bound(self):
        low, high = 1.0, math.nextafter(1.0, 2.0)
        assert solve_alpha(1, low, high) == math.inf
        thresholds = cap_thresholds(10, 3, low, high)
        assert thresholds.values == (high,) * 10
        assert thresholds.quota(low) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_alpha(0, L, U)


class TestCapThresholds:
    def test_structure(self):
        thresholds = cap_thresholds(10, 3, L, U)
        values = np.array(thresholds.values)
        assert len(values) == 10
        assert np.all(values[:3] == U)  # first B thresholds pinned at U
        assert np.all(np.diff(values) <= 1e-9)  # non-increasing

    def test_last_threshold_approaches_lower_bound(self):
        """The α equation pins Φ at index K+1 to L, so the last real
        threshold sits one geometric step above L."""
        thresholds = cap_thresholds(20, 4, L, U)
        k, alpha = 16, thresholds.alpha
        growth = 1.0 + 1.0 / (k * alpha)
        last = thresholds.values[-1]
        assert L <= last <= L + (U - L / alpha) * (growth - 1.0) * 2
        # one more geometric step would land at (or below) L:
        base = U - U / alpha
        beyond = U - base * growth**k
        assert beyond == pytest.approx(L, rel=1e-6)

    def test_quota_at_extremes(self):
        thresholds = cap_thresholds(10, 3, L, U)
        assert thresholds.quota(U) == 3  # minimum progress at peak carbon
        assert thresholds.quota(U + 100) == 3  # clamped above U
        assert thresholds.quota(L * 0.5) == 10  # whole cluster when clean

    def test_quota_monotone_in_carbon(self):
        thresholds = cap_thresholds(16, 4, L, U)
        quotas = [thresholds.quota(c) for c in np.linspace(L, U, 30)]
        assert all(b <= a for a, b in zip(quotas, quotas[1:]))

    def test_degenerate_flat_bounds(self):
        thresholds = cap_thresholds(8, 2, 100.0, 100.0)
        assert thresholds.quota(100.0) == 8

    def test_b_equals_k(self):
        thresholds = cap_thresholds(6, 6, L, U)
        assert thresholds.quota(U) == 6

    def test_quota_never_below_b(self):
        thresholds = cap_thresholds(12, 5, L, U)
        for c in np.linspace(0, 2 * U, 40):
            assert thresholds.quota(float(c)) >= 5

    @given(
        K=st.integers(min_value=1, max_value=200),
        b_share=st.floats(min_value=0.0, max_value=1.0),
        low=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3)),
        span=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2e3)),
        pick=st.floats(min_value=0.0, max_value=1.0),
        c=st.floats(min_value=-10.0, max_value=5e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_quota_counts_thresholds_at_or_above_c(
        self, K, b_share, low, span, pick, c
    ):
        """The bisection equals the plain count, also when ``c`` is one of
        the thresholds exactly."""
        B = max(1, round(b_share * K))
        thresholds = cap_thresholds(K, B, low, low + span)
        values = np.asarray(thresholds.values)
        exact = float(values[min(K - 1, int(pick * K))])
        for intensity in (c, exact, low, low + span):
            expected = max(B, int(np.count_nonzero(values >= intensity)))
            assert thresholds.quota(intensity) == expected

    def test_one_shot_helper(self):
        assert cap_quota(U, 10, 3, L, U) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            cap_thresholds(0, 1, L, U)
        with pytest.raises(ValueError):
            cap_thresholds(5, 6, L, U)
        with pytest.raises(ValueError):
            cap_thresholds(5, 0, L, U)
