"""Tests for repro.core.expression — the heart of the paper's Section III-B."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expression import (
    DEFAULT_K,
    default_k_for,
    expression_error_algorithm1,
    expression_error_algorithm2,
    expression_error_batch,
    expression_error_gaussian,
    expression_error_monte_carlo,
    expression_error_reference,
    expression_error_upper_bound,
    mgrid_expression_error,
    total_expression_error,
    total_expression_error_upper_bound,
)
from repro.core.grid import GridLayout

alphas = st.floats(min_value=0.0, max_value=15.0)
rests = st.floats(min_value=0.0, max_value=60.0)
ms = st.integers(min_value=2, max_value=12)


class TestAgreementBetweenCalculators:
    @pytest.mark.parametrize(
        "alpha_ij,alpha_rest,m",
        [(0.5, 2.0, 4), (2.0, 14.0, 8), (5.0, 5.0, 2), (0.0, 3.0, 4), (3.0, 0.0, 3)],
    )
    def test_algorithm1_matches_reference(self, alpha_ij, alpha_rest, m):
        k = default_k_for(alpha_ij, alpha_rest, m)
        reference = expression_error_reference(alpha_ij, alpha_rest, m, k=k)
        algorithm1 = expression_error_algorithm1(alpha_ij, alpha_rest, m, k=k)
        assert algorithm1 == pytest.approx(reference, rel=1e-9, abs=1e-12)

    @given(alphas, rests, ms)
    @settings(max_examples=40, deadline=None)
    def test_algorithm2_matches_reference(self, alpha_ij, alpha_rest, m):
        k = default_k_for(alpha_ij, alpha_rest, m)
        reference = expression_error_reference(alpha_ij, alpha_rest, m, k=k)
        algorithm2 = expression_error_algorithm2(alpha_ij, alpha_rest, m, k=k)
        assert algorithm2 == pytest.approx(reference, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize(
        "alpha_ij,alpha_rest,m", [(4.0, 28.0, 8), (10.0, 90.0, 10), (8.0, 8.0, 2)]
    )
    def test_gaussian_close_for_moderate_means(self, alpha_ij, alpha_rest, m):
        exact = expression_error_algorithm2(alpha_ij, alpha_rest, m)
        gaussian = expression_error_gaussian(alpha_ij, alpha_rest, m)
        assert gaussian == pytest.approx(exact, rel=0.05)

    def test_monte_carlo_close_to_exact(self):
        exact = expression_error_algorithm2(2.0, 14.0, 8)
        sampled = expression_error_monte_carlo(2.0, 14.0, 8, samples=200_000, seed=3)
        assert sampled == pytest.approx(exact, rel=0.03)

    def test_m_equal_one_gives_zero(self):
        assert expression_error_reference(5.0, 0.0, 1) == 0.0
        assert expression_error_algorithm2(5.0, 0.0, 1) == 0.0
        assert expression_error_gaussian(5.0, 0.0, 1) == 0.0


class TestKnownValues:
    def test_zero_alpha_everywhere_gives_zero_error(self):
        assert expression_error_algorithm2(0.0, 0.0, 4) == pytest.approx(0.0, abs=1e-12)

    def test_single_hgrid_with_all_events(self):
        """If all the MGrid's demand sits in one HGrid, the expression error of
        that HGrid approaches (m-1)/m * E[lambda] ~ its mean absolute deviation
        scaled; validate against the direct reference evaluation."""
        value = expression_error_algorithm2(6.0, 0.0, 3)
        reference = expression_error_reference(6.0, 0.0, 3, k=default_k_for(6.0, 0.0, 3))
        assert value == pytest.approx(reference, rel=1e-9)

    def test_m_two_symmetric_matches_mean_abs_deviation_structure(self):
        """For m=2 and equal alphas the error is E|X - Y| / 2 with X,Y iid Poisson."""
        alpha = 3.0
        exact = expression_error_algorithm2(alpha, alpha, 2)
        sampled = expression_error_monte_carlo(alpha, alpha, 2, samples=300_000, seed=1)
        assert exact == pytest.approx(sampled, rel=0.03)


class TestProperties:
    @given(alphas, rests, ms)
    @settings(max_examples=40, deadline=None)
    def test_error_is_non_negative(self, alpha_ij, alpha_rest, m):
        assert expression_error_algorithm2(alpha_ij, alpha_rest, m) >= 0.0

    @given(alphas, rests, ms)
    @settings(max_examples=40, deadline=None)
    def test_lemma_upper_bound_holds(self, alpha_ij, alpha_rest, m):
        """Lemma III.1: the truncated series is below (1 - 2/m) a_ij + sum/m."""
        error = expression_error_algorithm2(alpha_ij, alpha_rest, m)
        bound = expression_error_upper_bound(alpha_ij, alpha_rest, m)
        assert error <= bound + 1e-9

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_error_grows_when_uniform_demand_scales_up(self, alpha, m):
        """Scaling a uniform MGrid's demand up increases each HGrid's expression
        error (the absolute fluctuation grows with the Poisson mean) — the
        mechanism behind Lemma III.1's dependence on alpha."""
        small = expression_error_algorithm2(alpha, (m - 1) * alpha, m)
        large = expression_error_algorithm2(2 * alpha, (m - 1) * 2 * alpha, m)
        assert large >= small - 1e-9

    def test_batched_algorithm2_matches_reference(self):
        batched = expression_error_batch(
            np.array([2.0]), 6, rest=np.array([10.0]), method="algorithm2"
        )
        reference = expression_error_reference(2.0, 10.0, 6)
        assert batched[0] == pytest.approx(reference, rel=1e-8)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            mgrid_expression_error(np.ones(2), method="magic")

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            expression_error_algorithm2(-1.0, 1.0, 2)
        with pytest.raises(ValueError):
            expression_error_algorithm2(1.0, -1.0, 2)
        with pytest.raises(ValueError):
            expression_error_algorithm2(1.0, 1.0, 0)


class TestMGridAggregation:
    def test_uniform_mgrid_small_error(self):
        """A perfectly uniform MGrid still has Poisson-level expression error,
        but far less than a concentrated one with the same total demand."""
        uniform = mgrid_expression_error(np.full(4, 2.0))
        concentrated = mgrid_expression_error(np.array([8.0, 0.0, 0.0, 0.0]))
        assert concentrated > uniform

    def test_single_hgrid_mgrid_is_zero(self):
        assert mgrid_expression_error(np.array([5.0])) == 0.0

    def test_rejects_negative_alphas(self):
        with pytest.raises(ValueError):
            mgrid_expression_error(np.array([1.0, -0.5]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mgrid_expression_error(np.array([]))

    def test_exact_and_gaussian_totals_close(self):
        rng = np.random.default_rng(0)
        alphas = rng.uniform(3.0, 12.0, size=9)
        exact = mgrid_expression_error(alphas, method="algorithm2")
        gaussian = mgrid_expression_error(alphas, method="gaussian")
        assert gaussian == pytest.approx(exact, rel=0.06)


class TestTotalExpressionError:
    def _alpha_grid(self, resolution, seed=0, scale=4.0):
        rng = np.random.default_rng(seed)
        return rng.uniform(0.0, scale, size=(resolution, resolution))

    def test_zero_when_m_is_one(self):
        layout = GridLayout(num_mgrids=16, hgrids_per_mgrid=1)
        alpha = self._alpha_grid(4)
        assert total_expression_error(alpha, layout) == 0.0

    def test_decreases_with_finer_mgrids_at_fixed_lattice(self):
        """On a fixed 8x8 HGrid lattice, more MGrids means less expression error."""
        alpha = self._alpha_grid(8, seed=1)
        coarse_layout = GridLayout(num_mgrids=4, hgrids_per_mgrid=16)
        fine_layout = GridLayout(num_mgrids=16, hgrids_per_mgrid=4)
        coarse = total_expression_error(alpha, coarse_layout)
        fine = total_expression_error(alpha, fine_layout)
        assert fine < coarse

    def test_methods_agree(self):
        alpha = self._alpha_grid(8, seed=2, scale=6.0)
        layout = GridLayout(num_mgrids=16, hgrids_per_mgrid=4)
        exact = total_expression_error(alpha, layout, method="algorithm2")
        auto = total_expression_error(alpha, layout, method="auto")
        gaussian = total_expression_error(alpha, layout, method="gaussian")
        assert auto == pytest.approx(exact, rel=0.05)
        assert gaussian == pytest.approx(exact, rel=0.08)

    def test_city_wide_upper_bound(self):
        alpha = self._alpha_grid(8, seed=3)
        layout = GridLayout(num_mgrids=4, hgrids_per_mgrid=16)
        error = total_expression_error(alpha, layout)
        bound = total_expression_error_upper_bound(alpha, layout)
        assert error <= bound + 1e-9

    def test_upper_bound_zero_for_single_hgrid(self):
        layout = GridLayout(num_mgrids=16, hgrids_per_mgrid=1)
        assert total_expression_error_upper_bound(self._alpha_grid(4), layout) == 0.0


class TestDefaultK:
    def test_scales_with_alpha(self):
        assert default_k_for(50.0, 10.0, 4) > default_k_for(1.0, 1.0, 4)

    def test_minimum_value(self):
        assert default_k_for(0.0, 0.0, 2) >= 8

    def test_default_constant_positive(self):
        assert DEFAULT_K > 0
