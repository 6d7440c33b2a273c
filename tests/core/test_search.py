"""Tests for repro.core.search (brute force, Ternary Search, Iterative Method)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import (
    brute_force_search,
    iterative_search,
    run_search,
    ternary_search,
)


def unimodal_objective(optimum: int):
    """A strictly unimodal (V-shaped) objective over the side length."""

    def objective(side: int) -> float:
        return abs(side - optimum) * 2.0 + 1.0

    return objective


class CountingObjective:
    """Wraps an objective and counts how many calls hit it."""

    def __init__(self, func):
        self.func = func
        self.calls = 0

    def __call__(self, side):
        self.calls += 1
        return self.func(side)


class TestBruteForce:
    def test_finds_global_optimum(self):
        result = brute_force_search(unimodal_objective(5), 144)
        assert result.best_side == 5
        assert result.best_n == 25
        assert result.algorithm == "brute_force"

    def test_evaluates_every_side(self):
        result = brute_force_search(unimodal_objective(3), 100, min_side=2)
        assert result.evaluations == 9  # sides 2..10

    def test_invalid_min_side(self):
        with pytest.raises(ValueError):
            brute_force_search(unimodal_objective(3), 64, min_side=0)
        with pytest.raises(ValueError):
            brute_force_search(unimodal_objective(3), 64, min_side=99)

    def test_non_square_budget_rejected(self):
        with pytest.raises(ValueError):
            brute_force_search(unimodal_objective(3), 60)


@pytest.mark.parametrize("search", [brute_force_search, ternary_search, iterative_search])
class TestSideRange:
    def test_max_side_beyond_budget_rejected(self, search):
        """n = side**2 may not exceed N: isqrt(64) = 8 is the largest side."""
        with pytest.raises(ValueError, match="exceeds isqrt"):
            search(unimodal_objective(15), 64, max_side=20)

    def test_max_side_at_budget_accepted(self, search):
        assert search(unimodal_objective(8), 64, max_side=8).best_side == 8

    def test_min_side_above_max_side_rejected(self, search):
        with pytest.raises(ValueError, match="exceeds max side"):
            search(unimodal_objective(3), 64, min_side=5, max_side=4)


class TestTernarySearch:
    @pytest.mark.parametrize("optimum", [1, 2, 7, 12, 16])
    def test_finds_optimum_of_unimodal_objective(self, optimum):
        result = ternary_search(unimodal_objective(optimum), 16 * 16)
        assert result.best_side == optimum

    def test_terminates_on_flat_objective(self):
        result = ternary_search(lambda side: 1.0, 64 * 64)
        assert 1 <= result.best_side <= 64

    def test_uses_far_fewer_evaluations_than_brute_force(self):
        counting = CountingObjective(unimodal_objective(20))
        ternary_result = ternary_search(counting, 64 * 64)
        assert ternary_result.best_side == 20
        brute_calls = 64
        assert counting.calls < brute_calls / 2

    def test_probes_recorded(self):
        result = ternary_search(unimodal_objective(4), 100)
        assert result.best_side in result.probes
        assert result.evaluations == len(result.probes)

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=6, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_unimodal_property(self, optimum, max_side):
        """Ternary search finds the optimum of any unimodal objective."""
        optimum = min(optimum, max_side)
        result = ternary_search(unimodal_objective(optimum), max_side * max_side)
        assert result.best_side == optimum

    def test_may_miss_optimum_of_multimodal_objective(self):
        """On a deliberately multimodal objective the result is still a probe
        with a finite value (no crash, no infinite loop)."""

        def bumpy(side):
            return np.sin(side * 2.1) * 5 + 0.02 * (side - 10) ** 2

        result = ternary_search(bumpy, 40 * 40)
        assert np.isfinite(result.best_value)


class TestIterativeSearch:
    @pytest.mark.parametrize("optimum", [2, 5, 9, 16])
    def test_finds_optimum_with_reasonable_bound(self, optimum):
        result = iterative_search(
            unimodal_objective(optimum), 16 * 16, initial_side=8, bound=4
        )
        assert result.best_side == optimum

    def test_larger_bound_escapes_local_minimum(self):
        """A larger search bound lets the method jump over a local bump that a
        bound of 1 cannot cross (the trade-off shown in Figure 17)."""
        values = {7: 1.2, 8: 1.0, 9: 2.0, 10: 1.5, 11: 0.2, 12: 0.5}

        def objective(side):
            return values.get(side, 3.0 + abs(side - 11) * 0.1)

        stuck = iterative_search(objective, 16 * 16, initial_side=8, bound=1)
        escaped = iterative_search(objective, 16 * 16, initial_side=8, bound=4)
        assert stuck.best_side == 8
        assert escaped.best_side == 11

    def test_initial_side_clamped_to_range(self):
        result = iterative_search(unimodal_objective(3), 16, initial_side=99, bound=2)
        assert 1 <= result.best_side <= 4

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            iterative_search(unimodal_objective(3), 64, bound=0)

    def test_stuck_in_local_optimum_with_tiny_bound(self):
        """With a bound of 1 a far-away optimum may not be reached; the result
        must still be a locally non-improvable side."""

        def two_valleys(side):
            return min(abs(side - 3), abs(side - 30) * 0.5) + 0.1

        result = iterative_search(two_valleys, 32 * 32, initial_side=3, bound=1)
        assert result.best_side == 3  # stays in the nearby valley

    @given(st.integers(min_value=1, max_value=25))
    @settings(max_examples=30, deadline=None)
    def test_result_is_local_minimum_within_bound(self, optimum):
        objective = unimodal_objective(optimum)
        result = iterative_search(objective, 25 * 25, initial_side=12, bound=3)
        best = result.best_side
        for step in range(1, 4):
            for neighbour in (best - step, best + step):
                if 1 <= neighbour <= 25:
                    assert objective(best) <= objective(neighbour) + 1e-12


class TestRunSearch:
    def test_dispatches_by_name(self):
        for name in ("brute_force", "ternary", "iterative"):
            result = run_search(name, unimodal_objective(4), 64)
            assert result.algorithm == name

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            run_search("simulated_annealing", unimodal_objective(4), 64)

    def test_all_algorithms_agree_on_unimodal(self):
        objective = unimodal_objective(6)
        results = {
            name: run_search(name, objective, 144).best_side
            for name in ("brute_force", "ternary", "iterative")
        }
        assert set(results.values()) == {6}
