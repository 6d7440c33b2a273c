"""Shared utilities: seeded RNG management, Poisson helpers, validation, timing, caching."""

from repro.utils.cache import ResultCache, canonical_json
from repro.utils.rng import RandomState, default_rng, spawn_rng
from repro.utils.poisson import (
    poisson_pmf,
    poisson_cdf,
    poisson_mean_abs_deviation,
    truncated_poisson_support,
)
from repro.utils.validation import (
    ensure_positive,
    ensure_non_negative,
    ensure_probability,
    ensure_perfect_square,
    ensure_in_range,
)

__all__ = [
    "ResultCache",
    "canonical_json",
    "RandomState",
    "default_rng",
    "spawn_rng",
    "poisson_pmf",
    "poisson_cdf",
    "poisson_mean_abs_deviation",
    "truncated_poisson_support",
    "ensure_positive",
    "ensure_non_negative",
    "ensure_probability",
    "ensure_perfect_square",
    "ensure_in_range",
]
