"""Shared fixtures for the benchmark suite.

Every benchmark reproduces one table or figure of the paper (see
docs/architecture.md §13 for the index) at a configurable scale.  The profile
defaults to ``tiny`` so that ``pytest benchmarks/ --benchmark-only`` completes
in minutes; set the ``GRIDTUNER_BENCH_PROFILE`` environment variable to
``small`` (or ``paper``) for larger runs.

Benchmarks print the reproduced series as text tables; those printouts are the
reproduced data (README "Benchmarks → paper figures" maps each file to its
figure).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments.context import ExperimentContext  # noqa: E402


def _profile_name() -> str:
    return os.environ.get("GRIDTUNER_BENCH_PROFILE", "tiny")


@pytest.fixture(scope="session")
def context() -> ExperimentContext:
    """Experiment context shared by all benchmarks (datasets built once)."""
    return ExperimentContext.from_profile(_profile_name())


@pytest.fixture(scope="session")
def bench_sides(context) -> list[int]:
    """Candidate MGrid sides swept by the error-curve and case-study benches."""
    return list(context.config.mgrid_sides)


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
