"""Shared fixtures for the dispatch service tests.

One small two-slot scenario bundle is built per session: bundle
construction (dataset synthesis, travel model, demand guidance) is the
expensive part, while fleets, engines and sessions are cheap to spawn per
test from it.
"""

import pytest

from repro.dispatch.scenarios import DispatchScenario, build_scenario_bundle
from repro.utils.rng import default_rng


@pytest.fixture(scope="session")
def scenario():
    return DispatchScenario(
        city="xian_like",
        policy="polar",
        matching="greedy",
        fleet_size=40,
        seed=11,
        slots=(16, 17),
    )


@pytest.fixture(scope="session")
def bundle(scenario):
    return build_scenario_bundle(scenario)


@pytest.fixture()
def sim_rng(scenario):
    def make():
        return default_rng(scenario.sim_seed)

    return make
