"""The live service and ``bundle.run`` are two runs of one scenario recipe.

Submitting a bundle's order stream to an in-process service must end with
the same ``DispatchMetrics`` as simulating the bundle offline on the vector
engine and on the scalar oracle: all three build their engine and
simulation stream from the scenario (``ScenarioBundle.engine`` and
``DispatchScenario.sim_seed``).
"""

import dataclasses

import pytest

from repro.dispatch.scenarios import build_scenario_bundle
from repro.service import DispatchService, ServiceConfig, order_payloads


@pytest.fixture(scope="module")
def whole_day_bundle(scenario):
    return build_scenario_bundle(dataclasses.replace(scenario, slots=None))


@pytest.mark.parametrize("window", ["whole-day", "slots-16-17"])
def test_live_service_matches_bundle_run(window, bundle, whole_day_bundle):
    if window == "whole-day":
        bundle = whole_day_bundle
        assert bundle.total_order_count == 1178
    service = DispatchService(ServiceConfig(scenario=bundle.scenario), bundle=bundle).start()
    for payload in order_payloads(bundle):
        service.submit(payload)
    live = service.drain().metrics
    assert live.total_orders == bundle.total_order_count
    assert live == bundle.run("vector") == bundle.run("scalar")
