"""Dispatch-scenario suite: a :class:`~repro.sweep.suite.CachedSuiteRunner` task.

A suite is a batch of :class:`~repro.dispatch.scenarios.DispatchScenario`
points (city x policy x fleet size x demand scale x seed), each simulated
once by the vectorized (or scalar) engine.  :class:`DispatchSuiteRunner`
defines the task — cache key, payload, dataset builder and the
:func:`_simulate_scenario` compute step — and inherits the cached fan-out.
Scenario simulations are fully deterministic (see the draw-order notes in
:mod:`repro.dispatch.engine`), so a rerun with identical parameters is a
byte-identical cache replay that simulates nothing.  On the process backend
misses are grouped per ``dataset_signature``: dataset generation is a large
share of a scenario's cost, so each worker task generates one dataset.

Example
-------
>>> from repro.dispatch.scenarios import scenario_grid
>>> scenarios = scenario_grid(["xian_like"], fleet_sizes=[50], seeds=[7])
>>> report = DispatchSuiteRunner(scenarios, cache_dir="/tmp/suite").run()
>>> report.outcomes[0].metrics.served_orders
42
>>> DispatchSuiteRunner(scenarios, cache_dir="/tmp/suite").run().cache_hits
2
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.data.dataset import EventDataset
from repro.dispatch.entities import DispatchMetrics
from repro.dispatch.scenarios import (
    DispatchScenario,
    build_scenario_bundle,
    build_scenario_dataset,
)
from repro.sweep.suite import CachedSuiteReport, CachedSuiteRunner
from repro.utils.cache import ResultCache
from repro.utils.timer import wall_clock

#: Bump when the serialised payload layout changes so stale entries miss.
#: Schema 2: lifecycle metrics (``cancelled_orders``) joined the payload and
#: scenarios gained fleet/order lifecycle semantics (shift windows, multi-day
#: replay), so schema-1 entries must miss rather than replay without them.
_CACHE_SCHEMA = 2


@dataclass(frozen=True)
class ScenarioOutcome:
    """Result of one suite scenario, fresh or replayed from the cache."""

    scenario: DispatchScenario
    metrics: DispatchMetrics
    total_orders: int
    seconds: float
    from_cache: bool
    engine: str

    @property
    def label(self) -> str:
        return self.scenario.label


class SuiteReport(CachedSuiteReport[ScenarioOutcome]):
    """All outcomes of one suite run plus aggregate bookkeeping."""


def _serialise(outcome: ScenarioOutcome) -> Dict[str, Any]:
    metrics = outcome.metrics
    return {
        "served_orders": metrics.served_orders,
        "cancelled_orders": metrics.cancelled_orders,
        "total_orders": metrics.total_orders,
        "total_revenue": metrics.total_revenue,
        "total_travel_km": metrics.total_travel_km,
        "unified_cost": metrics.unified_cost,
        "suite_total_orders": outcome.total_orders,
        "engine": outcome.engine,
    }


def _deserialise(
    scenario: DispatchScenario, payload: Dict[str, Any], seconds: float
) -> ScenarioOutcome:
    metrics = DispatchMetrics(
        served_orders=int(payload["served_orders"]),
        total_orders=int(payload["total_orders"]),
        total_revenue=float(payload["total_revenue"]),
        total_travel_km=float(payload["total_travel_km"]),
        unified_cost=float(payload["unified_cost"]),
        cancelled_orders=int(payload["cancelled_orders"]),
    )
    return ScenarioOutcome(
        scenario=scenario,
        metrics=metrics,
        total_orders=int(payload["suite_total_orders"]),
        seconds=seconds,
        from_cache=True,
        engine=str(payload["engine"]),
    )


def _simulate_scenario(
    scenario: DispatchScenario,
    dataset: EventDataset,
    providers: Dict[Tuple, Any],
    engine: str,
) -> ScenarioOutcome:
    """Simulate one scenario; ``providers`` shares trained guidance models."""
    scenario_start = wall_clock()
    bundle = build_scenario_bundle(scenario, dataset=dataset, provider_cache=providers)
    metrics = bundle.run(engine=engine)
    return ScenarioOutcome(
        scenario=scenario,
        metrics=metrics,
        total_orders=bundle.total_order_count,
        seconds=wall_clock() - scenario_start,
        from_cache=False,
        engine=engine,
    )


class DispatchSuiteRunner(CachedSuiteRunner[DispatchScenario, ScenarioOutcome]):
    """Run a batch of dispatch scenarios in parallel with persistent caching.

    Parameters
    ----------
    scenarios:
        The scenario points to simulate.
    cache_dir:
        Directory for the persistent :class:`~repro.utils.cache.ResultCache`;
        ``None`` disables on-disk caching (everything is recomputed).
    max_workers:
        Worker-pool size, ``None`` or at least 1; defaults to
        ``min(misses, cpu_count)`` for threads and ``min(groups, cpu_count)``
        for processes.
    engine:
        ``"vector"`` (default) or ``"scalar"`` — which simulation engine runs
        cache misses.  The scalar oracle replays the vector engine's dense
        path bit for bit; a sparse batch may differ from both under a
        Hungarian tie (the caveat in :mod:`repro.dispatch.matching`).  The
        engine name is recorded per outcome but *not* keyed, so a
        scalar-engine run warms the cache for vector-engine reruns and vice
        versa.
    executor:
        ``"thread"`` (default) or ``"process"``.  Matching-heavy scenarios
        are GIL-bound, so the process backend fans cache misses out to a
        :class:`~concurrent.futures.ProcessPoolExecutor` — one task per
        unique dataset signature so each dataset is still generated exactly
        once.  Cache lookups and writes stay in the parent process, so both
        backends produce identical cached JSON bytes.
    """

    item_name = "scenario"
    report_type = SuiteReport
    serialise = staticmethod(_serialise)
    deserialise = staticmethod(_deserialise)
    build_dataset = staticmethod(build_scenario_dataset)

    def __init__(
        self,
        scenarios: Iterable[DispatchScenario],
        cache_dir: Optional[str] = None,
        max_workers: Optional[int] = None,
        engine: str = "vector",
        executor: str = "thread",
    ) -> None:
        if engine not in ("vector", "scalar"):
            raise ValueError("engine must be 'vector' or 'scalar'")
        super().__init__(scenarios, cache_dir=cache_dir, max_workers=max_workers, executor=executor)
        self.engine = engine
        # Demand-guidance providers shared across scenarios with equal
        # guidance_signature (one predictor training per signature, not per
        # scenario).  Dict reads/writes are GIL-atomic; a rare concurrent
        # double-train produces the identical (deterministic) provider.
        # Process workers get a fresh copy per dataset group.
        self._providers: Dict[Tuple, Any] = {}

    @staticmethod
    def cache_key(scenario: DispatchScenario) -> str:
        """Result-cache key of one scenario."""
        return ResultCache.key_for(
            {"schema": _CACHE_SCHEMA, "scenario": scenario.cache_payload()}
        )

    @property
    def compute(self) -> partial:
        return partial(_simulate_scenario, providers=self._providers, engine=self.engine)

