"""Orchestrated load runs against the always-on dispatch service.

:func:`run_service_load` is the single entry point shared by the ``repro
loadgen`` CLI verb, ``benchmarks/bench_service.py`` and the nightly soak
workflow: it builds (or connects to) a service, replays the scenario's
seeded order stream through the open-loop load generator, drains, and —
when an ingest log was recorded — replays the log offline to verify the
determinism bridge (live metrics == offline ``engine.run`` metrics,
bit-for-bit).

The report separates the three concerns the gates care about:

* ``loadgen`` — offered load (wall clock, client side);
* ``service`` — sustained throughput, admission→assignment latency
  percentiles, peak pending backlog (wall clock, server side);
* ``replay`` — the rate-independent simulation outcome and its equality
  flag (no wall clock at all).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Sequence

from repro.dispatch.scenarios import DispatchScenario, build_scenario_bundle
from repro.service.ingest import replay_ingest_log
from repro.service.loadgen import (
    HttpClient,
    InProcessClient,
    LoadPhase,
    RetryPolicy,
    order_payloads,
    run_loadgen,
)
from repro.service.server import DispatchService, ServiceConfig


def run_service_load(
    scenario: DispatchScenario,
    phases: Sequence[LoadPhase],
    repeat_days: int = 1,
    max_orders: Optional[int] = None,
    ingest_log: Optional[str] = None,
    max_batch: int = 256,
    url: Optional[str] = None,
    check_replay: bool = True,
    max_pending: Optional[int] = None,
    retries: int = 0,
    retry_seed: Optional[int] = None,
    on_phase: Optional[Any] = None,
) -> Dict[str, Any]:
    """Drive one full load run and return the combined report payload.

    With ``url`` unset the service is hosted in-process (the scenario
    bundle is shared between service, generator and replay, so nothing is
    built twice).  With ``url`` set, an already-running ``repro serve``
    instance is driven over HTTP; the bundle is still built locally to
    synthesise the order stream, and the replay check runs whenever
    ``ingest_log`` names a locally readable file (the server's log path).

    ``max_pending`` bounds the in-process service's pending pool (shed
    counts land in both the ``loadgen`` and ``service`` sections of the
    report); ``retries`` arms the HTTP client's seeded backoff (the jitter
    seed defaults to the scenario seed so repeated runs pace identically).
    """
    bundle = build_scenario_bundle(scenario)
    payloads = order_payloads(bundle, repeat_days=repeat_days, max_orders=max_orders)
    service: Optional[DispatchService] = None
    if url is None:
        config = ServiceConfig(
            scenario=scenario,
            max_batch=max_batch,
            ingest_log=ingest_log,
            max_pending=max_pending,
        )
        service = DispatchService(config, bundle=bundle).start()
        client: Any = InProcessClient(service)
    else:
        retry = None
        if retries > 0:
            retry = RetryPolicy(
                max_retries=retries,
                seed=scenario.seed if retry_seed is None else retry_seed,
            )
        client = HttpClient(url, retry=retry)
    loadgen_result = run_loadgen(client, payloads, phases, on_phase=on_phase)
    service_report = client.drain()
    report: Dict[str, Any] = {
        "scenario": {
            "name": scenario.label,
            "city": scenario.city,
            "policy": scenario.policy,
            "matching": scenario.matching,
            "seed": scenario.seed,
        },
        "orders_offered": len(payloads),
        "repeat_days": repeat_days,
        "phases": [dataclasses.asdict(phase) for phase in phases],
        "loadgen": loadgen_result.to_payload(),
        "service": service_report,
    }
    log_path = service_report.get("ingest_log") or ingest_log
    if check_replay and log_path is not None:
        replay = replay_ingest_log(log_path, bundle=bundle)
        replay_metrics = dataclasses.asdict(replay.metrics)
        report["replay"] = {
            "order_count": replay.order_count,
            "metrics": replay_metrics,
            "replay_equal": service_report["metrics"] == replay_metrics,
        }
    return report
