#!/usr/bin/env python3
"""Drive the always-on dispatch service and verify the replay bridge.

Boots an in-process :class:`DispatchService` on a small seeded scenario,
offers its order stream through the open-loop load generator (a steady
phase, an idle gap, then a burst), drains, and replays the recorded ingest
log offline through ``engine.run`` — the metrics must agree bit-for-bit,
because wall clock only decides *when* orders reach the engine, never what
the engine computes.

Run with:

    python examples/dispatch_service.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.dispatch.scenarios import DispatchScenario
from repro.service import LoadPhase
from repro.experiments.service_load import run_service_load


def main() -> None:
    scenario = DispatchScenario(
        city="xian_like",
        policy="polar",
        matching="greedy",
        fleet_size=40,
        seed=11,
        slots=(16, 17),
    )
    phases = [
        LoadPhase(rate=150.0, seconds=2.0),  # steady load
        LoadPhase(rate=0.0, seconds=0.5),  # idle gap: the match loop blocks until the next arrival
        LoadPhase(rate=400.0, seconds=2.0),  # burst: micro-batching kicks in
    ]
    print(f"Serving {scenario.label} in-process and offering its order stream...")
    with tempfile.TemporaryDirectory() as tmp:
        log = str(Path(tmp) / "ingest.jsonl")
        report = run_service_load(scenario, phases, ingest_log=log)

    loadgen, service = report["loadgen"], report["service"]
    print(
        f"  offered {loadgen['orders_sent']} orders "
        f"at {loadgen['offered_rate']:.0f}/s over {len(phases)} phases"
    )
    print(
        f"  service sustained {service['orders_per_sec']:.0f} orders/s, "
        f"p50 latency {service['latency_p50_ms']:.1f}ms, "
        f"p99 {service['latency_p99_ms']:.1f}ms, "
        f"peak pending {service['max_pending']}"
    )
    metrics = service["metrics"]
    print(
        f"  outcome: {metrics['served_orders']} served, "
        f"{metrics['cancelled_orders']} cancelled of "
        f"{metrics['total_orders']} admitted"
    )
    replay = report["replay"]
    print(
        f"  offline replay of the ingest log: {replay['order_count']} orders, "
        f"metrics equal bit-for-bit: {replay['replay_equal']}"
    )
    if not replay["replay_equal"]:
        raise SystemExit("replay diverged from the live run")


if __name__ == "__main__":
    main()
