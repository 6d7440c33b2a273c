"""Service benchmark: sustained throughput, latency and replay equality.

Boots the always-on dispatch service in-process on the pinned reference
scenario (:func:`repro.dispatch.scenarios.reference_scenario` — 200
drivers, one full NYC-like day, POLAR greedy), drives it with the seeded
open-loop load generator at a fixed offered rate, drains, and replays the
recorded ingest log offline through ``engine.run``:

* **Throughput** — sustained admitted orders/second over the run;
* **Latency** — admission→assignment p50/p99/max milliseconds;
* **Determinism bridge** — the offline replay of the ingest log must
  reproduce the live run's :class:`DispatchMetrics` bit-for-bit, and the
  metric values are compared against the committed baseline (they equal
  the offline reference-scenario metrics, because wall-clock scheduling
  never changes what the engine computes).

Run modes
---------
* ``python benchmarks/bench_service.py --output BENCH_service.json`` emits
  the machine-readable result consumed by
  ``benchmarks/check_service_regression.py`` (the CI service gate).
* ``pytest benchmarks/bench_service.py`` runs the same measurement as a
  smoke test under pytest-benchmark timing.

The CI gate's negative test sets ``REPRO_SERVICE_INJECT_SLEEP_MS`` so the
match loop sleeps per batch; the benchmark itself never reads the clock for
anything but wall-time measurement, so the injected slowdown shows up only
in the latency/throughput numbers — exactly what the gate must catch.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.dispatch.scenarios import reference_scenario  # noqa: E402
from repro.experiments.service_load import run_service_load  # noqa: E402
from repro.service.loadgen import LoadPhase  # noqa: E402

#: Offered load of the pinned measurement (orders/second).
RATE = 250.0

#: Micro-batch cap of the benchmarked service.
MAX_BATCH = 256


def run_benchmark(rate: float = RATE) -> Dict:
    """Drive the reference scenario through the service; return the payload."""
    scenario = reference_scenario("polar", "greedy")
    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        log_path = str(Path(tmp) / "ingest.jsonl")
        # One long phase; the generator stops when the day's stream is done.
        report = run_service_load(
            scenario,
            [LoadPhase(rate=rate, seconds=3600.0)],
            ingest_log=log_path,
            max_batch=MAX_BATCH,
        )
    service = report["service"]
    loadgen = report["loadgen"]
    return {
        "schema": 1,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "scenario": report["scenario"],
        "offered_rate": rate,
        "orders_offered": report["orders_offered"],
        "service": {
            "orders_admitted": service["orders_admitted"],
            "orders_per_sec": service["orders_per_sec"],
            "latency_p50_ms": service["latency_p50_ms"],
            "latency_p99_ms": service["latency_p99_ms"],
            "latency_mean_ms": service["latency_mean_ms"],
            "latency_max_ms": service["latency_max_ms"],
            "max_pending": service["max_pending"],
            "assigned": service["assigned"],
            "cancelled": service["cancelled"],
            "unserved": service["unserved"],
            "orders_shed": service["orders_shed"],
            "client_retries": loadgen["retries"],
            "state": service["state"],
        },
        "metrics": service["metrics"],
        "replay_equal": report["replay"]["replay_equal"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="dispatch service benchmark")
    parser.add_argument(
        "--output",
        default="BENCH_service.json",
        help="path of the emitted JSON (default: BENCH_service.json)",
    )
    parser.add_argument("--rate", type=float, default=RATE)
    args = parser.parse_args(argv)
    payload = run_benchmark(rate=args.rate)
    Path(args.output).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    service = payload["service"]
    print(
        f"service: {service['orders_admitted']} orders at "
        f"{service['orders_per_sec']:.1f}/s sustained "
        f"(offered {payload['offered_rate']:g}/s), "
        f"p50 {service['latency_p50_ms']:.1f}ms, "
        f"p99 {service['latency_p99_ms']:.1f}ms, "
        f"max pending {service['max_pending']}, "
        f"shed {service['orders_shed']}, "
        f"client retries {service['client_retries']}"
    )
    print(
        f"metrics: served={payload['metrics']['served_orders']} "
        f"cancelled={payload['metrics']['cancelled_orders']} "
        f"unified_cost={payload['metrics']['unified_cost']:.2f}, "
        f"replay equal: {payload['replay_equal']}"
    )
    print(f"wrote {args.output}")
    if not payload["replay_equal"]:
        print("ERROR: ingest-log replay diverged from the live run", file=sys.stderr)
        return 1
    return 0


def test_service_throughput(benchmark):
    """Pytest smoke: the service sustains load and replays bit-identically."""
    from conftest import run_once

    payload = run_once(benchmark, run_benchmark, rate=400.0)
    assert payload["replay_equal"], payload["metrics"]
    assert payload["service"]["orders_admitted"] == payload["orders_offered"]
    assert payload["service"]["orders_per_sec"] > 0
    assert payload["service"]["orders_shed"] == 0
    assert payload["service"]["client_retries"] == 0


if __name__ == "__main__":
    sys.exit(main())
