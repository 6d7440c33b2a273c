"""CI service-gate: throughput floor, latency ceilings, replay equality.

Compares a freshly emitted ``BENCH_service.json`` (from
``benchmarks/bench_service.py``) against the committed baseline
``benchmarks/baseline_service.json`` and fails (exit code 1) on regression:

* **Correctness** — the ingest-log replay must reproduce the live run's
  metrics bit-for-bit (``replay_equal``), and the metric values must match
  the baseline within ``metrics_rtol``: they are deterministic functions of
  the scenario seed — independent of offered rate, micro-batching and
  host speed — so any drift means the engine or service semantics changed.
* **Throughput** — sustained admitted orders/second must stay above
  ``min_orders_per_sec``.  The floor sits far below the offered rate so CI
  hardware jitter cannot trip it, but an injected match-loop stall does.
* **Latency** — admission→assignment p50/p99 must stay below the absolute
  ``max_p50_ms``/``max_p99_ms`` ceilings.  These are generous against real
  hardware (double-digit milliseconds measured) yet orders of magnitude
  below what a stalled match loop produces.
* **Admission** — the benchmark runs unbounded, so backpressure shedding
  (``max_shed_orders``, default 0) and client retries
  (``max_client_retries``, default 0) are hard ceilings, and
  ``admitted + shed`` must equal the offered count exactly.

Usage::

    python benchmarks/bench_service.py --output BENCH_service.json
    python benchmarks/check_service_regression.py BENCH_service.json
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List

_BENCHMARKS = Path(__file__).resolve().parent
if str(_BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS))

from gatelib import check_ceiling, check_floor, compare_metrics, run_gate_cli  # noqa: E402

DEFAULT_BASELINE = _BENCHMARKS / "baseline_service.json"


def check(current: Dict, baseline: Dict) -> List[str]:
    """Return a list of human-readable regression descriptions (empty = pass)."""
    gates = baseline.get("gates", {})
    rtol = float(gates.get("metrics_rtol", 1e-9))
    problems: List[str] = []

    service = current.get("service")
    if service is None:
        return ["service section missing from benchmark output"]

    if gates.get("require_replay_equal", True) and not current.get(
        "replay_equal", False
    ):
        problems.append(
            "ingest-log replay no longer reproduces the live metrics bit-for-bit"
        )
    problems.extend(
        compare_metrics(current.get("metrics", {}), baseline["metrics"], rtol)
    )
    problems.append(
        check_floor(
            service.get("orders_per_sec", 0.0),
            gates.get("min_orders_per_sec", 60.0),
            "sustained throughput",
            unit=" orders/s",
        )
    )
    problems.append(
        check_ceiling(
            service.get("latency_p50_ms", float("inf")),
            gates.get("max_p50_ms", 1000.0),
            "p50 admission-to-assignment latency",
            unit="ms",
        )
    )
    problems.append(
        check_ceiling(
            service.get("latency_p99_ms", float("inf")),
            gates.get("max_p99_ms", 3000.0),
            "p99 admission-to-assignment latency",
            unit="ms",
        )
    )
    shed = service.get("orders_shed", 0)
    retries = service.get("client_retries", 0)
    problems.append(
        check_ceiling(
            shed,
            gates.get("max_shed_orders", 0),
            "orders shed by backpressure",
            unit=" orders",
        )
    )
    problems.append(
        check_ceiling(
            retries,
            gates.get("max_client_retries", 0),
            "client retries",
            unit=" retries",
        )
    )
    if service.get("orders_admitted", 0) + shed != current.get("orders_offered"):
        problems.append(
            f"admission accounting broken: {service.get('orders_admitted')} "
            f"admitted + {shed} shed != "
            f"{current.get('orders_offered')} offered"
        )
    if service.get("orders_admitted") != current.get("orders_offered"):
        problems.append(
            f"only {service.get('orders_admitted')} of "
            f"{current.get('orders_offered')} offered orders were admitted"
        )
    # The floor/ceiling helpers return None on pass.
    return [problem for problem in problems if problem]


def summarize(current: Dict) -> None:
    """Per-section one-liners printed on every gate run."""
    service = current.get("service", {})
    print(
        f"service: {service.get('orders_per_sec', 0.0):.1f} orders/s sustained "
        f"(offered {current.get('offered_rate', 0.0):g}/s), "
        f"p50 {service.get('latency_p50_ms', 0.0):.1f}ms, "
        f"p99 {service.get('latency_p99_ms', 0.0):.1f}ms, "
        f"max pending {service.get('max_pending')}, "
        f"shed {service.get('orders_shed', 0)}, "
        f"client retries {service.get('client_retries', 0)}"
    )
    metrics = current.get("metrics", {})
    print(
        f"metrics: served={metrics.get('served_orders')} "
        f"cancelled={metrics.get('cancelled_orders')}, "
        f"replay equal: {current.get('replay_equal')}"
    )


def main(argv=None) -> int:
    return run_gate_cli(
        "dispatch service gate", DEFAULT_BASELINE, check, summarize, argv
    )


if __name__ == "__main__":
    sys.exit(main())
