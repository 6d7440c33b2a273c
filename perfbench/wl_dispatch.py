"""``dispatch_large_fleet``: one simulated day of a 40k-driver fleet.

``build_scenario_bundle(large_fleet_scenario())`` (surge NYC-like day of
33.7k orders, 4-minute pickup SLA, POLAR with Hungarian matching) is built
once as set-up; the timed operation is ``bundle.run("vector",
sparse="auto")``.  The sparse pipeline — spatial index, candidate gather,
``edge_components``, block solves — does almost all the work; the OGSS
pipeline and the service do none.

The workload seed replaces the scenario seed only where the bundle draws
from it at run time: the fleet's initial positions and the simulation's
RNG stream.  The day's order stream stays the scenario's own, because the
dataset seed alone moves the day between ~30k and ~38k orders, which would
swamp run-to-run differences.  At the default seed 7 the bundle is exactly
``large_fleet_scenario()``'s.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Dict, List

from common import (
    DEFAULT_SEED,
    Outcome,
    median,
    peak_rss_mb,
    probe_setup,
    reference,
    spans_path,
)
from repro.dispatch.scenarios import ScenarioBundle, build_scenario_bundle, large_fleet_scenario
from tracer import Patcher, Tracer

import shims


def build_bundle(seed: int) -> ScenarioBundle:
    bundle = build_scenario_bundle(large_fleet_scenario())
    return dataclasses.replace(
        bundle, scenario=dataclasses.replace(bundle.scenario, seed=seed)
    )


def _simulate(bundle: ScenarioBundle) -> tuple:
    start = time.perf_counter()
    metrics = bundle.run("vector", sparse="auto")
    return time.perf_counter() - start, dataclasses.asdict(metrics)


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    out = Outcome()
    setup = probe_setup("dispatch_large_fleet", seed)
    tracer, patcher = Tracer(), Patcher()
    if trace:
        shims.install(tracer, patcher)
    try:
        bundle = build_bundle(seed)
    finally:
        patcher.restore()
    orders = bundle.total_order_count
    expected = reference()["dispatch_large_fleet"]["metrics"] if seed == DEFAULT_SEED else None

    def check(metrics: Dict) -> None:
        out.attempted += 1
        if expected is not None:
            out.check(metrics == expected, f"DispatchMetrics {metrics} != reference")
        out.check(metrics == first, "simulated days disagree with each other")
        out.check(metrics["total_orders"] == orders, "total_orders != orders in the bundle")

    # The first large engine call in a process pays a one-off page-fault
    # cost that a long-running user amortises; it is checked, not timed.
    _, first = _simulate(bundle)
    check(first)
    days: List[float] = []
    began = time.perf_counter()
    while len(days) < 2 or time.perf_counter() - began < seconds:
        elapsed, metrics = _simulate(bundle)
        check(metrics)
        days.append(elapsed)
        if trace:
            break
    if trace:
        shims.install(tracer, patcher)
        try:
            traced_s, metrics = _simulate(bundle)
        finally:
            patcher.restore()
        check(metrics)
        out.layers = shims.layer_metrics(tracer)
        out.layers["trace.overhead_ms"] = 1000.0 * (traced_s - days[0])
        out.layers["trace.overhead_frac"] = traced_s / days[0] - 1.0
        tracer.dump(spans_path("dispatch_large_fleet", seed))

    # Best of the timed days: the host's speed swings by up to ~30 % between
    # seconds, and contention only ever slows a day down.
    sim_s = min(days)
    out.end_to_end = {
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_ms": 1000.0 * sim_s,
        "throughput_per_s": orders / sim_s,
    }
    out.name("setup_s", median(setup), "s")
    out.name("peak_rss_mb", peak_rss_mb(), "MB")
    out.name("sim_s", sim_s, "s")
    out.notes.append(
        f"timed days {[round(d, 3) for d in days]} s of {orders} orders after one untimed "
        f"warm-up day; setup samples {[round(s, 3) for s in setup]}"
    )
    return out
