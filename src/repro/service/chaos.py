"""Deterministic chaos campaign for the dispatch service.

``repro chaos`` is the service-layer sibling of ``repro fuzz``: a seeded
campaign that injects structured faults (:class:`~repro.service.faults.FaultPlan`)
into short live service runs and asserts, for every sample, either *clean
rejection* (backpressure sheds with exact accounting) or *recovery to
bit-identical metrics* (crashes rebuild from the WAL and finish exactly
like an uninterrupted run).  The report is plain data rendered through
canonical JSON — no timestamps, no wall-clock — so a fixed-``samples``
campaign is byte-identical across runs; CI asserts that too.

Determinism under faults needs one trick: every faulted run stages its
whole order stream behind the plan's ``hold_start`` gate before the match
loop processes anything.  Batch boundaries then depend only on
``max_batch`` — not on thread scheduling — which pins crash points, WAL
prefixes and shed counts exactly.

The ``bug`` hook plants a known recovery divergence (the campaign's
negative control): ``"skip-resubmit"`` resumes client re-submission one
order too late after a crash, so the recovered run's metrics cannot match
the uninterrupted baseline and the campaign must fail — CI proves the gate
actually bites.
"""

from __future__ import annotations

import dataclasses
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.dispatch.engine import VectorizedAssignmentEngine
from repro.dispatch.entities import DispatchMetrics
from repro.dispatch.scenarios import (
    DispatchScenario,
    ScenarioBundle,
    build_scenario_bundle,
)
from repro.service.faults import FaultPlan
from repro.service.ingest import orders_from_records, replay_ingest_log
from repro.service.loadgen import HttpClient, RetryPolicy, order_payloads
from repro.service.scheduler import BackpressureError
from repro.service.server import (
    DispatchService,
    ServiceConfig,
    ServiceFailedError,
    serve_http,
)
from repro.utils.rng import default_rng, seed_for

#: Bump when the report payload layout changes.
REPORT_SCHEMA = 1

#: Fault kinds, cycled over the sample index.  The first two cover the
#: acceptance minimum (one crash-recovery, one backpressure sample) for
#: any ``samples >= 2``.
KINDS = ("crash", "backpressure", "crash-mid-append", "drop", "stall")

#: Known-bug hooks for the campaign's negative control.
BUGS = ("skip-resubmit",)

#: Pinned campaign scenario: small two-slot world, cheap to run live.
DEFAULT_SCENARIO = DispatchScenario(
    city="xian_like",
    policy="polar",
    matching="greedy",
    fleet_size=40,
    seed=11,
    slots=(16, 17),
)


@dataclass
class ChaosSample:
    """One faulted service run in the campaign report."""

    index: int
    kind: str
    plan: Dict[str, Any]
    verdict: str  # "ok" | "divergent"
    checks: Dict[str, bool]
    counters: Dict[str, int]
    metrics: Optional[Dict[str, Any]] = None

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "index": self.index,
            "kind": self.kind,
            "plan": self.plan,
            "verdict": self.verdict,
            "checks": dict(sorted(self.checks.items())),
            "counters": dict(sorted(self.counters.items())),
        }
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        return payload


@dataclass
class ChaosReport:
    """Deterministic outcome of one chaos campaign."""

    seed: int
    samples_run: int
    bug: Optional[str]
    ok: int
    failures: List[ChaosSample]
    records: List[ChaosSample] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA,
            "seed": self.seed,
            "samples_run": self.samples_run,
            "bug": self.bug,
            "ok": self.ok,
            "failures": [sample.to_payload() for sample in self.failures],
            "samples": [sample.to_payload() for sample in self.records],
        }


def _offline_metrics(
    scenario: DispatchScenario,
    bundle: ScenarioBundle,
    records: List[Dict[str, Any]],
) -> DispatchMetrics:
    """The uninterrupted-run oracle: one offline ``engine.run`` call."""
    if not records:
        return DispatchMetrics(0, 0, 0.0, 0.0, 0.0, 0)
    engine = VectorizedAssignmentEngine(
        policy=scenario.make_policy(),
        travel=bundle.travel,
        demand=bundle.provider,
        batch_minutes=scenario.batch_minutes,
        minutes_per_slot=bundle.minutes_per_slot,
    )
    rng = default_rng(
        seed_for(
            f"dispatch-scenario/{scenario.city}/{scenario.policy}/sim",
            scenario.seed,
        )
    )
    return engine.run(orders_from_records(records), bundle.spawn_fleet(), rng)


def _metrics_payload(metrics: Optional[DispatchMetrics]) -> Optional[Dict[str, Any]]:
    return None if metrics is None else dataclasses.asdict(metrics)


def _config(
    scenario: DispatchScenario,
    log_path: Path,
    plan: FaultPlan,
    max_batch: int,
    max_pending: Optional[int] = None,
) -> ServiceConfig:
    return ServiceConfig(
        scenario=scenario,
        max_batch=max_batch,
        cadence_seconds=0.01,
        ingest_log=str(log_path),
        max_pending=max_pending,
        fault_plan=plan,
    )


def _run_crash_sample(
    index: int,
    kind: str,
    scenario: DispatchScenario,
    bundle: ScenarioBundle,
    payloads: List[Dict[str, Any]],
    expected: DispatchMetrics,
    crash_batch: int,
    max_batch: int,
    log_path: Path,
    bug: Optional[str],
) -> ChaosSample:
    """Crash the loop at a pinned batch, recover from the WAL, finish.

    The contract under test: WAL records form an exact batch-aligned
    prefix, the dead service reports its failure (health 503, ``drain``
    raises), and recovery + re-submission of the lost tail ends bit-equal
    to the uninterrupted oracle — live metrics, offline replay of the
    stitched WAL, and exact admission accounting.
    """
    mid_append = kind == "crash-mid-append"
    plan = FaultPlan(
        crash_on_batch=crash_batch, crash_mid_append=mid_append, hold_start=True
    )
    service = DispatchService(
        _config(scenario, log_path, plan, max_batch), bundle=bundle
    ).start()
    for payload in payloads:
        service.submit(payload)
    service.faults.release()
    died = service.terminal.wait(timeout=60.0)
    checks: Dict[str, bool] = {"loop_died": died}
    failure = service.failure
    checks["failure_is_injected"] = failure is not None and failure[
        "error"
    ].startswith("InjectedCrash")
    code, _ = service.health()
    checks["health_unhealthy"] = code == 503
    try:
        service.drain()
        checks["drain_raised"] = False
    except ServiceFailedError:
        checks["drain_raised"] = True
    recovered = DispatchService.recover(
        log_path, bundle=bundle, max_batch=max_batch, cadence_seconds=0.01
    )
    wal_prefix = crash_batch * max_batch
    checks["wal_is_batch_prefix"] = recovered.recovered_orders == min(
        wal_prefix, len(payloads)
    )
    checks["truncation_detected"] = recovered.recovered_truncated == (
        mid_append and wal_prefix < len(payloads)
    )
    resume_from = recovered.recovered_orders
    if bug == "skip-resubmit":
        # Planted recovery-divergence bug: the client resumes one order
        # too late, so one admitted-but-lost order is never re-submitted.
        resume_from = min(resume_from + 1, len(payloads))
    for payload in payloads[resume_from:]:
        recovered.submit(payload)
    report = recovered.drain()
    replay = replay_ingest_log(log_path, bundle=bundle)
    checks["admission_complete"] = report.orders_admitted == len(payloads)
    checks["metrics_match_oracle"] = report.metrics == expected
    checks["replay_matches_live"] = replay.metrics == report.metrics
    verdict = "ok" if all(checks.values()) else "divergent"
    return ChaosSample(
        index=index,
        kind=kind,
        plan=plan.to_payload(),
        verdict=verdict,
        checks=checks,
        counters={
            "offered": len(payloads),
            "wal_prefix": recovered.recovered_orders,
            "resubmitted": len(payloads) - resume_from,
            "admitted": report.orders_admitted,
            "assigned": report.assigned,
            "cancelled": report.cancelled,
        },
        metrics=_metrics_payload(report.metrics),
    )


def _run_backpressure_sample(
    index: int,
    scenario: DispatchScenario,
    bundle: ScenarioBundle,
    payloads: List[Dict[str, Any]],
    max_pending: int,
    max_batch: int,
    log_path: Path,
) -> ChaosSample:
    """Offer the whole stream against a held loop with a bounded pool.

    Exactly ``max_pending`` orders are admitted (nothing resolves while the
    gate is closed), the rest shed with exact accounting, and the admitted
    prefix drains to metrics bit-equal to its offline oracle and WAL replay.
    """
    plan = FaultPlan(hold_start=True)
    service = DispatchService(
        _config(scenario, log_path, plan, max_batch, max_pending=max_pending),
        bundle=bundle,
    ).start()
    admitted = 0
    shed = 0
    degraded_seen = False
    for payload in payloads:
        try:
            service.submit(payload)
            admitted += 1
        except BackpressureError:
            shed += 1
            degraded_seen = degraded_seen or service.state == "degraded"
    service.faults.release()
    report = service.drain()
    replay = replay_ingest_log(log_path, bundle=bundle)
    records = [dict(payloads[i], order_id=i) for i in range(admitted)]
    expected = _offline_metrics(scenario, bundle, records)
    checks = {
        "shed_exactly_overflow": admitted == min(max_pending, len(payloads))
        and shed == len(payloads) - admitted,
        "accounting_exact": report.orders_shed == shed
        and report.orders_admitted == admitted
        and report.assigned + report.cancelled + shed == len(payloads),
        "degraded_while_shedding": degraded_seen or shed == 0,
        "metrics_match_oracle": report.metrics == expected,
        "replay_matches_live": replay.metrics == report.metrics,
    }
    verdict = "ok" if all(checks.values()) else "divergent"
    return ChaosSample(
        index=index,
        kind="backpressure",
        plan=plan.to_payload(),
        verdict=verdict,
        checks=checks,
        counters={
            "offered": len(payloads),
            "admitted": admitted,
            "shed": shed,
            "assigned": report.assigned,
            "cancelled": report.cancelled,
            "max_pending": max_pending,
        },
        metrics=_metrics_payload(report.metrics),
    )


def _run_drop_sample(
    index: int,
    scenario: DispatchScenario,
    bundle: ScenarioBundle,
    payloads: List[Dict[str, Any]],
    expected: DispatchMetrics,
    drops: int,
    max_batch: int,
    log_path: Path,
    retry_seed: int,
) -> ChaosSample:
    """Drop the first HTTP connections; seeded client retries must heal it."""
    plan = FaultPlan(drop_first_requests=drops, hold_start=True)
    service = DispatchService(
        _config(scenario, log_path, plan, max_batch), bundle=bundle
    ).start()
    server = serve_http(service, port=0)
    try:
        client = HttpClient(
            f"http://127.0.0.1:{server.server_address[1]}",
            retry=RetryPolicy(
                max_retries=drops + 2,
                base_delay=0.001,
                max_delay=0.01,
                seed=retry_seed,
            ),
        )
        for payload in payloads:
            client.submit(payload)
        service.faults.release()
        report_payload = client.drain()
    finally:
        server.shutdown()
        server.server_close()
    replay = replay_ingest_log(log_path, bundle=bundle)
    checks = {
        "retries_equal_drops": client.retries == drops,
        "admission_complete": report_payload["orders_admitted"] == len(payloads),
        "metrics_match_oracle": report_payload["metrics"]
        == _metrics_payload(expected),
        "replay_matches_live": _metrics_payload(replay.metrics)
        == report_payload["metrics"],
    }
    verdict = "ok" if all(checks.values()) else "divergent"
    return ChaosSample(
        index=index,
        kind="drop",
        plan=plan.to_payload(),
        verdict=verdict,
        checks=checks,
        counters={
            "offered": len(payloads),
            "admitted": int(report_payload["orders_admitted"]),
            "retries": client.retries,
            "drops": drops,
        },
        metrics=report_payload["metrics"],
    )


def _run_stall_sample(
    index: int,
    scenario: DispatchScenario,
    bundle: ScenarioBundle,
    payloads: List[Dict[str, Any]],
    expected: DispatchMetrics,
    stall_batch: int,
    max_batch: int,
    log_path: Path,
) -> ChaosSample:
    """Benign slowness (stall + slow append) must not change any output."""
    plan = FaultPlan(
        stall_ms=1.0, stall_on_batch=stall_batch, slow_append_ms=0.2, hold_start=True
    )
    service = DispatchService(
        _config(scenario, log_path, plan, max_batch), bundle=bundle
    ).start()
    for payload in payloads:
        service.submit(payload)
    service.faults.release()
    report = service.drain()
    replay = replay_ingest_log(log_path, bundle=bundle)
    checks = {
        "admission_complete": report.orders_admitted == len(payloads),
        "clean_state": report.state == "stopped" and report.orders_shed == 0,
        "metrics_match_oracle": report.metrics == expected,
        "replay_matches_live": replay.metrics == report.metrics,
    }
    verdict = "ok" if all(checks.values()) else "divergent"
    return ChaosSample(
        index=index,
        kind="stall",
        plan=plan.to_payload(),
        verdict=verdict,
        checks=checks,
        counters={
            "offered": len(payloads),
            "admitted": report.orders_admitted,
            "assigned": report.assigned,
            "cancelled": report.cancelled,
        },
        metrics=_metrics_payload(report.metrics),
    )


def run_campaign(
    seed: int = 7,
    samples: int = 5,
    bug: Optional[str] = None,
    scenario: Optional[DispatchScenario] = None,
    bundle: Optional[ScenarioBundle] = None,
    stream_orders: int = 96,
    max_batch: int = 16,
    on_progress: Optional[Callable[[ChaosSample], None]] = None,
) -> ChaosReport:
    """Run one seeded chaos campaign; the report is byte-reproducible.

    Sample ``i`` runs fault kind ``KINDS[i % len(KINDS)]`` with parameters
    (crash batch, pool cap, drop count, stall batch) drawn from a
    per-sample seeded RNG, over the first ``stream_orders`` orders of the
    pinned scenario's deterministic stream.  ``bug`` plants a known defect
    (see :data:`BUGS`) that a correct campaign must flag as divergent.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if bug is not None and bug not in BUGS:
        raise ValueError(f"unknown chaos bug {bug!r}; available: {BUGS}")
    if scenario is None:
        scenario = DEFAULT_SCENARIO
    if bundle is None:
        bundle = build_scenario_bundle(scenario)
    payloads = order_payloads(bundle, max_orders=stream_orders)
    full_records = [dict(p, order_id=i) for i, p in enumerate(payloads)]
    expected = _offline_metrics(scenario, bundle, full_records)
    num_batches = max(1, -(-len(payloads) // max_batch))
    ok = 0
    failures: List[ChaosSample] = []
    records: List[ChaosSample] = []
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        for index in range(samples):
            kind = KINDS[index % len(KINDS)]
            rng = default_rng(seed_for(f"service-chaos/{index}/{kind}", seed))
            log_path = Path(tmp) / f"sample-{index}.jsonl"
            if kind in ("crash", "crash-mid-append"):
                sample = _run_crash_sample(
                    index,
                    kind,
                    scenario,
                    bundle,
                    payloads,
                    expected,
                    crash_batch=int(rng.integers(0, num_batches)),
                    max_batch=max_batch,
                    log_path=log_path,
                    bug=bug,
                )
            elif kind == "backpressure":
                sample = _run_backpressure_sample(
                    index,
                    scenario,
                    bundle,
                    payloads,
                    max_pending=int(rng.integers(8, max(9, len(payloads) // 2))),
                    max_batch=max_batch,
                    log_path=log_path,
                )
            elif kind == "drop":
                sample = _run_drop_sample(
                    index,
                    scenario,
                    bundle,
                    payloads,
                    expected,
                    drops=int(rng.integers(1, 4)),
                    max_batch=max_batch,
                    log_path=log_path,
                    retry_seed=int(rng.integers(0, 2**31 - 1)),
                )
            else:
                sample = _run_stall_sample(
                    index,
                    scenario,
                    bundle,
                    payloads,
                    expected,
                    stall_batch=int(rng.integers(0, num_batches)),
                    max_batch=max_batch,
                    log_path=log_path,
                )
            records.append(sample)
            if sample.verdict == "ok":
                ok += 1
            else:
                failures.append(sample)
            if on_progress is not None:
                on_progress(sample)
    return ChaosReport(
        seed=seed,
        samples_run=samples,
        bug=bug,
        ok=ok,
        failures=failures,
        records=records,
    )
