"""``serve_http``: the dispatch service over HTTP, driven open-loop.

The service process (``launcher.py``) runs ``repro serve``'s entry points on
``reference_scenario("polar", "greedy")`` (200 drivers, so the engine always
takes the dense path) with the ingest WAL on.  This process is the load
generator: it builds the same scenario's order stream, tiled over days with
``order_payloads(repeat_days=...)``, and offers it over HTTP.  The workload
seed draws the arrival times (a seeded Poisson process at each phase's
rate); the stream itself is the reference scenario's.

Each phase runs on a freshly launched service:

1. **250 orders/s** for 4.4 s (1100 orders, so p99 is the highest
   percentile with at least ten samples beyond it).  Gives the POST ack
   latency (due time to response) and the admission-to-assignment latency
   from the service's drain report.
2. **Ladder** of fixed rates from below the service's knee (~1.1k/s on a
   2-core host) to above 5k/s, :data:`STEP_SECONDS` each, climbing to the
   first step that does not pass and then bisecting :data:`BISECTIONS`
   times between the last pass and the first failure (geometric midpoints,
   so the knee is resolved to ~4 %).  A step passes when at least 95 % of
   its orders are acknowledged by the step's deadline, the ack p99 is under
   :data:`ACK_LIMIT_MS`, and the service's stage holds no more than
   :data:`STAGED_LIMIT_SECONDS` of arrivals at the end.
   A step in which the generator itself ran late (p99 of its own lag over
   :data:`GENERATOR_LAG_LIMIT_MS`) is marked invalid, which counts as not
   passed.  ``svc_max_rate`` is the achieved rate of the highest passing
   step.  A single stall of a few tens of milliseconds fails a step, so the
   knee moves by a step or two between runs on a shared host; the
   registered throughput is therefore the saturated rate that follows.
3. **Saturation**: :data:`SATURATION_BURSTS` bursts in which the generator
   sends back to back; acknowledged orders over their wall time is
   ``svc_saturated_rate``.

The generator is open loop: each order is due at its Poisson arrival time
whatever happened before, and its latency is counted from that due time, so
a stall shows in every request it delays.  It sends over one connection,
which it reuses whenever the service keeps it alive (HTTP/1.1; today's
service answers HTTP/1.0 and closes it).  A second concurrent sender is not
used: the scheduler admits orders only in non-decreasing arrival order, and
two in-flight POSTs can reach it out of order and be rejected.

Every launch is checked: ``replay_ingest_log`` must reproduce the live
``DispatchMetrics`` and admitted + shed + rejected must equal the orders
sent.  Launches beyond the two that carry load are set-up only, so
``setup_s`` is a median over :data:`~common.SETUP_REPEATS` launches.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from common import (
    BENCH_DIR,
    SETUP_REPEATS,
    Outcome,
    median,
    percentile,
    spans_path,
    tail,
)
from repro.dispatch.scenarios import build_scenario_bundle, reference_scenario
from repro.service.ingest import replay_ingest_log
from repro.service.loadgen import order_payloads
from repro.utils.cache import canonical_json

FIXED_RATE = 250.0
FIXED_SECONDS = 4.4
LADDER = (600.0, 850.0, 1200.0, 1700.0, 2400.0, 3400.0, 4800.0, 6800.0)
STEP_SECONDS = 2.0
#: Bisection steps between the last passing and the first failing rate.
BISECTIONS = 3
#: Back-to-back bursts after the ladder; ``throughput_per_s`` is their
#: acknowledged orders over their wall time.  The host's speed swings by
#: ~30 % from one second to the next, so the bursts add up to 10 s.
SATURATION_BURSTS = 10
SATURATION_SECONDS = 1.0
#: Longest wait for the stage to empty between steps.
SETTLE_SECONDS = 2.0
#: Orders not sent within this long after a step's last due time are dropped.
STEP_GRACE_SECONDS = 0.5
ACK_LIMIT_MS = 50.0
#: A stage holding more than this many seconds of arrivals after a step is
#: a growing backlog.
STAGED_LIMIT_SECONDS = 0.05
GENERATOR_LAG_LIMIT_MS = 5.0
COMPLETION_FLOOR = 0.95
#: Tiled days of the 200-driver reference stream (2763 orders each): enough
#: for a service five times faster than today's to climb the whole ladder.
REPEAT_DAYS = 48
BOOT_TIMEOUT_SECONDS = 120.0

_HEADERS = {"Content-Type": "application/json"}


class _Connection(http.client.HTTPConnection):
    """Counts TCP connects: one per request unless the server keeps alive."""

    def __init__(self, port: int) -> None:
        super().__init__("127.0.0.1", port, timeout=30)
        self.connects = 0

    def connect(self) -> None:
        self.connects += 1
        super().connect()


class _Service:
    """One launched service process, from boot to summary."""

    def __init__(self, seed: int, workdir: Path, tag: str, trace: bool = False) -> None:
        self.wal = workdir / f"{tag}.wal"
        self.summary_path = workdir / f"{tag}.summary.json"
        command = [
            sys.executable,
            str(BENCH_DIR / "launcher.py"),
            "--wal",
            str(self.wal),
            "--summary",
            str(self.summary_path),
        ]
        if trace:
            command += ["--spans", spans_path("serve_http", seed)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"service {tag} exited before binding a port")
            self.port = int(json.loads(line)["port"])
            self._await_healthy(start)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def _await_healthy(self, start: float) -> None:
        while time.perf_counter() - start < BOOT_TIMEOUT_SECONDS:
            try:
                if self.request("GET", "/healthz")[0] == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(0.002)
        raise RuntimeError("service did not become healthy")

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, Dict]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request(method, path, body, _HEADERS)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            connection.close()

    def finish(self) -> Dict:
        """Drain over HTTP, let the process exit, return its summary."""
        status, _ = self.request("POST", "/drain", b"{}")
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        with open(self.summary_path, encoding="utf-8") as handle:
            summary = json.load(handle)
        summary["drain_status"] = status
        return summary

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


@dataclass
class _Step:
    rate: float
    offered: int
    sent: int = 0
    acked: int = 0
    #: From the first due time to the last response.
    elapsed: float = 0.0
    ack_ms: List[float] = field(default_factory=list)
    lag_ms: List[float] = field(default_factory=list)
    verdict: str = ""

    @property
    def achieved_rate(self) -> float:
        return self.acked / self.elapsed if self.elapsed > 0 else 0.0


class _Generator:
    """Open-loop sender over one reusable connection."""

    def __init__(self, payloads: List[Dict], port: int, seed: str) -> None:
        self.arrivals = random.Random(seed)
        self.payloads = payloads
        self.next = 0
        self.refused = 0
        self.connection = _Connection(port)

    def _post(self) -> int:
        """Send the next order of the stream; returns the HTTP status (0: none)."""
        if self.next >= len(self.payloads):
            raise RuntimeError("order stream exhausted; raise REPEAT_DAYS")
        body = canonical_json(self.payloads[self.next]).encode("utf-8")
        self.next += 1
        try:
            self.connection.request("POST", "/orders", body, _HEADERS)
            response = self.connection.getresponse()
            response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            self.connection.close()
            status = 0
        self.refused += status != 200
        return status

    def saturate(self, seconds: float) -> Tuple[int, float]:
        """Send back to back for ``seconds``; returns ``(acked, wall seconds)``."""
        acked = 0
        start = now = time.perf_counter()
        while now - start < seconds:
            acked += self._post() == 200
            now = time.perf_counter()
        return acked, now - start

    def offer(self, rate: float, seconds: float) -> _Step:
        step = _Step(rate=rate, offered=int(round(rate * seconds)))
        start = time.perf_counter() + 0.005
        deadline = start + seconds + STEP_GRACE_SECONDS
        free_at = due = start
        for _ in range(step.offered):
            due += self.arrivals.expovariate(rate)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sending = time.perf_counter()
            if sending > deadline:
                break
            # The generator's own lag: how long after the order was due and
            # the connection was free it actually went out.
            step.lag_ms.append(1000.0 * (sending - max(due, free_at)))
            status = self._post()
            free_at = time.perf_counter()
            step.sent += 1
            if status == 200:
                step.acked += 1
                step.ack_ms.append(1000.0 * (free_at - due))
        step.elapsed = free_at - start
        return step


def _check_service(out: Outcome, summary: Dict, sent: int, bundle, phase: str) -> Dict:
    report = summary.get("report")
    if not out.check(report is not None, f"{phase}: service failed: {summary.get('error')}"):
        return {}
    out.check(summary["drain_status"] == 200, f"{phase}: drain returned {summary['drain_status']}")
    accounted = report["orders_admitted"] + report["orders_shed"] + report["orders_rejected"]
    out.check(accounted == sent, f"{phase}: admitted+shed+rejected {accounted} != sent {sent}")
    replay = dataclasses.asdict(replay_ingest_log(summary["wal"], bundle=bundle).metrics)
    out.check(
        replay == report["metrics"], f"{phase}: WAL replay {replay} != live {report['metrics']}"
    )
    return report


def _ladder(generator: _Generator, service: _Service) -> List[_Step]:
    """Climb :data:`LADDER` to the first step that does not pass, then bisect."""

    def step_at(rate: float) -> _Step:
        _settle(service)
        step = generator.offer(rate, STEP_SECONDS)
        step.verdict = _verdict(step, _staged(service))
        steps.append(step)
        return step

    steps: List[_Step] = []
    low = high = None
    for rate in LADDER:
        if step_at(rate).verdict != "pass":
            high = rate
            break
        low = rate
    if low is not None and high is not None:
        for _ in range(BISECTIONS):
            rate = float(round(math.sqrt(low * high)))
            if step_at(rate).verdict == "pass":
                low = rate
            else:
                high = rate
    return steps


def _staged(service: _Service) -> int:
    return int(service.request("GET", "/stats")[1].get("staged", -1))


def _settle(service: _Service) -> None:
    """Let the match loop empty its stage before the next step starts."""
    deadline = time.perf_counter() + SETTLE_SECONDS
    while _staged(service) != 0 and time.perf_counter() < deadline:
        time.sleep(0.01)


@dataclass
class _Run:
    """What one launched service measured."""

    boot_s: float
    fixed: List[_Step]
    ladder: List[_Step]
    #: ``(acked, wall seconds)`` per saturation burst.
    bursts: List[Tuple[int, float]]
    #: The drain report, plus the server's ``peak_rss_mb`` and ``layers``.
    report: Dict


def _run_service(
    out: Outcome,
    seed: int,
    workdir: Path,
    tag: str,
    payloads: List[Dict],
    bundle,
    fixed: bool,
    ladder: bool,
    trace: bool = False,
) -> _Run:
    """Launch a service, offer the phases, drain and check it."""
    service = _Service(seed, workdir, tag, trace=trace)
    bursts: List[Tuple[int, float]] = []
    try:
        generator = _Generator(payloads, service.port, seed=f"{seed}/{tag}")
        fixed_steps = [generator.offer(FIXED_RATE, FIXED_SECONDS)] if fixed else []
        ladder_steps = _ladder(generator, service) if ladder else []
        for _ in range(SATURATION_BURSTS if ladder else 0):
            _settle(service)
            bursts.append(generator.saturate(SATURATION_SECONDS))
        generator.connection.close()
        summary = service.finish()
    finally:
        service.kill()
    summary["wal"] = str(service.wal)
    out.attempted += generator.next
    if generator.refused:
        out.failed += generator.refused
        out.errors.append(f"{tag}: {generator.refused} POST /orders not answered 200")
    out.notes.append(
        f"{tag}: {generator.next} orders over {generator.connection.connects} connection(s)"
    )
    report = _check_service(out, summary, generator.next, bundle, tag)
    report["peak_rss_mb"] = summary["peak_rss_mb"]
    report["layers"] = summary.get("layers", {})
    return _Run(service.setup_s, fixed_steps, ladder_steps, bursts, report)


def _verdict(step: _Step, staged: int) -> str:
    if step.lag_ms and percentile(step.lag_ms, 99) > GENERATOR_LAG_LIMIT_MS:
        return "invalid: generator lagged"
    if step.acked < COMPLETION_FLOOR * step.offered:
        return f"fail: {step.acked}/{step.offered} acknowledged"
    if percentile(step.ack_ms, 99) > ACK_LIMIT_MS:
        return f"fail: ack p99 {percentile(step.ack_ms, 99):.1f} ms"
    if staged > STAGED_LIMIT_SECONDS * step.rate:
        return f"fail: {staged} orders still staged"
    return "pass"


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    out = Outcome()
    bundle = build_scenario_bundle(reference_scenario("polar", "greedy"))
    payloads = order_payloads(bundle, repeat_days=REPEAT_DAYS)
    fixed = _run_service(out, seed, workdir, "fixed", payloads, bundle, fixed=True, ladder=False)
    ladder = _run_service(
        out, seed, workdir, "ladder", payloads, bundle, fixed=trace, ladder=True, trace=trace
    )
    boots = [fixed.boot_s, ladder.boot_s]
    while not trace and len(boots) < SETUP_REPEATS:
        extra = _Service(seed, workdir, f"boot{len(boots)}")
        boots.append(extra.setup_s)
        extra.finish()
    passed = [step for step in ladder.ladder if step.verdict == "pass"]
    max_rate = max(passed, key=lambda step: step.rate).achieved_rate if passed else 0.0
    saturated = sum(b[0] for b in ladder.bursts) / sum(b[1] for b in ladder.bursts)

    fixed_step = fixed.fixed[0]
    ack_p50 = median(fixed_step.ack_ms)
    ack_pct, ack_tail = tail(fixed_step.ack_ms)
    assign_p50 = fixed.report.get("latency_p50_ms", 0.0)
    # The service keeps a record per admitted order, so the loaded service's
    # RSS follows how many orders the ladder got through; the 250/s phase
    # offers a fixed 1100.
    rss = fixed.report["peak_rss_mb"]
    out.end_to_end = {
        "setup_s": median(boots),
        "peak_rss_mb": rss,
        "latency_p50_ms": assign_p50,
        "throughput_per_s": saturated,
    }
    out.name("setup_s", median(boots), "s")
    out.name("peak_rss_mb", rss, "MB")
    out.name("svc_ack_p50_ms", ack_p50, "ms")
    out.name(f"svc_ack_tail_ms (p{ack_pct:g})", ack_tail, "ms")
    out.name("svc_assign_p50_ms", assign_p50, "ms")
    out.name("svc_assign_tail_ms (p99)", fixed.report.get("latency_p99_ms", 0.0), "ms")
    out.name("svc_max_rate", max_rate, "1/s")
    out.name("svc_saturated_rate", saturated, "1/s")
    lags = [lag for step in fixed.fixed + ladder.fixed + ladder.ladder for lag in step.lag_ms]
    out.name("loadgen.late_ms (p50)", median(lags), "ms")
    out.name("loadgen.late_max_ms", max(lags), "ms")
    out.notes.append(
        f"{fixed_step.acked} orders acked at {FIXED_RATE:g}/s; "
        f"boot samples {[round(b, 3) for b in boots]}"
    )
    out.notes.append(
        f"saturated bursts: {[round(a / w) for a, w in ladder.bursts]} orders/s; "
        f"ladder service peak RSS {ladder.report['peak_rss_mb']:.1f} MB"
    )
    for step in ladder.ladder:
        out.notes.append(
            f"ladder {step.rate:g}/s: {step.acked}/{step.offered} acked at "
            f"{step.achieved_rate:.0f}/s, ack p50 {median(step.ack_ms) if step.ack_ms else 0:.2f} "
            f"p99 {percentile(step.ack_ms, 99) if step.ack_ms else 0:.2f} ms, "
            f"lag p99 {percentile(step.lag_ms, 99):.2f} ms -> {step.verdict}"
        )
    if trace:
        layers = dict(ladder.report["layers"])
        layers["loadgen.late_ms"] = median(lags)
        layers["loadgen.late_max_ms"] = max(lags)
        traced_p50 = median(ladder.fixed[0].ack_ms)
        layers["trace.overhead_ms"] = traced_p50 - ack_p50
        layers["trace.overhead_frac"] = traced_p50 / ack_p50 - 1.0
        out.layers = layers
    return out
