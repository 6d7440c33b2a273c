"""Seeded open-loop load generator for the dispatch service.

The generator replays a scenario's deterministic order stream against a
running service at a configurable wall-clock rate.  Simulation content
(which orders, their slots, coordinates, revenues) comes entirely from the
scenario bundle — the same seeded synthesis the offline benchmarks use —
while the schedule (:class:`LoadPhase` list) only controls *when* each
order is sent.  Because the engine's arithmetic is rate-independent, every
schedule over the same stream yields the same :class:`DispatchMetrics`.

Pacing is open-loop: order ``k`` of a phase targets wall time
``phase_start + k / rate`` regardless of how long earlier submissions took,
so a slow service accumulates backlog instead of silently throttling the
offered load — exactly what the soak's no-unbounded-growth assertion
watches.  A phase with ``rate`` 0 is an idle gap (nothing sent); the
service's adaptive cadence must match the first post-gap arrival
immediately.

Long streams come from day-tiling (:func:`order_payloads`): the day-0
stream is repeated with arrivals shifted by whole days and slots by
``slots_per_day``, which keeps the stream monotone and replayable by a
single offline ``engine.run`` call.
"""

from __future__ import annotations

import http.client
import json
import random
import select
import time
import urllib.parse
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence

from repro.dispatch.scenarios import ScenarioBundle
from repro.service.scheduler import ORDER_FIELDS, AdmissionError, BackpressureError
from repro.utils.cache import canonical_json
from repro.utils.timer import wall_clock


class ServiceUnavailableError(ConnectionError):
    """The service could not be reached (refused/timeout/dropped/5xx).

    Subclasses :class:`ConnectionError` (hence ``OSError``) so CLI error
    handling that maps environment failures to exit code 2 catches it
    without special-casing.
    """

#: Slots per tiled day for the default 30-minute slot length.
DAY_MINUTES = 1440.0


@dataclass(frozen=True)
class LoadPhase:
    """``rate`` orders/second offered for ``seconds`` wall seconds (0 = idle)."""

    rate: float
    seconds: float

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("phase rate must be non-negative")
        if self.seconds <= 0:
            raise ValueError("phase duration must be positive")


def parse_schedule(spec: str) -> List[LoadPhase]:
    """Parse ``"rate:seconds,rate:seconds,..."`` into load phases.

    Example: ``"300:20,0:5,600:10"`` — 20 s at 300 orders/s, a 5 s idle
    gap, then a 10 s burst at 600 orders/s.
    """
    phases: List[LoadPhase] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            rate_text, _, seconds_text = part.partition(":")
            phases.append(LoadPhase(float(rate_text), float(seconds_text)))
        except ValueError as exc:
            raise ValueError(f"bad schedule entry {part!r}: {exc}") from None
    if not phases:
        raise ValueError(f"schedule {spec!r} contains no phases")
    return phases


def order_payloads(
    bundle: ScenarioBundle,
    repeat_days: int = 1,
    max_orders: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Build the submit payload stream from a scenario bundle.

    The bundle's day-0 order stream is tiled ``repeat_days`` times: day
    ``d`` shifts every arrival by ``d`` whole days and every slot by
    ``slots_per_day``, so the concatenation stays monotone in arrival and
    each arrival stays inside its (shifted) slot window — one offline
    ``engine.run`` call replays the whole stream.  ``max_orders``
    truncates the tiled stream.
    """
    if repeat_days < 1:
        raise ValueError("repeat_days must be at least 1")
    mps = float(bundle.minutes_per_slot) if bundle.minutes_per_slot else 30.0
    slots_per_day = int(round(DAY_MINUTES / mps))
    day_minutes = slots_per_day * mps
    orders = bundle.orders
    payloads: List[Dict[str, Any]] = []
    for day in range(repeat_days):
        for i in range(len(orders)):
            payloads.append(
                {
                    "slot": int(orders.slot[i]) + day * slots_per_day,
                    "arrival_minute": float(orders.arrival_minute[i])
                    + day * day_minutes,
                    "x": float(orders.x[i]),
                    "y": float(orders.y[i]),
                    "dropoff_x": float(orders.dropoff_x[i]),
                    "dropoff_y": float(orders.dropoff_y[i]),
                    "revenue": float(orders.revenue[i]),
                    "max_wait_minutes": float(orders.max_wait_minutes[i]),
                }
            )
            if max_orders is not None and len(payloads) >= max_orders:
                return payloads
    return payloads


#: A deliberately malformed order for the CLI's rejection self-test.
MALFORMED_ORDER = {field: "not-a-number" for field in ORDER_FIELDS}


class ServiceClient(Protocol):
    """What the generator needs: submit one order, read stats, drain."""

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]: ...

    def stats(self) -> Dict[str, Any]: ...

    def drain(self) -> Dict[str, Any]: ...


class InProcessClient:
    """Drive a :class:`~repro.service.server.DispatchService` directly."""

    def __init__(self, service: Any) -> None:
        self.service = service

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self.service.submit(payload)

    def stats(self) -> Dict[str, Any]:
        return self.service.stats()

    def drain(self) -> Dict[str, Any]:
        return self.service.drain().to_payload()


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with seeded jitter for :class:`HttpClient`.

    Retryable failures are connection-level errors (refused, timeout,
    dropped mid-request), 5xx responses and 429 backpressure.  The jitter
    stream is seeded — pass the loadgen seed — so a retried run's request
    schedule, and therefore its ingest log, stays byte-identical across
    repeats.  Attempt ``k`` (0-based) sleeps::

        min(max_delay, base_delay * 2**k) * (0.5 + 0.5 * jitter)

    For a 429 the sleep is at least the server's ``Retry-After`` hint.
    """

    max_retries: int = 0
    base_delay: float = 0.05
    max_delay: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("retry delays must be non-negative")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        return min(self.max_delay, self.base_delay * (2.0 ** attempt)) * (
            0.5 + 0.5 * rng.random()
        )


class HttpClient:
    """Drive a service over its HTTP API on one persistent connection.

    Requests reuse a single stdlib ``http.client`` connection.  One the
    server has closed meanwhile (idle timeout, a ``Connection: close``
    reply) is dropped before the next request and a fresh one opened; one
    that fails mid-request is closed, so the next attempt reconnects.
    With a :class:`RetryPolicy`, transient failures — connection refused or
    dropped, timeouts, 5xx, 429 backpressure — are retried with seeded
    exponential backoff; ``retries`` counts every retry sleep taken.  The
    submit path is at-least-once: a connection dropped *after* the service
    staged the order would re-submit it, which the scheduler's monotone
    contract and the offline replay both tolerate by construction.
    Malformed-payload rejections (HTTP 400 → :class:`AdmissionError`) are
    never retried.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"service URL must be http://host[:port], got {base_url!r}")
        self._connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
        self._prefix = parts.path
        self.retry = retry
        self.retries = 0
        self._sleep = sleep
        self._jitter = random.Random(retry.seed if retry is not None else 0)

    def close(self) -> None:
        """Close the connection; the next request opens a new one."""
        self._connection.close()

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, payload)
            except (BackpressureError, ServiceUnavailableError) as exc:
                if self.retry is None or attempt >= self.retry.max_retries:
                    raise
                delay = self.retry.backoff(attempt, self._jitter)
                if isinstance(exc, BackpressureError):
                    delay = max(delay, exc.retry_after)
                self.retries += 1
                attempt += 1
                if delay > 0:
                    self._sleep(delay)

    def _connect(self, path: str) -> None:
        """Make the connection usable: reopen it if it is closed or the peer hung up."""
        sock = self._connection.sock
        # An idle kept-alive socket is readable only once the server closed it.
        if sock is not None and select.select([sock], [], [], 0)[0]:
            self.close()
        if self._connection.sock is None:
            try:
                self._connection.connect()
            except OSError as exc:
                # Connection refused, DNS failure, connect timeout: the
                # service is unreachable — a typed error, not a traceback.
                self.close()
                raise ServiceUnavailableError(
                    f"cannot reach {self.base_url}{path}: {exc}"
                ) from None

    def _request_once(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        body = canonical_json(payload).encode("utf-8") if payload is not None else None
        self._connect(path)
        try:
            self._connection.request(
                method, self._prefix + path, body, {"Content-Type": "application/json"}
            )
            response = self._connection.getresponse()
            detail = response.read().decode("utf-8", errors="replace")
        except (OSError, http.client.HTTPException) as exc:
            # The server vanished mid-request (dropped connection, timeout).
            self.close()
            raise ServiceUnavailableError(
                f"connection to {self.base_url}{path} dropped: "
                f"{type(exc).__name__}: {exc}"
            ) from None
        code = response.status
        if 200 <= code < 300:
            return json.loads(detail)
        try:
            parsed: Dict[str, Any] = json.loads(detail)
            message = parsed.get("error", detail)
        except json.JSONDecodeError:
            parsed = {}
            message = detail
        if code == 400:
            raise AdmissionError(message)
        if code == 429:
            retry_after = float(parsed.get("retry_after", response.getheader("Retry-After") or 0))
            raise BackpressureError(message, retry_after=retry_after)
        if code >= 500:
            raise ServiceUnavailableError(f"HTTP {code} from {path}: {message}")
        raise RuntimeError(f"HTTP {code} from {path}: {message}")

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._request("POST", "/orders", payload)

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def drain(self) -> Dict[str, Any]:
        return self._request("POST", "/drain", {})

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")


@dataclass(frozen=True)
class LoadgenResult:
    """Wall-clock outcome of one generator run (content lives in the service).

    ``orders_sent + orders_rejected + orders_shed`` equals the number of
    payloads offered: every order is admitted, rejected as malformed/late,
    or shed by backpressure (after the client's retries, if any, ran out).
    """

    orders_sent: int
    orders_rejected: int
    elapsed_seconds: float
    offered_rate: float
    orders_shed: int = 0
    retries: int = 0

    def to_payload(self) -> Dict[str, Any]:
        return {
            "orders_sent": self.orders_sent,
            "orders_rejected": self.orders_rejected,
            "orders_shed": self.orders_shed,
            "retries": self.retries,
            "elapsed_seconds": self.elapsed_seconds,
            "offered_rate": self.offered_rate,
        }


def run_loadgen(
    client: ServiceClient,
    payloads: Sequence[Dict[str, Any]],
    phases: Sequence[LoadPhase],
    on_phase: Optional[Any] = None,
) -> LoadgenResult:
    """Send ``payloads`` through ``client`` paced by ``phases`` (open loop).

    Phases cycle until the payload stream is exhausted; idle phases
    (``rate`` 0) sleep without sending.  Returns the wall-clock summary;
    the simulation outcome is read from the service afterwards.
    """
    sent = 0
    rejected = 0
    shed = 0
    index = 0
    start = wall_clock()
    while index < len(payloads):
        for phase in phases:
            if index >= len(payloads):
                break
            phase_start = wall_clock()
            if on_phase is not None:
                on_phase(phase, index)
            if phase.rate == 0:
                time.sleep(phase.seconds)
                continue
            interval = 1.0 / phase.rate
            quota = max(1, int(phase.rate * phase.seconds))
            for k in range(quota):
                if index >= len(payloads):
                    break
                target = phase_start + k * interval
                delay = target - wall_clock()
                if delay > 0:
                    time.sleep(delay)
                try:
                    client.submit(payloads[index])
                    sent += 1
                except AdmissionError:
                    rejected += 1
                except BackpressureError:
                    # The client's retries (if configured) are already
                    # exhausted: the order is shed, not re-queued — the
                    # open-loop generator must not turn into a closed loop
                    # under overload.
                    shed += 1
                index += 1
    elapsed = max(wall_clock() - start, 1e-9)
    return LoadgenResult(
        orders_sent=sent,
        orders_rejected=rejected,
        elapsed_seconds=elapsed,
        offered_rate=sent / elapsed,
        orders_shed=shed,
        retries=getattr(client, "retries", 0),
    )
