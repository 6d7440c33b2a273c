"""The always-on dispatch service: ingest → scheduler → micro-batch loop.

:class:`DispatchService` wires the pieces together around one scenario:

* clients submit orders through :meth:`DispatchService.submit` (in-process)
  or over HTTP (:func:`serve_http`: a lean HTTP/1.1 reader on stdlib
  ``socketserver``, one thread per persistent connection — no extra
  dependencies, and no ``http.server`` machinery per request);
* the :class:`~repro.service.scheduler.AdmissionScheduler` validates and
  stages them, shedding (:class:`~repro.service.scheduler.BackpressureError`,
  HTTP 429 + ``Retry-After``) once the bounded pending pool is full;
* a single *supervised* match-loop thread drains the stage in micro-batches
  (at most ``max_batch`` at a time — batch when busy), feeds them to a
  :class:`~repro.dispatch.engine.DispatchSession`, and fires every batch
  boundary the new watermark unlocked.  When idle the loop blocks in
  :meth:`~repro.service.scheduler.AdmissionScheduler.take`, whose condition
  variable every arrival wakes, so the next order is matched at once;
* :meth:`DispatchService.drain` closes admission and waits for the loop,
  which drains the stage and the session and builds the final
  :class:`ServiceReport` — exactly once.

**Ownership.**  The match-loop thread is the only code that touches the
session, the map of unresolved orders, the latency list and the counters.
Every other thread only enqueues through the scheduler — whose lock is the
only lock on the service's data path — and reads what the loop publishes by
reference: an immutable stats snapshot swapped in after every batch, the
failure record and the final report.  Nothing is shared mutably, so there
is no lock to take, order or hold across a blocking call.

**Health states.**  The service walks an explicit state machine::

    starting → serving ⇄ degraded → draining → stopped
                  ↘ failed (terminal)

The state is derived, not stored: ``failed`` once the loop recorded a
failure, ``stopped`` once it built the report, ``draining`` once admission
is closed, ``degraded`` while the scheduler is shedding load (backpressure;
it flips back to ``serving`` on the next successful admission).  When the
match loop dies, the exception and traceback are captured, admission is
closed with the failure message, ``/healthz`` turns 503, :meth:`submit`
raises :class:`ServiceFailedError`, and :meth:`drain` raises the same error
with the captured traceback instead of blocking forever on a dead loop.

**Crash safety.**  Every batch is appended to the ingest WAL *before* it
reaches the session, so the session's state is always a prefix-replay of
the log: a crash can lose staged (not yet batched) orders — which
at-least-once clients re-submit — but never an order the engine already
saw.  :meth:`DispatchService.recover` rebuilds a crashed run bit-exactly
from its log and resumes serving while appending to the same log.

Wall-clock measurements (admission→assignment latency, sustained
orders/sec) live in this layer only; the simulation arithmetic runs inside
the session, which is why the ingest log replays offline to bit-identical
:class:`~repro.dispatch.entities.DispatchMetrics`.

Fault injection is structured: a :class:`~repro.service.faults.FaultPlan`
(stall, crash-on-batch-N, slow/truncated WAL append, dropped connections,
start gate) is consulted at the seam points; the legacy
``REPRO_SERVICE_INJECT_SLEEP_MS`` environment hook still maps to a
stall-every-batch plan for the CI service gate's negative test.
"""

from __future__ import annotations

import dataclasses
import json
import math
import socketserver
import threading
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass
from http import HTTPStatus
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.dispatch.engine import DispatchSession, SessionEvent
from repro.dispatch.entities import DispatchMetrics
from repro.dispatch.scenarios import (
    DispatchScenario,
    ScenarioBundle,
    build_scenario_bundle,
    scenario_from_payload,
)
from repro.service.faults import INJECT_SLEEP_ENV, FaultController, FaultPlan
from repro.service.ingest import (
    IngestLogContents,
    IngestLogWriter,
    orders_from_records,
    read_ingest_log,
    service_header,
)
from repro.service.scheduler import (
    AdmissionError,
    AdmissionScheduler,
    BackpressureError,
)
from repro.utils.cache import canonical_json
from repro.utils.rng import default_rng

__all__ = [
    "DispatchService",
    "IDLE_TIMEOUT_SECONDS",
    "INJECT_SLEEP_ENV",
    "MAX_BODY_BYTES",
    "STATES",
    "ServiceConfig",
    "ServiceFailedError",
    "ServiceHTTPServer",
    "ServiceReport",
    "serve_http",
]

#: Largest request body the HTTP front end reads (an order is ~250 bytes);
#: a longer declared ``Content-Length`` is answered 413.
MAX_BODY_BYTES = 64 * 1024
#: Seconds a kept-alive HTTP connection may sit idle before the server closes
#: it and its handler thread exits.
IDLE_TIMEOUT_SECONDS = 60.0
#: How often the accept loop checks for ``shutdown()``: the longest a
#: shutdown waits.  New connections wake the loop at once whatever its value.
_SHUTDOWN_POLL_SECONDS = 0.05

#: Health states, in lifecycle order.
STATE_STARTING = "starting"
STATE_SERVING = "serving"
STATE_DEGRADED = "degraded"
STATE_FAILED = "failed"
STATE_DRAINING = "draining"
STATE_STOPPED = "stopped"
STATES = (
    STATE_STARTING,
    STATE_SERVING,
    STATE_DEGRADED,
    STATE_FAILED,
    STATE_DRAINING,
    STATE_STOPPED,
)


class ServiceFailedError(RuntimeError):
    """The match loop died; ``failure`` carries the captured traceback."""

    def __init__(self, message: str, failure: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.failure = dict(failure or {})


@dataclass(frozen=True)
class ServiceConfig:
    """Static configuration of one service run."""

    scenario: DispatchScenario
    max_batch: int = 256
    ingest_log: Optional[str] = None
    day: int = 0
    #: Bounded admission: cap on the pending pool (staged + in-flight +
    #: unresolved in the session).  ``None`` disables backpressure.
    max_pending: Optional[int] = None
    #: fsync the ingest WAL after every appended batch.  Durable against
    #: host power loss, at a per-batch syscall cost; without it a crash of
    #: the *process* still loses nothing (the writer flushes per batch).
    fsync_ingest: bool = False
    #: ``None`` reads the :data:`INJECT_SLEEP_ENV` shorthand (the CI
    #: negative-test hook); pass ``FaultPlan()`` to inject nothing.
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError("max_pending must be at least 1")


@dataclass(frozen=True)
class ServiceReport:
    """Final report of one drained service run."""

    orders_admitted: int
    orders_rejected: int
    assigned: int
    cancelled: int
    unserved: int
    duration_seconds: float
    orders_per_sec: float
    latency_p50_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    latency_max_ms: float
    max_pending: int
    metrics: DispatchMetrics
    ingest_log: Optional[str] = None
    #: Well-formed orders shed by backpressure (counted apart from
    #: ``orders_rejected``, which is malformed/late submissions).
    orders_shed: int = 0
    #: Final health state (``stopped`` for a clean drain).
    state: str = STATE_STOPPED
    #: Orders rebuilt from the WAL by crash recovery (0 for a fresh run).
    recovered_orders: int = 0

    def to_payload(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["metrics"] = dataclasses.asdict(self.metrics)
        return payload


class _LoopStats(NamedTuple):
    """The match loop's counters, published by reference swap per batch.

    Immutable, so any thread reads one consistent snapshot without a lock.
    Every admitted order is in exactly one of the four order counts.
    """

    assigned: int = 0
    cancelled: int = 0
    #: Orders dropped unresolved when their slot closed.
    unserved: int = 0
    #: Orders still unresolved in the session (the loop's unresolved map).
    unresolved: int = 0
    batches: int = 0
    max_pending: int = 0

    @property
    def admitted(self) -> int:
        return self.assigned + self.cancelled + self.unserved + self.unresolved


class DispatchService:
    """One always-on dispatch run over a scenario's fleet and city.

    Construction is cheap; :meth:`start` materialises the scenario bundle
    (or reuses a caller-provided one — the load generator shares its
    bundle), spawns the fleet, opens the ingest log and launches the match
    loop.  ``submit``/``stats``/``health`` are safe from any thread;
    ``drain`` is idempotent and returns the same :class:`ServiceReport` on
    every call — unless the loop failed, in which case it raises
    :class:`ServiceFailedError`.
    """

    def __init__(
        self, config: ServiceConfig, bundle: Optional[ScenarioBundle] = None
    ) -> None:
        self.config = config
        self._bundle = bundle
        plan = config.fault_plan
        if plan is None:
            plan = FaultPlan.from_env()
        self._faults = FaultController(plan)
        self._scheduler: Optional[AdmissionScheduler] = None
        self._session: Optional[DispatchSession] = None
        self._log: Optional[IngestLogWriter] = None
        self._thread: Optional[threading.Thread] = None
        # Owned by the match loop (by _start until the loop exists).
        #: Admission id → admission wall stamp (``None`` for recovered
        #: orders) of every order the session still holds unresolved, in
        #: admission order.
        self._unresolved: "OrderedDict[int, Optional[float]]" = OrderedDict()
        self._latencies: List[float] = []
        self._assigned = 0
        self._cancelled = 0
        self._unserved = 0
        self._batches = 0
        self._max_pending_seen = 0
        self._first_wall: Optional[float] = None
        # Published by the match loop: each is replaced whole, never mutated.
        self._stats = _LoopStats()
        self._failure: Optional[Dict[str, Any]] = None
        self._report: Optional[ServiceReport] = None
        # Fixed before the loop starts.
        self._recovered_orders = 0
        #: True when this process was rebuilt from a WAL whose final record
        #: was crash-truncated (the partial record was discarded).
        self.recovered_truncated = False
        self.drained = threading.Event()
        #: Set once the service reaches a terminal state: drained or failed.
        self.terminal = threading.Event()

    # ------------------------------------------------------------------ #

    @property
    def bundle(self) -> ScenarioBundle:
        if self._bundle is None:
            raise RuntimeError("service not started")
        return self._bundle

    @property
    def state(self) -> str:
        """Health state, derived from what the loop and scheduler publish."""
        if self._failure is not None:
            return STATE_FAILED
        if self._report is not None:
            return STATE_STOPPED
        scheduler = self._scheduler
        if scheduler is None or self._thread is None:
            return STATE_STARTING
        if scheduler.closed:
            return STATE_DRAINING
        return STATE_DEGRADED if scheduler.shedding else STATE_SERVING

    @property
    def recovered_orders(self) -> int:
        """Orders rebuilt from the WAL by crash recovery (0 for fresh runs)."""
        return self._recovered_orders

    @property
    def failure(self) -> Optional[Dict[str, Any]]:
        """Captured match-loop failure (``None`` while healthy)."""
        failure = self._failure
        return None if failure is None else dict(failure)

    @property
    def faults(self) -> FaultController:
        return self._faults

    @property
    def session(self) -> DispatchSession:
        """The live session (recovery tests compare its fleet/RNG state)."""
        if self._session is None:
            raise RuntimeError("service not started")
        return self._session

    def start(self) -> "DispatchService":
        """Materialise the scenario and launch the match loop."""
        return self._start(None)

    @classmethod
    def recover(
        cls,
        log_path: Union[str, Path],
        bundle: Optional[ScenarioBundle] = None,
        max_batch: int = 256,
        max_pending: Optional[int] = None,
        fsync_ingest: bool = False,
        fault_plan: Optional[FaultPlan] = None,
    ) -> "DispatchService":
        """Rebuild a crashed run from its ingest WAL and resume serving.

        The service appends every batch to the log before the session sees
        it, so after any crash the log is a complete prefix of the admitted
        stream, plus at most one torn final record if the crash landed
        mid-append (:func:`~repro.service.ingest.read_ingest_log` discards
        it).  The scenario, engine parameters and simulation seed come from
        the log header; runtime knobs (micro-batch cap, backpressure cap,
        durability, fault plan) are the caller's, since they describe the
        *new* process.  Returns a serving service already appending to the
        same log.

        **The bit-identity contract.**  A run that crashes after N batches,
        recovers, and then receives the rest of the stream finishes with
        ``DispatchMetrics``, final fleet state and RNG position
        bit-identical to the same stream served without interruption — and
        the stitched WAL (prefix + post-recovery appends) replays offline to
        the same metrics.  The session is chunk-invariant, so replaying the
        logged records in one chunk rebuilds the crashed process's state at
        its last completed batch.  Orders that were *staged but not yet
        batched* at the crash are the one loss: they never reached the WAL,
        and at-least-once clients re-submit them (the scheduler is seeded
        so they get the admission ids the uninterrupted run would have
        assigned).  ``tests/service/test_recovery.py`` kills services at
        every seam and asserts all three identities.
        """
        contents = read_ingest_log(log_path)
        header = contents.header
        config = ServiceConfig(
            scenario=scenario_from_payload(header["scenario"]),
            max_batch=max_batch,
            ingest_log=str(log_path),
            day=int(header.get("day", 0)),
            max_pending=max_pending,
            fsync_ingest=fsync_ingest,
            fault_plan=fault_plan if fault_plan is not None else FaultPlan(),
        )
        return cls(config, bundle=bundle)._start(contents)

    def _start(self, contents: Optional[IngestLogContents]) -> "DispatchService":
        """Build the session, scheduler and WAL writer, then launch the loop.

        A fresh run (``contents=None``) writes a new log.  A recovered run
        replays ``contents.records`` through the fresh session in one chunk,
        seeds the scheduler with the record count, last arrival and last
        slot, publishes the replayed counters (so backpressure starts from
        the true pending pool), and reopens the log in append mode,
        truncating a torn final record.
        """
        if self._thread is not None:
            raise RuntimeError("service already started")
        scenario = self.config.scenario
        if self._bundle is None:
            self._bundle = build_scenario_bundle(scenario)
        elif self._bundle.scenario.cache_payload() != scenario.cache_payload():
            raise ValueError("bundle does not match the service scenario")
        bundle = self._bundle
        engine = bundle.engine()
        if contents is None:
            header = service_header(
                scenario,
                minutes_per_slot=bundle.minutes_per_slot,
                batch_minutes=engine.batch_minutes,
                unserved_penalty_km=engine.unserved_penalty_km,
                day=self.config.day,
            )
            records: List[Dict[str, Any]] = []
        else:
            header, records = contents.header, contents.records
        self._session = DispatchSession(
            engine,
            bundle.spawn_fleet(),
            default_rng(int(header["sim_seed"])),
            day=self.config.day,
        )
        self._scheduler = AdmissionScheduler(
            minutes_per_slot=bundle.minutes_per_slot,
            max_batch=self.config.max_batch,
            max_pending=self.config.max_pending,
            start_id=len(records),
            start_watermark=(
                float(records[-1]["arrival_minute"]) if records else float("-inf")
            ),
            start_slot=int(records[-1]["slot"]) if records else None,
        )
        if records:
            self._admit(records)
        self._publish()
        self._recovered_orders = len(records)
        if contents is not None:
            self.recovered_truncated = bool(contents.truncated)
            self._log = IngestLogWriter.resume(
                self.config.ingest_log,
                complete_bytes=contents.complete_bytes,
                fsync=self.config.fsync_ingest,
                fault_controller=self._faults,
            )
        elif self.config.ingest_log is not None:
            self._log = IngestLogWriter(
                self.config.ingest_log,
                header,
                fsync=self.config.fsync_ingest,
                fault_controller=self._faults,
            )
        self._thread = threading.Thread(
            target=self._loop, name="repro-service-match-loop", daemon=True
        )
        self._thread.start()
        return self

    def submit(self, payload: Any) -> Dict[str, int]:
        """Admit one order; raises :class:`AdmissionError` on rejection,
        :class:`BackpressureError` under overload and
        :class:`ServiceFailedError` once the match loop has died."""
        scheduler = self._scheduler
        if scheduler is None:
            raise RuntimeError("service not started")
        failure = self._failure
        if failure is None:
            try:
                return {"order_id": scheduler.submit(payload)}
            except AdmissionError:
                # A dying loop records its failure before it closes
                # admission, so a submit that lost the race still learns
                # the service failed (HTTP 503, retried) rather than that
                # its order was malformed (HTTP 400, dropped).
                failure = self._failure
                if failure is None:
                    raise
        raise ServiceFailedError(f"service failed: {failure['error']}", failure)

    def stats(self) -> Dict[str, Any]:
        """Live counters, safe to call from any thread."""
        scheduler = self._scheduler
        if scheduler is None:
            raise RuntimeError("service not started")
        staged = scheduler.staged_count
        loop = self._stats
        failure = self._failure
        return {
            "state": self.state,
            "submitted": scheduler.submitted,
            "rejected": scheduler.rejected,
            "shed": scheduler.shed,
            "admitted": loop.admitted,
            "assigned": loop.assigned,
            "cancelled": loop.cancelled,
            "pending": loop.unresolved + loop.unserved + staged,
            "staged": staged,
            "batches": loop.batches,
            "recovered": self._recovered_orders,
            "max_pending": max(loop.max_pending, scheduler.max_staged),
            "draining": scheduler.closed,
            "drained": self.drained.is_set(),
            "failure": None if failure is None else failure["error"],
        }

    def health(self) -> Tuple[int, Dict[str, Any]]:
        """``(http_status, payload)`` for ``/healthz``: 503 once failed."""
        state = self.state
        if state == STATE_FAILED:
            return 503, {"status": state, "error": self._failure["error"]}
        return 200, {"status": state}

    def drain(self) -> ServiceReport:
        """Stop admission, drain staged orders and the session — exactly once.

        Closes admission and waits for the match loop, which drains and
        builds the report once; every call returns that same report object.
        In-flight orders are matched (or expire) during the drain, never
        re-processed.  If the match loop has failed — before or during the
        drain — raises :class:`ServiceFailedError` carrying the captured
        traceback instead of blocking on a loop that will never finish.
        """
        scheduler, thread = self._scheduler, self._thread
        if scheduler is None or thread is None:
            raise RuntimeError("service not started")
        scheduler.close()
        thread.join()
        failure = self._failure
        if failure is not None:
            raise ServiceFailedError(
                f"match loop failed on batch {failure['batch']}: "
                f"{failure['error']}\n{failure['traceback']}",
                failure,
            )
        return self._report

    # ------------------------------------------------------------------ #
    # Match-loop thread: everything below runs on it (or in _start, before
    # the loop exists).

    def _loop(self) -> None:
        scheduler = self._scheduler
        try:
            self._faults.wait_start()
            while True:
                batch = scheduler.take()
                if batch is None:
                    break  # closed and fully drained
                index = self._batches
                self._process(batch, index)
                self._faults.after_batch(index)
            # Graceful drain: fire the current slot's remaining boundaries
            # so every in-flight order is matched or expires, then close
            # the run.
            self._resolve(self._session.advance(drain=True), time.perf_counter())
            metrics = self._session.finish()
            end_wall = time.perf_counter()
            self._publish()
            if self._log is not None:
                self._log.close()
            self._report = self._build_report(metrics, end_wall)
            self.drained.set()
        except BaseException as exc:  # noqa: BLE001 — supervision seam
            failure = {
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
                "batch": self._batches,
            }
            self._failure = failure
            # Close admission with the failure as the rejection reason so
            # racing submitters see what happened.
            scheduler.close(reason=f"service failed: {failure['error']}")
        self.terminal.set()

    def _process(self, batch: List[Dict[str, Any]], index: int) -> None:
        self._faults.before_batch(index)
        # WAL-first ordering: a batch reaches the log before the session,
        # so recovery can always rebuild the session as a prefix replay.
        if self._log is not None:
            self._log.append(batch, batch_index=index)
        if self._first_wall is None:
            self._first_wall = batch[0]["_wall"]
        self._admit(batch)
        self._batches = index + 1
        pending = len(self._unresolved) + self._scheduler.staged_count
        self._max_pending_seen = max(self._max_pending_seen, pending)
        self._publish()

    def _admit(self, records: List[Dict[str, Any]]) -> None:
        session = self._session
        events = session.admit(orders_from_records(records))
        events.extend(session.advance())
        now = time.perf_counter()
        # Records replayed from the WAL carry no admission wall stamp: their
        # latency belongs to the crashed process, not this one.
        self._unresolved.update(
            (record["order_id"], record.get("_wall")) for record in records
        )
        self._resolve(events, now)

    def _resolve(self, events: List[SessionEvent], now: float) -> None:
        unresolved = self._unresolved
        for event in events:
            wall = unresolved.pop(event.order)
            if event.kind == "assigned":
                self._assigned += 1
                if wall is not None:
                    self._latencies.append((now - wall) * 1000.0)
            else:
                self._cancelled += 1
        # The session holds its current slot's orders, the newest in the
        # map; older entries were dropped unresolved when their slot closed.
        for _ in range(len(unresolved) - self._session.pending_orders):
            unresolved.popitem(last=False)
            self._unserved += 1

    def _publish(self) -> None:
        """Swap in a fresh stats snapshot; push the resolved count."""
        self._stats = _LoopStats(
            assigned=self._assigned,
            cancelled=self._cancelled,
            unserved=self._unserved,
            unresolved=len(self._unresolved),
            batches=self._batches,
            max_pending=self._max_pending_seen,
        )
        self._scheduler.set_resolved(self._assigned + self._cancelled)

    def _build_report(self, metrics: DispatchMetrics, end_wall: float) -> ServiceReport:
        scheduler = self._scheduler
        loop = self._stats
        latencies = np.asarray(self._latencies, dtype=float)
        if latencies.size:
            p50 = float(np.percentile(latencies, 50))
            p99 = float(np.percentile(latencies, 99))
            mean = float(latencies.mean())
            peak = float(latencies.max())
        else:
            p50 = p99 = mean = peak = 0.0
        if self._first_wall is not None:
            duration = max(end_wall - self._first_wall, 1e-9)
        else:
            duration = 0.0
        return ServiceReport(
            orders_admitted=loop.admitted,
            orders_rejected=scheduler.rejected,
            assigned=loop.assigned,
            cancelled=loop.cancelled,
            unserved=loop.unserved,
            duration_seconds=duration,
            orders_per_sec=loop.admitted / duration if duration > 0 else 0.0,
            latency_p50_ms=p50,
            latency_p99_ms=p99,
            latency_mean_ms=mean,
            latency_max_ms=peak,
            max_pending=max(loop.max_pending, scheduler.max_staged),
            metrics=metrics,
            ingest_log=self.config.ingest_log,
            orders_shed=scheduler.shed,
            state=STATE_STOPPED,
            recovered_orders=self._recovered_orders,
        )


# ---------------------------------------------------------------------- #
# HTTP front end (stdlib only)

#: Longest request line or header line the front end reads (414 / 431 past it).
MAX_LINE_BYTES = 64 * 1024
#: Most header lines one request may carry (431 past it).
MAX_HEADERS = 100
_PHRASES = {status.value: status.phrase for status in HTTPStatus}


class ServiceHTTPServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    """TCP server with one handler thread per connection; carries the service."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: DispatchService) -> None:
        super().__init__(address, _ServiceHandler)
        self.service = service


class _ServiceHandler(socketserver.StreamRequestHandler):
    """Routes: POST /orders, POST /drain, GET /healthz, GET /stats.

    A minimal HTTP/1.1 reader: :meth:`handle` reads each request line and
    its header lines with bounded ``readline`` calls, keeps only
    ``Content-Length``, ``Connection`` and ``Expect``, and calls
    ``do_GET``/``do_POST`` with ``self.path`` set.  Connections persist
    unless the client sends ``Connection: close`` or speaks HTTP/1.0
    without ``Connection: keep-alive`` (or ``protocol_version`` is
    ``HTTP/1.0``).  Every POST body is read exactly once, whatever the path,
    as is a GET body that declares a ``Content-Length``.  A request whose
    framing cannot be trusted — a POST without ``Content-Length`` (411), a
    non-integer or negative one (400), one above :data:`MAX_BODY_BYTES`
    (413) — is answered and its connection closed, as is a malformed
    request (400, 414, 431, 501).  Each response is
    one preformatted write to the buffered ``wfile``, flushed once per
    request, so it leaves in one send.
    """

    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"
    wbufsize = -1
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_SECONDS

    def handle(self) -> None:
        self.close_connection = False
        while not self.close_connection:
            try:
                self._handle_one_request()
            except TimeoutError:
                self.close_connection = True  # idle (or stalled) past ``timeout``
            self.wfile.flush()

    def _handle_one_request(self) -> None:
        line = self.rfile.readline(MAX_LINE_BYTES + 1)
        if not line:
            self.close_connection = True  # the client hung up
            return
        if len(line) > MAX_LINE_BYTES:
            self._refuse(414, f"request line over {MAX_LINE_BYTES} bytes")
            return
        words = line.decode("latin-1").split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            self._refuse(400, f"bad request line {line[:80]!r}")
            return
        method, self.path, version = words
        fields: Dict[bytes, str] = {}
        for _ in range(MAX_HEADERS + 1):
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                self._refuse(431, f"header line over {MAX_LINE_BYTES} bytes")
                return
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name in (b"content-length", b"connection", b"expect"):
                fields.setdefault(name, value.strip().decode("latin-1"))
        else:
            self._refuse(431, f"more than {MAX_HEADERS} headers")
            return
        # HTTP/1.1 persists unless told to close; HTTP/1.0 closes unless
        # told to keep alive; an HTTP/1.0 front end always closes.
        connection = fields.get(b"connection", "").lower()
        http11 = version == self.protocol_version == "HTTP/1.1"
        self.close_connection = self.protocol_version != "HTTP/1.1" or not (
            connection == "keep-alive" or (http11 and connection != "close")
        )
        self._content_length = fields.get(b"content-length")
        self._expect_continue = http11 and fields.get(b"expect", "").lower() == "100-continue"
        if method == "POST":
            self.do_POST()
        elif method == "GET":
            self.do_GET()
        else:
            self._refuse(501, f"unsupported method {method!r}")

    def _reply(
        self,
        code: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> None:
        """Write one response; ``close`` also hangs up after it."""
        body = canonical_json(payload).encode("utf-8")
        head = (
            f"{self.protocol_version} {code} {_PHRASES[code]}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        )
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        if close:
            self.close_connection = True
            head += "Connection: close\r\n"
        self.wfile.write(head.encode("latin-1") + b"\r\n" + body)

    def _refuse(self, code: int, error: str) -> None:
        """Answer a request that cannot be served, and hang up."""
        self._reply(code, {"error": error}, close=True)

    def do_GET(self) -> None:  # noqa: N802
        if self._content_length is not None and self._read_body() is None:
            return
        service = self.server.service
        if self.path == "/healthz":
            code, payload = service.health()
            self._reply(code, payload)
        elif self.path == "/stats":
            self._reply(200, service.stats())
        else:
            self._reply(404, {"error": f"unknown path {self.path}"})

    def _read_body(self) -> Optional[bytes]:
        """The request's declared body; ``None`` once a framing error is answered."""
        declared = self._content_length
        if declared is None:
            code, error = 411, "Content-Length required"
        elif not (declared.isascii() and declared.isdigit()):
            code, error = 400, f"invalid Content-Length {declared!r}"
        elif int(declared) > MAX_BODY_BYTES:
            code, error = 413, f"body of {declared} bytes exceeds {MAX_BODY_BYTES}"
        else:
            if self._expect_continue:
                self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                self.wfile.flush()
            return self.rfile.read(int(declared))
        # The rest of the stream cannot be framed: answer and hang up.
        self._refuse(code, error)
        return None

    def do_POST(self) -> None:  # noqa: N802
        body = self._read_body()
        if body is None:
            return
        service = self.server.service
        if self.path == "/orders":
            if service.faults.on_http_request(self.path):
                # Injected connection drop: vanish without a response; the
                # client sees a closed socket and must retry.
                self.close_connection = True
                return
            try:
                payload = json.loads(body)
            except ValueError as exc:  # malformed JSON or invalid UTF-8
                self._reply(400, {"error": f"invalid JSON body: {exc}"})
                return
            try:
                self._reply(200, service.submit(payload))
            except BackpressureError as exc:
                self._reply(
                    429,
                    {"error": str(exc), "retry_after": exc.retry_after},
                    headers={"Retry-After": str(math.ceil(exc.retry_after))},
                )
            except ServiceFailedError as exc:
                self._reply(503, {"error": str(exc)})
            except AdmissionError as exc:
                self._reply(400, {"error": str(exc)})
        elif self.path == "/drain":
            try:
                self._reply(200, service.drain().to_payload())
            except ServiceFailedError as exc:
                self._reply(503, {"error": str(exc)})
        else:
            self._reply(404, {"error": f"unknown path {self.path}"})


def serve_http(
    service: DispatchService, host: str = "127.0.0.1", port: int = 8321
) -> ServiceHTTPServer:
    """Bind and serve the service over HTTP in a daemon thread.

    Raises ``OSError`` (errno ``EADDRINUSE``) when the port is taken —
    callers surface it as a clean exit-code-2 message.  ``port=0`` binds an
    ephemeral port; read it back from ``server.server_address[1]``.
    """
    server = ServiceHTTPServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever,
        args=(_SHUTDOWN_POLL_SECONDS,),
        name="repro-service-http",
        daemon=True,
    )
    thread.start()
    return server
