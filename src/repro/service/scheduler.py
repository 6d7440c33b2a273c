"""Admission control for the always-on dispatch service.

The scheduler is the narrow waist between the ingest surfaces (HTTP
handlers, the in-process client) and the single-threaded match loop:

* :func:`validate_order` normalises one submitted payload — types, finite
  values, the slot-window containment that the engine's determinism bridge
  relies on — and raises :class:`AdmissionError` with a client-readable
  message otherwise;
* :class:`AdmissionScheduler` assigns admission ids, enforces the global
  monotone-arrival contract of
  :class:`~repro.dispatch.engine.DispatchSession`, and stages accepted
  orders for the match loop, whose :meth:`~AdmissionScheduler.take` blocks
  until orders are staged and pops at most ``max_batch`` of them (the
  micro-batch cap) in strict admission order.

Everything here is wall-clock-free from the simulation's point of view:
validation and staging decide *whether* and *in which order* orders reach
the engine, never what the engine computes — that is what keeps a live run
bit-identically replayable offline.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional

from repro.utils.timer import wall_clock

#: Fields every submitted order must carry (``order_id`` is assigned by the
#: scheduler, not the client).
ORDER_FIELDS = (
    "slot",
    "arrival_minute",
    "x",
    "y",
    "dropoff_x",
    "dropoff_y",
    "revenue",
    "max_wait_minutes",
)

#: Fields that must lie inside the unit square (city coordinates).
_COORDINATE_FIELDS = ("x", "y", "dropoff_x", "dropoff_y")

#: Seconds a shed client is told to wait before retrying (``Retry-After``).
RETRY_AFTER_SECONDS = 0.1


class AdmissionError(ValueError):
    """A submitted order was rejected; the message is safe to show clients."""


class BackpressureError(RuntimeError):
    """The pending pool is full; retry after ``retry_after`` seconds.

    Deliberately *not* an :class:`AdmissionError`: shedding is overload
    protection on a well-formed order (HTTP 429 + ``Retry-After``), not a
    client mistake (HTTP 400), and the counters are kept apart so the
    accounting identity ``shed + admitted == offered`` stays checkable.
    """

    def __init__(self, message: str, retry_after: float = RETRY_AFTER_SECONDS) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


def validate_order(
    payload: Any, minutes_per_slot: float = 30.0
) -> Dict[str, float]:
    """Normalise one submitted order payload or raise :class:`AdmissionError`.

    Returns a plain dict with ``slot`` as ``int`` and every other field a
    finite ``float``, checked against the engine's invariants: non-negative
    revenue, positive rider patience, unit-square coordinates, and the
    arrival inside its slot window ``[slot * mps, (slot + 1) * mps)`` — the
    containment :class:`~repro.dispatch.engine.DispatchSession` needs so the
    offline replay infers the identical slot length.
    """
    if not isinstance(payload, Mapping):
        raise AdmissionError("order must be a JSON object")
    order: Dict[str, float] = {}
    for field in ORDER_FIELDS:
        if field not in payload:
            raise AdmissionError(f"order is missing required field {field!r}")
        value = payload[field]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise AdmissionError(f"order field {field!r} must be a number")
        value = float(value)
        if not math.isfinite(value):
            raise AdmissionError(f"order field {field!r} must be finite")
        order[field] = value
    slot = order["slot"]
    if slot != int(slot) or slot < 0:
        raise AdmissionError("slot must be a non-negative integer")
    order["slot"] = int(slot)
    if order["revenue"] < 0:
        raise AdmissionError("revenue must be non-negative")
    if order["max_wait_minutes"] <= 0:
        raise AdmissionError("max_wait_minutes must be positive")
    for field in _COORDINATE_FIELDS:
        if not 0.0 <= order[field] <= 1.0:
            raise AdmissionError(f"{field} must lie in the unit square [0, 1]")
    window_start = order["slot"] * minutes_per_slot
    if not window_start <= order["arrival_minute"] < window_start + minutes_per_slot:
        raise AdmissionError(
            f"arrival_minute {order['arrival_minute']:g} is outside slot "
            f"{order['slot']}'s window [{window_start:g}, "
            f"{window_start + minutes_per_slot:g})"
        )
    return order


class AdmissionScheduler:
    """Thread-safe staging queue between ingest and the match loop.

    ``submit`` may be called concurrently from any number of client threads;
    accepted orders receive sequential admission ids (which equal their row
    in the offline replay's arrival-sorted stream) and join the staged
    deque.  The match loop calls :meth:`take`, which pops at most
    ``max_batch`` orders per call — a burst larger than the cap is split
    across batches without ever reordering admission order.

    **Backpressure.**  With ``max_pending`` set, admission is bounded: a
    well-formed order is *shed* (:class:`BackpressureError`, counted in
    ``shed``) once the pending pool — admission ids issued minus orders
    resolved — reaches the cap.  The match loop pushes its resolved count
    through :meth:`set_resolved` after every batch, so a shed decision sees
    a count at most one batch stale; the accounting identity
    ``shed + admitted == offered`` holds exactly because both counters move
    under this scheduler's lock.  ``shedding`` is raised by a shed and
    cleared by the next admission; the service derives its ``degraded``
    health state from it.

    **Resume.**  Crash recovery re-creates the scheduler mid-stream:
    ``start_id``/``start_watermark``/``start_slot`` seed the admission
    counter and the monotone-arrival contract from the recovered WAL, so
    re-submitted in-flight orders receive the same admission ids the
    uninterrupted run would have assigned.
    """

    def __init__(
        self,
        minutes_per_slot: float = 30.0,
        max_batch: int = 256,
        max_pending: Optional[int] = None,
        start_id: int = 0,
        start_watermark: float = float("-inf"),
        start_slot: Optional[int] = None,
    ) -> None:
        if minutes_per_slot <= 0:
            raise ValueError("minutes_per_slot must be positive")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if start_id < 0:
            raise ValueError("start_id must be non-negative")
        self.minutes_per_slot = float(minutes_per_slot)
        self.max_batch = int(max_batch)
        self.max_pending = None if max_pending is None else int(max_pending)
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._staged: Deque[Dict[str, float]] = deque()
        self._watermark = float(start_watermark)
        self._slot = None if start_slot is None else int(start_slot)
        self._next_id = int(start_id)
        self._closed = False
        self._resolved = 0
        self._shedding = False
        self._close_reason = "service is draining; no new orders accepted"
        self.submitted = 0
        self.rejected = 0
        self.shed = 0
        self.max_staged = 0

    # ------------------------------------------------------------------ #

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def shedding(self) -> bool:
        """True from a shed submit until the next admitted one."""
        with self._lock:
            return self._shedding

    @property
    def staged_count(self) -> int:
        with self._lock:
            return len(self._staged)

    @property
    def watermark(self) -> float:
        with self._lock:
            return self._watermark

    def submit(self, payload: Any) -> int:
        """Validate and stage one order; returns its admission id.

        Raises :class:`AdmissionError` on malformed payloads, on arrivals
        behind the admitted watermark (the monotone contract), and once the
        scheduler is closed for draining; raises :class:`BackpressureError`
        (counted in ``shed``) when the bounded pending pool is full.
        """
        try:
            order = validate_order(payload, self.minutes_per_slot)
        except AdmissionError:
            with self._lock:
                self.rejected += 1
            raise
        with self._ready:
            if self._closed:
                self.rejected += 1
                raise AdmissionError(self._close_reason)
            if self.max_pending is not None:
                # _next_id counts every order ever admitted to the stream
                # (recovery seeds it with the WAL record count), so the
                # difference is the full pending pool: staged + in-flight +
                # session-unresolved.
                pending = self._next_id - self._resolved
                if pending >= self.max_pending:
                    self.shed += 1
                    self._shedding = True
                    raise BackpressureError(
                        f"pending pool is full ({pending} of {self.max_pending} "
                        f"orders in flight); retry after {RETRY_AFTER_SECONDS:g} s"
                    )
            if order["arrival_minute"] < self._watermark:
                self.rejected += 1
                raise AdmissionError(
                    f"arrival_minute {order['arrival_minute']:g} is behind the "
                    f"admitted watermark {self._watermark:g}; orders must "
                    "arrive in non-decreasing arrival order"
                )
            if self._slot is not None and order["slot"] < self._slot:
                self.rejected += 1
                raise AdmissionError(
                    f"slot {order['slot']} is behind the current slot {self._slot}"
                )
            order_id = self._next_id
            self._next_id += 1
            order["order_id"] = order_id
            # Wall-clock admission stamp for the latency measurement; a
            # private key the ingest log and the engine never see.
            order["_wall"] = wall_clock()
            self._staged.append(order)
            self.submitted += 1
            self._shedding = False
            self._watermark = order["arrival_minute"]
            self._slot = int(order["slot"])
            if len(self._staged) > self.max_staged:
                self.max_staged = len(self._staged)
            self._ready.notify()
            return order_id

    def set_resolved(self, resolved: int) -> None:
        """Record how many admitted orders the match loop has resolved."""
        with self._lock:
            self._resolved = int(resolved)

    def take(self) -> Optional[List[Dict[str, float]]]:
        """Pop up to ``max_batch`` staged orders in admission order.

        Blocks while nothing is staged and admission is open: every
        :meth:`submit` and :meth:`close` wakes it.  Returns ``None`` once the
        scheduler is closed *and* fully drained — the loop's signal to
        finish the session.
        """
        with self._ready:
            while not self._staged and not self._closed:
                self._ready.wait()
            if not self._staged:
                return None
            count = min(len(self._staged), self.max_batch)
            return [self._staged.popleft() for _ in range(count)]

    def close(self, reason: Optional[str] = None) -> None:
        """Stop accepting orders; staged orders remain takeable (drain).

        ``reason`` customises the :class:`AdmissionError` message later
        submitters see (the failed-service path names the failure instead
        of claiming an orderly drain).
        """
        with self._ready:
            if reason is not None:
                self._close_reason = reason
            self._closed = True
            self._ready.notify_all()
