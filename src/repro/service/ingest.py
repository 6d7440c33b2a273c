"""Canonical-JSON ingest log and its offline replay bridge.

Every order the service admits is appended to a JSON-Lines log: one header
line describing the run (scenario payload, simulation seed, engine
parameters) followed by one canonical-JSON line per admitted order, in
admission order.  The log carries *only* simulation data — no wall-clock
timestamps — so two service runs over the same stream write byte-identical
logs, and a completed run is fully described by its log:

    >>> result = replay_ingest_log("ingest.jsonl")
    >>> result.metrics  # bit-identical to the live run's DispatchMetrics

:func:`replay_ingest_log` rebuilds the scenario bundle (fleet spawn, travel
model, demand guidance), constructs the same engine, and runs the logged
stream through :meth:`~repro.dispatch.engine.VectorizedAssignmentEngine.run`
— the offline oracle path.  Because the live session and the offline replay
execute the same ``_SlotRun`` code, the metrics must agree bit-for-bit; the
service benchmark, the soak workflow and ``tests/service`` all assert it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.dispatch.engine import VectorizedAssignmentEngine
from repro.dispatch.entities import DispatchMetrics, OrderArrays
from repro.dispatch.scenarios import (
    DispatchScenario,
    ScenarioBundle,
    build_scenario_bundle,
    scenario_from_payload,
)
from repro.service.faults import FaultController, InjectedCrash
from repro.utils.cache import canonical_json
from repro.utils.rng import default_rng

#: Bump when the log layout changes so stale logs fail loudly on replay.
INGEST_SCHEMA = 2

#: Order fields written to the log, in OrderArrays column order.
ORDER_LOG_FIELDS = (
    "order_id",
    "slot",
    "arrival_minute",
    "x",
    "y",
    "dropoff_x",
    "dropoff_y",
    "revenue",
    "max_wait_minutes",
)


def service_header(
    scenario: DispatchScenario,
    minutes_per_slot: float,
    batch_minutes: float,
    unserved_penalty_km: float,
    day: int = 0,
) -> Dict[str, Any]:
    """The log's first line: everything a replay needs to rebuild the run."""
    return {
        "schema": INGEST_SCHEMA,
        "kind": "repro-service-ingest",
        "scenario": scenario.cache_payload(),
        "sim_seed": scenario.sim_seed,
        "minutes_per_slot": float(minutes_per_slot),
        "batch_minutes": float(batch_minutes),
        "unserved_penalty_km": float(unserved_penalty_km),
        "day": int(day),
    }


class IngestLogWriter:
    """Append-only canonical-JSONL writer for admitted orders.

    The header is written on construction; :meth:`append` adds one line per
    order (private bookkeeping keys, prefixed ``_``, are stripped) and
    flushes per batch so a crashed run keeps every admitted order.  With
    ``fsync=True`` every batch is also synced to disk — durable against
    host power loss at a per-batch syscall cost (a mere process crash loses
    nothing either way, thanks to the per-batch flush).

    :meth:`resume` reopens an existing log for appending — crash recovery's
    path — first truncating a partial final line (crash mid-append) so the
    file returns to a clean record boundary.
    """

    def __init__(
        self,
        path: Union[str, Path],
        header: Optional[Dict[str, Any]] = None,
        fsync: bool = False,
        fault_controller: Optional[FaultController] = None,
        _append: bool = False,
    ) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self._faults = fault_controller
        if _append:
            self._handle = self.path.open("a", encoding="utf-8")
        else:
            if header is None:
                raise ValueError("a fresh ingest log requires a header")
            self._handle = self.path.open("w", encoding="utf-8")
            self._handle.write(canonical_json(header) + "\n")
            self._flush()

    @classmethod
    def resume(
        cls,
        path: Union[str, Path],
        complete_bytes: Optional[int] = None,
        fsync: bool = False,
        fault_controller: Optional[FaultController] = None,
    ) -> "IngestLogWriter":
        """Reopen an existing log for appending (no new header).

        ``complete_bytes`` — from :class:`IngestLogContents` — truncates the
        file back to its last complete record before appending resumes.
        """
        target = Path(path)
        if complete_bytes is not None:
            with target.open("r+b") as handle:
                handle.truncate(int(complete_bytes))
        return cls(target, fsync=fsync, fault_controller=fault_controller, _append=True)

    def append(self, orders: Sequence[Dict[str, Any]], batch_index: int = 0) -> None:
        for order in orders:
            line = (
                canonical_json({field: order[field] for field in ORDER_LOG_FIELDS})
                + "\n"
            )
            if self._faults is not None and self._faults.on_append_line(
                line, self._handle, batch_index
            ):
                raise InjectedCrash(
                    f"injected crash mid-append on batch {batch_index}"
                )
            self._handle.write(line)
        self._flush()

    def _flush(self) -> None:
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "IngestLogWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


@dataclass(frozen=True)
class IngestLogContents:
    """A parsed ingest log, tolerant of a crash-truncated final line.

    ``truncated`` flags a partial final record (the crash-mid-append
    artifact); ``complete_bytes`` is the file offset just past the last
    complete record — :meth:`IngestLogWriter.resume` truncates to it before
    appending resumes, restoring a clean record boundary.
    """

    header: Dict[str, Any]
    records: List[Dict[str, Any]]
    truncated: bool
    complete_bytes: int


def read_ingest_log(path: Union[str, Path]) -> IngestLogContents:
    """Parse a log, tolerating a truncated final line; validates the schema.

    A record line that is unterminated, or terminated but unparseable *at
    end of file*, is reported via ``truncated`` instead of raising — that
    is exactly what a crash mid-append leaves behind.  Corruption anywhere
    else in the file still raises ``ValueError`` loudly: it cannot be
    produced by a crash of the append-only writer.
    """
    raw = Path(path).read_bytes()
    if not raw:
        raise ValueError(f"ingest log {path} is empty")
    newline = raw.find(b"\n")
    if newline < 0:
        raise ValueError(
            f"ingest log {path} is truncated before the header completed"
        )
    header = json.loads(raw[:newline].decode("utf-8"))
    if header.get("kind") != "repro-service-ingest":
        raise ValueError(f"{path} is not a service ingest log")
    if header.get("schema") != INGEST_SCHEMA:
        raise ValueError(
            f"unsupported ingest schema {header.get('schema')!r} "
            f"(expected {INGEST_SCHEMA})"
        )
    records: List[Dict[str, Any]] = []
    truncated = False
    offset = newline + 1
    while offset < len(raw):
        end = raw.find(b"\n", offset)
        if end < 0:
            # Unterminated final line: the crash landed mid-append.  Even
            # if the fragment happens to parse, it may be an incomplete
            # prefix (e.g. a cut-off number), so it is never trusted.
            truncated = True
            break
        line = raw[offset:end].strip()
        if line:
            try:
                records.append(json.loads(line.decode("utf-8")))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                if end + 1 >= len(raw):
                    truncated = True
                    break
                raise ValueError(
                    f"ingest log {path} has a corrupt record at byte "
                    f"{offset}: {exc}"
                ) from exc
        offset = end + 1
    return IngestLogContents(
        header=header,
        records=records,
        truncated=truncated,
        complete_bytes=offset,
    )


def orders_from_records(records: Sequence[Dict[str, Any]]) -> OrderArrays:
    """Pack admitted-order records into the engine's column arrays.

    Records are in admission (arrival) order, which is exactly the
    arrival-sorted layout :class:`OrderArrays` expects.
    """
    return OrderArrays(
        order_id=np.array([r["order_id"] for r in records], dtype=np.int64),
        slot=np.array([r["slot"] for r in records], dtype=np.int64),
        arrival_minute=np.array([r["arrival_minute"] for r in records], dtype=float),
        x=np.array([r["x"] for r in records], dtype=float),
        y=np.array([r["y"] for r in records], dtype=float),
        dropoff_x=np.array([r["dropoff_x"] for r in records], dtype=float),
        dropoff_y=np.array([r["dropoff_y"] for r in records], dtype=float),
        revenue=np.array([r["revenue"] for r in records], dtype=float),
        max_wait_minutes=np.array(
            [r["max_wait_minutes"] for r in records], dtype=float
        ),
    )


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying an ingest log offline through ``engine.run``."""

    metrics: DispatchMetrics
    order_count: int
    header: Dict[str, Any]
    #: The log ended in a partial record (crash mid-append); the replay
    #: covers the complete records only.
    truncated: bool = False


def replay_ingest_log(
    path: Union[str, Path],
    bundle: Optional[ScenarioBundle] = None,
) -> ReplayResult:
    """Replay a recorded service run offline; the determinism bridge.

    Rebuilds the scenario bundle from the log header (or reuses a caller's
    ``bundle`` for the same scenario — bundle construction is the expensive
    part), spawns a fresh fleet, and runs the logged stream through
    :meth:`VectorizedAssignmentEngine.run` with the recorded engine
    parameters.  The returned metrics must equal the live run's
    bit-for-bit.
    """
    contents = read_ingest_log(path)
    header, records = contents.header, contents.records
    scenario = scenario_from_payload(header["scenario"])
    if bundle is None:
        bundle = build_scenario_bundle(scenario)
    elif bundle.scenario.cache_payload() != scenario.cache_payload():
        raise ValueError("bundle does not match the ingest log's scenario")
    engine = VectorizedAssignmentEngine(
        policy=scenario.make_policy(),
        travel=bundle.travel,
        demand=bundle.provider,
        batch_minutes=float(header["batch_minutes"]),
        unserved_penalty_km=float(header["unserved_penalty_km"]),
        minutes_per_slot=float(header["minutes_per_slot"]),
    )
    metrics = engine.run(
        orders_from_records(records),
        bundle.spawn_fleet(),
        default_rng(int(header["sim_seed"])),
        day=int(header.get("day", 0)),
    )
    return ReplayResult(
        metrics=metrics,
        order_count=len(records),
        header=header,
        truncated=contents.truncated,
    )
