"""Always-on dispatch service: ingest API, admission scheduler, match loop.

The service layer wraps the offline dispatch engine
(:mod:`repro.dispatch.engine`) in a continuously running process: orders
arrive one at a time (HTTP or in-process), an admission scheduler validates
and stages them — shedding with HTTP 429 backpressure once the bounded
pending pool fills — and a supervised micro-batching match loop feeds the
engine's incremental :class:`~repro.dispatch.engine.DispatchSession`.
Every admitted order is appended to a canonical-JSON ingest WAL *before*
it reaches the session, so a crashed run rebuilds bit-exactly via
:meth:`~repro.service.server.DispatchService.recover`, and the log's
offline replay reproduces the live run's metrics bit-for-bit — the
determinism bridge that makes the service CI-gateable, and that the
seeded chaos campaign (:mod:`repro.service.chaos`) attacks with
structured fault injection.
"""

from repro.service.chaos import ChaosReport, ChaosSample
from repro.service.chaos import run_campaign as run_chaos_campaign
from repro.service.faults import (
    INJECT_SLEEP_ENV,
    FaultController,
    FaultPlan,
    InjectedCrash,
)
from repro.service.ingest import (
    INGEST_SCHEMA,
    IngestLogContents,
    IngestLogWriter,
    ReplayResult,
    orders_from_records,
    read_ingest_log,
    replay_ingest_log,
    service_header,
)
from repro.service.loadgen import (
    HttpClient,
    InProcessClient,
    LoadgenResult,
    LoadPhase,
    RetryPolicy,
    ServiceUnavailableError,
    order_payloads,
    parse_schedule,
    run_loadgen,
)
from repro.service.scheduler import (
    AdmissionError,
    AdmissionScheduler,
    BackpressureError,
    validate_order,
)
from repro.service.server import (
    DispatchService,
    ServiceConfig,
    ServiceFailedError,
    ServiceHTTPServer,
    ServiceReport,
    serve_http,
)

__all__ = [
    "AdmissionError",
    "AdmissionScheduler",
    "BackpressureError",
    "ChaosReport",
    "ChaosSample",
    "DispatchService",
    "FaultController",
    "FaultPlan",
    "HttpClient",
    "INGEST_SCHEMA",
    "INJECT_SLEEP_ENV",
    "InProcessClient",
    "IngestLogContents",
    "IngestLogWriter",
    "InjectedCrash",
    "LoadPhase",
    "LoadgenResult",
    "ReplayResult",
    "RetryPolicy",
    "ServiceConfig",
    "ServiceFailedError",
    "ServiceHTTPServer",
    "ServiceReport",
    "ServiceUnavailableError",
    "serve_http",
    "orders_from_records",
    "order_payloads",
    "parse_schedule",
    "read_ingest_log",
    "replay_ingest_log",
    "run_chaos_campaign",
    "run_loadgen",
    "service_header",
    "validate_order",
]
