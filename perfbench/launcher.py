"""Service process for ``serve_http``: what ``repro serve`` runs, plus a report.

Usage::

    python3 perfbench/launcher.py --wal <path> --summary <path> [--spans <path>]

Builds ``reference_scenario("polar", "greedy")`` and starts it through the
same public entry points as ``repro serve`` — ``ServiceConfig`` with the
CLI's defaults, ``DispatchService(...).start()``, ``serve_http`` — with the
ingest WAL on, on an ephemeral local port.  The first line of standard
output is ``{"port": <n>}``.  The process serves until its standard input
closes (the client drains it over ``POST /drain`` first and closes the pipe
once it holds the reply), then writes a JSON summary: the drain report and
its own peak RSS.  With ``--spans`` the layer shims are installed before the
scenario is built, the summary adds the per-layer metrics and the spans are
written to the given file.
"""

from __future__ import annotations

import argparse
import os
import sys

from common import peak_rss_mb, use_source_tree


def main() -> int:
    parser = argparse.ArgumentParser(description="serve_http service process")
    parser.add_argument("--wal", required=True)
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans", help="trace the layers; write spans here")
    args = parser.parse_args()
    use_source_tree()
    from tracer import Patcher, Tracer

    import shims

    tracer, patcher = Tracer(), Patcher()
    if args.spans:
        shims.install(tracer, patcher)

    from repro.dispatch.scenarios import reference_scenario
    from repro.service import DispatchService, ServiceConfig, ServiceFailedError, serve_http
    from repro.utils.cache import canonical_json

    scenario = reference_scenario("polar", "greedy")
    service = DispatchService(ServiceConfig(scenario=scenario, ingest_log=args.wal)).start()
    server = serve_http(service, host="127.0.0.1", port=0)
    print(canonical_json({"port": server.server_address[1]}), flush=True)
    summary = {}
    try:
        sys.stdin.read()
        summary["report"] = service.drain().to_payload()
    except ServiceFailedError as exc:
        summary["error"] = str(exc)
    finally:
        server.shutdown()
        server.server_close()
    summary["peak_rss_mb"] = peak_rss_mb()
    if args.spans:
        patcher.restore()
        layers = shims.layer_metrics(tracer)
        layers["ingest.bytes"] = os.path.getsize(args.wal)
        summary["layers"] = layers
        tracer.dump(args.spans)
    with open(args.summary, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(summary))
    return 0 if "error" not in summary else 1


if __name__ == "__main__":
    sys.exit(main())
