"""The repository benchmark: one command, three workloads, every metric named.

Usage::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see the module of each for why it exists):

* ``ogss_sweep`` (``wl_ogss.py``) — the OGSS sweep, cold and replayed from
  the result cache;
* ``dispatch_large_fleet`` (``wl_dispatch.py``) — one simulated day of a
  40k-driver fleet through the sparse matching pipeline;
* ``serve_http`` (``wl_serve.py``) — the dispatch service over HTTP, driven
  open-loop at 250 orders/s and then up a ladder of fixed rates.

The program is imported from the checkout's ``src/``; nothing is installed.
Every workload checks its outputs (against ``reference.json`` on the
default seed 7, and for self-consistency on every seed).  A failed check
counts as a failed operation and makes the command exit 1.

With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` are the four end-to-end figures registered in
``BENCHMARK.json``; every workload reports all four, each defined on that
workload's own user-visible operation:

* ``setup_s`` — median of three fresh-process set-ups (imports plus input
  build; for ``serve_http``, service launch until ``/healthz`` answers 200);
* ``peak_rss_mb`` — high-water RSS of the process doing the work (for
  ``serve_http``, the service process of the 250 orders/s phase);
* ``latency_p50_ms`` — wall time of one cold sweep (``ogss_sweep``) and of
  one simulated day (``dispatch_large_fleet``), each the fastest of the
  run's repeats; median admission-to-assignment latency at 250 orders/s
  from the service's drain report (``serve_http``);
* ``throughput_per_s`` — sweep tasks per second of that cold sweep,
  simulated orders per second of that day, and orders acknowledged per
  second when the generator sends back to back (``serve_http``).

Failed or incorrect operations are the JSON's ``failed`` out of
``attempted`` (printed as ``error_frac``); they are not a registered metric,
because a metric that reads 0 cannot carry a relative bound.
The human-readable lines above it also print each workload's own figures by
name (``sweep_s``, ``sim_s``, ``svc_*``, ``error_frac``).  With ``--trace 1``
the layer shims are installed and ``metrics`` holds the per-layer figures
instead, with the tracing overhead; spans are written to
``perfbench/.out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

from common import BENCH_DIR, SRC, fmt, use_source_tree

WORKLOADS = ("ogss_sweep", "dispatch_large_fleet", "serve_http")
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    use_source_tree()
    if args.workload == "ogss_sweep":
        import wl_ogss as workload
    elif args.workload == "dispatch_large_fleet":
        import wl_dispatch as workload
    else:
        import wl_serve as workload

    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        out = workload.run(args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    error_frac = out.failed / max(out.attempted, 1)
    out.name("error_frac", error_frac, "frac")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in out.notes:
        print(f"  note: {note}")
    for name, (value, unit) in out.named.items():
        print(f"  {name:<28} {fmt(value):>14} {unit}")
    if args.trace:
        for name, value in out.layers.items():
            print(f"  {name:<28} {fmt(value):>14}")
    for error in out.errors:
        print(f"  CHECK FAILED: {error}")
    if args.trace:
        import shims

        metrics = {
            name: {"value": float(out.layers.get(name, 0.0)), "unit": unit}
            for name, (unit, _) in shims.LAYER_METRICS.items()
        }
    else:
        metrics = {
            name: {"value": float(out.end_to_end[name]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    correct = not out.errors
    from repro.utils.cache import canonical_json

    result = {
        "correct": correct,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": metrics,
    }
    print(canonical_json(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
