"""Command-line interface for the GridTuner reproduction.

Three subcommands cover the common workflows:

``tune``
    Generate (or reuse) a synthetic city, tune the grid size for a prediction
    model and print the selected ``n`` plus the error decomposition.

``curve``
    Print the upper-bound curve (model error, expression error, total) over a
    range of candidate grid sizes.

``experiment``
    Run one of the named paper experiments (``fig3``, ``fig4`` ... ``table4``)
    at a chosen profile and print the reproduced series.

``sweep``
    Fan OGSS searches across (city preset x model x slot) combinations in
    parallel, with a persistent on-disk result cache (rerunning the same
    sweep replays it from the cache).

``dispatch``
    Fan dispatch simulations across (city x policy x fleet size x demand
    scale x seed) scenario points through the vectorized engine, with the
    same persistent result cache (reruns replay byte-stably).

``predict``
    Fan predictor trainings across (city x model x resolution x seed)
    scenario points through the prediction engine, with the same persistent
    result cache (reruns replay byte-stably).

``fuzz``
    Differential fuzzing of the dispatch engines: seeded micro-scenarios are
    replayed on the scalar oracle and every vector/sparse configuration;
    real divergences are shrunk to minimal canonical-JSON repro files.  A
    fixed ``--samples`` campaign is fully deterministic (same seed, same
    byte-identical report).

``serve``
    Boot the always-on dispatch service over one scenario: an HTTP ingest
    API (POST /orders, /drain; GET /healthz, /stats) in front of the
    admission scheduler and the continuous micro-batching match loop.
    Every admitted order is appended to a canonical-JSON ingest log whose
    offline replay reproduces the live metrics bit-for-bit.

``loadgen``
    Drive a service (a running ``serve`` instance via ``--url``, or an
    in-process one) with the scenario's seeded order stream at a
    configurable open-loop rate schedule, then drain and report sustained
    throughput, admission-to-assignment latency percentiles and the
    ingest-log replay-equality check.

Examples
--------
::

    python -m repro tune --city nyc_like --model deepst --budget 256 --algorithm iterative
    python -m repro curve --city xian_like --model historical_average --sides 2 4 8 16
    python -m repro experiment fig3 --profile tiny
    python -m repro sweep --preset nyc,chengdu,xian --slots 16 17 --workers 4
    python -m repro dispatch --preset nyc --fleet-sizes 100 200 --demand-scales 1 2
    python -m repro predict --preset nyc --models mlp,deepst --resolutions 4 8
    python -m repro fuzz --seed 7 --samples 200 --report fuzz-report.json
    python -m repro serve --preset nyc --port 8321 --ingest-log ingest.jsonl --drain-after 60
    python -m repro loadgen --url http://127.0.0.1:8321 --rate 250 --duration 20
    python -m repro loadgen --schedule 500:20,0:5,1000:10 --repeat-days 3 --assert-replay
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.tuner import GridTuner
from repro.data.dataset import EventDataset
from repro.data.presets import CITY_PRESETS, city_preset
from repro.experiments.case_study import run_task_assignment, table3_promotion
from repro.experiments.context import CITIES, MODELS, ExperimentContext
from repro.experiments.error_curves import (
    expression_error_curve,
    model_error_curve,
    real_error_curve,
)
from repro.experiments.dispatch_suite import run_dispatch_suite
from repro.experiments.prediction_suite import run_prediction_suite
from repro.experiments.multi_city import resolve_city, run_city_sweep
from repro.experiments.reporting import format_table
from repro.experiments.search_eval import evaluate_search_algorithms
from repro.fuzz import (
    BUG_INJECTIONS,
    FuzzWorld,
    GeneratorConfig,
    run_campaign,
    run_differential,
)
from repro.fuzz.generator import WORLD_POLICIES
from repro.prediction.registry import available_models, model_factory
from repro.service.chaos import BUGS as CHAOS_BUGS
from repro.utils.cache import canonical_json

#: Experiments runnable through ``python -m repro experiment <name>``.
EXPERIMENT_NAMES = ("fig3", "fig4", "fig5", "fig6", "table3", "table4")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GridTuner: optimal grid size selection for spatiotemporal prediction models",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    tune = subparsers.add_parser("tune", help="tune the grid size for one city/model")
    _add_dataset_arguments(tune)
    tune.add_argument(
        "--algorithm",
        choices=("brute_force", "ternary", "iterative"),
        default="iterative",
        help="OGSS search algorithm (default: iterative)",
    )

    curve = subparsers.add_parser("curve", help="print the upper-bound error curve")
    _add_dataset_arguments(curve)
    curve.add_argument(
        "--sides",
        type=int,
        nargs="+",
        default=None,
        help="candidate sqrt(n) values (default: divisors of sqrt(budget))",
    )

    experiment = subparsers.add_parser(
        "experiment", help="run a named paper experiment"
    )
    experiment.add_argument("name", choices=EXPERIMENT_NAMES)
    experiment.add_argument(
        "--profile",
        choices=("tiny", "small", "paper"),
        default="tiny",
        help="experiment scale profile (default: tiny)",
    )
    experiment.add_argument(
        "--city", choices=CITIES, default="nyc_like", help="city for per-city experiments"
    )

    sweep = subparsers.add_parser(
        "sweep", help="parallel OGSS sweep across city presets with result caching"
    )
    _add_suite_arguments(sweep, "nyc,chengdu,xian", "dataset/budget", processes=False)
    sweep.add_argument(
        "--models",
        default="historical_average",
        help="comma-separated prediction models (default: historical_average)",
    )
    sweep.add_argument(
        "--slots",
        type=int,
        nargs="+",
        default=[16],
        help="time slots to tune (default: 16, the 08:00-08:30 peak)",
    )
    sweep.add_argument(
        "--algorithm",
        choices=("brute_force", "ternary", "iterative"),
        default="iterative",
        help="OGSS search algorithm (default: iterative)",
    )

    dispatch = subparsers.add_parser(
        "dispatch",
        help="parallel dispatch scenario suite (city x policy x fleet x demand x seed)",
    )
    _add_suite_arguments(dispatch, "nyc", "dataset/slots", processes=True)
    dispatch.add_argument(
        "--policies",
        default="polar,ls",
        help="comma-separated dispatch policies (default: polar,ls)",
    )
    dispatch.add_argument(
        "--fleet-sizes",
        type=int,
        nargs="+",
        default=[100, 200],
        help="driver counts to sweep (default: 100 200)",
    )
    dispatch.add_argument(
        "--demand-scales",
        type=float,
        nargs="+",
        default=[1.0, 2.0],
        help="demand multipliers to sweep; 2.0 is a surge day (default: 1 2)",
    )
    dispatch.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[7],
        help="random seeds to sweep (default: 7)",
    )
    dispatch.add_argument(
        "--engine",
        choices=("vector", "scalar"),
        default="vector",
        help="simulation engine (default: vector; scalar is the reference oracle)",
    )
    dispatch.add_argument(
        "--matching",
        choices=("optimal", "greedy"),
        default="optimal",
        help="POLAR assignment solver (default: optimal)",
    )
    dispatch.add_argument(
        "--sparse",
        choices=("auto", "always", "never"),
        default="auto",
        help=(
            "vector-engine matching pipeline: grid-bucketed sparse matching "
            "on large batches (auto, default), forced (always) or the dense "
            "candidate matrix (never); metrics are identical in every mode"
        ),
    )
    dispatch.add_argument(
        "--guidance",
        default="oracle",
        help=(
            "repositioning demand source: 'oracle' (realised demand), 'none' "
            "(no repositioning) or any registered prediction model name "
            "(e.g. mlp, deepst, dmvst_net, historical_average), which trains "
            "that predictor on the scenario's history and feeds its "
            "predictions to the dispatcher (default: oracle)"
        ),
    )
    dispatch.add_argument(
        "--scenario",
        choices=("grid", "lifecycle", "pathological"),
        default="grid",
        help=(
            "scenario family: the plain cross-product grid (default), its "
            "lifecycle/churn variants — rush-hour shift change, overnight "
            "skeleton fleet, high-cancellation surge and a 2-day carry-over "
            "replay per grid point; each variant overrides the one knob it "
            "stresses (--fleet-profile, --max-wait capped at 3, --test-days "
            "raised to >= 2 for the churn variant) — or the pathological "
            "stress variants graduated from the differential fuzzer (offset "
            "slot window, trailing empty slots, single-driver micro fleet, "
            "one-batch rider patience)"
        ),
    )
    dispatch.add_argument(
        "--test-days",
        type=int,
        default=1,
        help=(
            "consecutive test days replayed per scenario; fleet state "
            "(positions, availability, earnings) carries across the day "
            "boundaries (default: 1)"
        ),
    )
    dispatch.add_argument(
        "--fleet-profile",
        choices=("full_day", "two_shift", "skeleton"),
        default="full_day",
        help=(
            "driver shift roster: full_day (static fleet, default), "
            "two_shift (day/overnight shifts with an evening-rush change-"
            "over) or skeleton (overnight skeleton fleet)"
        ),
    )
    dispatch.add_argument(
        "--max-wait",
        type=float,
        default=10.0,
        help=(
            "rider patience in minutes; orders waiting longer are cancelled "
            "and counted in the cancelled metric (default: 10)"
        ),
    )

    predict = subparsers.add_parser(
        "predict",
        help="parallel predictor-training suite (city x model x resolution x seed)",
    )
    _add_suite_arguments(predict, "nyc", "dataset size", processes=True)
    predict.add_argument(
        "--models",
        default="historical_average,mlp",
        help=(
            "comma-separated prediction models "
            "(default: historical_average,mlp)"
        ),
    )
    predict.add_argument(
        "--resolutions",
        type=int,
        nargs="+",
        default=[8],
        help="MGrid resolutions sqrt(n) to train at (default: 8)",
    )
    predict.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[7],
        help="random seeds to sweep (default: 7)",
    )
    predict.add_argument(
        "--epochs",
        type=int,
        default=None,
        help="override training epochs for the neural models",
    )
    predict.add_argument(
        "--max-train-samples",
        type=int,
        default=None,
        help="override the training-sample cap for the neural models",
    )

    fuzz = subparsers.add_parser(
        "fuzz",
        help=(
            "differential fuzzing of the dispatch engines (scalar oracle vs "
            "dense/sparse/mixed vector runs)"
        ),
    )
    fuzz.add_argument("--seed", type=int, default=7, help="campaign seed (default: 7)")
    fuzz.add_argument(
        "--samples",
        type=int,
        default=None,
        help="number of generated worlds to replay (default: 100 unless --budget is given)",
    )
    fuzz.add_argument(
        "--budget",
        type=float,
        default=None,
        help=(
            "wall-clock budget in seconds; the campaign stops at the budget "
            "or --samples, whichever hits first (budgeted reports are not "
            "byte-stable across machines)"
        ),
    )
    fuzz.add_argument(
        "--policies",
        default=",".join(WORLD_POLICIES),
        help=f"comma-separated policies to fuzz (default: {','.join(WORLD_POLICIES)})",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip shrinking; repro files hold the original diverging worlds",
    )
    fuzz.add_argument(
        "--max-shrink-evals",
        type=int,
        default=400,
        help="replay budget of the shrinker per failure (default: 400)",
    )
    fuzz.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write the canonical-JSON campaign report to FILE",
    )
    fuzz.add_argument(
        "--repro-dir",
        default=".fuzz_repros",
        help=(
            "directory for shrunk repro files, created only on failure "
            "(default: .fuzz_repros; 'none' disables)"
        ),
    )
    fuzz.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help=(
            "replay one repro/world JSON file on every engine instead of "
            "running a campaign"
        ),
    )
    fuzz.add_argument(
        "--inject-bug",
        choices=sorted(BUG_INJECTIONS),
        default=None,
        help=(
            "apply a named deliberate engine bug to the vector runs (harness "
            "self-test: the campaign must fail)"
        ),
    )

    serve = subparsers.add_parser(
        "serve",
        help="boot the always-on dispatch service (HTTP ingest + match loop)",
    )
    _add_service_scenario_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port",
        type=int,
        default=8321,
        help="TCP port; 0 binds an ephemeral port (default: 8321)",
    )
    _add_service_runtime_arguments(serve)
    serve.add_argument(
        "--drain-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "drain and exit after this many seconds unless a client POSTs "
            "/drain first (default: run until drained over HTTP)"
        ),
    )
    serve.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write the final service report as canonical JSON to FILE",
    )
    serve.add_argument(
        "--recover",
        action="store_true",
        help=(
            "resume a crashed run from the existing --ingest-log WAL "
            "(scenario flags are ignored; the log header wins) instead of "
            "starting fresh"
        ),
    )

    loadgen = subparsers.add_parser(
        "loadgen",
        help="drive a dispatch service with the scenario's seeded order stream",
    )
    _add_service_scenario_arguments(loadgen)
    loadgen.add_argument(
        "--url",
        default=None,
        help=(
            "base URL of a running `repro serve` instance; omitted, the "
            "service is hosted in-process (the scenario flags must match "
            "the server's when --url is used)"
        ),
    )
    loadgen.add_argument(
        "--rate",
        type=float,
        default=200.0,
        help="offered load in orders/second (default: 200)",
    )
    loadgen.add_argument(
        "--duration",
        type=float,
        default=30.0,
        help="seconds per schedule cycle at --rate (default: 30)",
    )
    loadgen.add_argument(
        "--schedule",
        default=None,
        metavar="RATE:SECONDS,...",
        help=(
            "explicit load phases, e.g. 500:20,0:5,1000:10 (overrides "
            "--rate/--duration; rate 0 is an idle gap)"
        ),
    )
    loadgen.add_argument(
        "--repeat-days",
        type=int,
        default=1,
        help="tile the scenario's day-0 stream across this many days (default: 1)",
    )
    loadgen.add_argument(
        "--max-orders",
        type=int,
        default=None,
        help="truncate the (tiled) stream to this many orders",
    )
    _add_service_runtime_arguments(loadgen)
    loadgen.add_argument(
        "--no-replay",
        action="store_true",
        help="skip the offline ingest-log replay check",
    )
    loadgen.add_argument(
        "--assert-replay",
        action="store_true",
        help=(
            "fail (exit 1) unless the ingest-log replay reproduces the live "
            "metrics bit-for-bit (requires --ingest-log)"
        ),
    )
    loadgen.add_argument(
        "--assert-max-pending",
        type=int,
        default=None,
        metavar="N",
        help="fail (exit 1) if the pending backlog ever exceeded N orders",
    )
    loadgen.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write the combined load report as canonical JSON to FILE",
    )
    loadgen.add_argument(
        "--send-malformed",
        action="store_true",
        help=(
            "self-test the rejection path: submit one malformed order and "
            "exit 2 once the service rejects it cleanly"
        ),
    )
    loadgen.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "HTTP client retries per order for connection failures, 5xx and "
            "429 backpressure, with seeded exponential backoff (default: 0)"
        ),
    )

    chaos = subparsers.add_parser(
        "chaos",
        help=(
            "seeded fault-injection campaign against the live service "
            "(crash/recovery, backpressure, dropped connections, stalls)"
        ),
    )
    chaos.add_argument("--seed", type=int, default=7, help="campaign seed (default: 7)")
    chaos.add_argument(
        "--samples",
        type=int,
        default=5,
        help=(
            "number of faulted service runs; kinds cycle crash, "
            "backpressure, crash-mid-append, drop, stall (default: 5)"
        ),
    )
    chaos.add_argument(
        "--stream-orders",
        type=int,
        default=96,
        help="orders offered per sample from the pinned scenario (default: 96)",
    )
    chaos.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="match-loop micro-batch cap, which pins crash points (default: 16)",
    )
    chaos.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write the canonical-JSON campaign report to FILE (byte-stable)",
    )
    chaos.add_argument(
        "--inject-bug",
        choices=sorted(CHAOS_BUGS),
        default=None,
        help=(
            "plant a known recovery-divergence defect (harness self-test: "
            "the campaign must fail)"
        ),
    )

    lint = subparsers.add_parser(
        "lint",
        help=(
            "AST-based determinism & concurrency invariant checker "
            "(DET/CONC/API rules; exits 1 on new findings)"
        ),
    )
    # The lint package owns its argument surface so ``python -m repro.lint``
    # and ``repro lint`` stay identical; import lazily like the service verbs.
    from repro.lint.runner import build_arg_parser as _build_lint_arguments

    _build_lint_arguments(lint)
    return parser


def _add_suite_arguments(
    parser: argparse.ArgumentParser, preset: str, profile_scales: str, processes: bool
) -> None:
    """The arguments every cached suite (sweep, dispatch, predict) takes.

    ``processes`` adds ``--executor``: the sweep runs on threads only.
    """
    parser.add_argument(
        "--preset",
        default=preset,
        help=f"comma-separated city presets; short aliases allowed (default: {preset})",
    )
    parser.add_argument(
        "--profile",
        choices=("tiny", "small", "paper"),
        default="tiny",
        help=f"experiment scale profile for {profile_scales} (default: tiny)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker threads/processes (default: min(scenarios, CPU count))"
            if processes
            else "worker threads (default: min(tasks, CPU count))"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=".gridtuner_cache",
        help="persistent result-cache directory; 'none' disables caching",
    )
    if processes:
        parser.add_argument(
            "--executor",
            choices=("thread", "process"),
            default="thread",
            help=(
                "worker pool backend; 'process' sidesteps the GIL on "
                "matching- or training-heavy suites (default: thread)"
            ),
        )


def _add_service_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset",
        default="nyc",
        help="city preset; short aliases allowed (default: nyc)",
    )
    parser.add_argument(
        "--policy",
        choices=("polar", "ls"),
        default="polar",
        help="dispatch policy (default: polar)",
    )
    parser.add_argument(
        "--matching",
        choices=("optimal", "greedy"),
        default="greedy",
        help="POLAR assignment solver (default: greedy, the city-scale profile)",
    )
    parser.add_argument(
        "--fleet-size", type=int, default=200, help="driver count (default: 200)"
    )
    parser.add_argument(
        "--demand-scale", type=float, default=1.0, help="demand multiplier (default: 1)"
    )
    parser.add_argument("--seed", type=int, default=7, help="scenario seed (default: 7)")
    parser.add_argument(
        "--slots",
        type=int,
        nargs="+",
        default=None,
        help="slots of the test day to serve (default: the whole day)",
    )


def _add_service_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-batch",
        type=int,
        default=256,
        help="micro-batch cap of the match loop (default: 256)",
    )
    parser.add_argument(
        "--cadence",
        type=float,
        default=0.05,
        help=(
            "idle-tick timeout of the match loop in seconds; arrivals are "
            "matched immediately regardless (default: 0.05)"
        ),
    )
    parser.add_argument(
        "--sparse",
        choices=("auto", "always", "never"),
        default="auto",
        help="vector-engine matching pipeline (default: auto)",
    )
    parser.add_argument(
        "--ingest-log",
        default=None,
        metavar="FILE",
        help=(
            "append every admitted order to this canonical-JSONL log; its "
            "offline replay reproduces the live metrics bit-for-bit"
        ),
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=None,
        metavar="N",
        help=(
            "bounded admission: shed orders (HTTP 429 + Retry-After) once "
            "N are pending — staged plus unresolved (default: unbounded)"
        ),
    )
    parser.add_argument(
        "--fsync-ingest",
        action="store_true",
        help=(
            "fsync the ingest log after every batch (durable against host "
            "power loss; a process crash loses nothing either way)"
        ),
    )


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--city", choices=sorted(CITY_PRESETS), default="nyc_like")
    parser.add_argument(
        "--model",
        choices=available_models(),
        default="historical_average",
        help="prediction model (default: historical_average)",
    )
    parser.add_argument("--scale", type=float, default=0.01, help="city volume scale")
    parser.add_argument("--days", type=int, default=21, help="days of history to generate")
    parser.add_argument("--budget", type=int, default=256, help="HGrid budget N (perfect square)")
    parser.add_argument("--seed", type=int, default=7, help="random seed")


def _build_tuner(args: argparse.Namespace) -> GridTuner:
    dataset = EventDataset.from_city(
        city_preset(args.city, scale=args.scale), num_days=args.days, seed=args.seed
    )
    return GridTuner(dataset, model_factory(args.model), hgrid_budget=args.budget)


def _command_tune(args: argparse.Namespace) -> int:
    tuner = _build_tuner(args)
    result = tuner.select(args.algorithm, min_side=2)
    report = tuner.evaluate_real_error(result.optimal_side)
    print(f"city: {args.city}   model: {args.model}   N = {args.budget}")
    print(
        f"selected n = {result.optimal_side}x{result.optimal_side} "
        f"({result.optimal_n} MGrids) via {args.algorithm} "
        f"after {result.search.evaluations} evaluations"
    )
    rows = [
        ["model error", round(report.model_error, 2)],
        ["expression error", round(report.expression_error, 2)],
        ["upper bound", round(report.upper_bound, 2)],
        ["real error", round(report.real_error, 2)],
        ["Theorem II.1 holds", report.satisfies_upper_bound()],
    ]
    print(format_table(["quantity", "value"], rows))
    return 0


def _command_curve(args: argparse.Namespace) -> int:
    try:
        curve = _build_tuner(args).error_curve(args.sides)
    except ValueError as exc:
        print(f"repro curve: {exc}", file=sys.stderr)
        return 2
    rows = [
        [
            f"{side}x{side}",
            round(result.model_error, 2),
            round(result.expression_error, 2),
            round(result.total, 2),
        ]
        for side, result in curve.items()
    ]
    print(
        format_table(
            ["grid", "model error", "expression error", "upper bound"],
            rows,
            title=f"Upper-bound curve ({args.city}, {args.model}, N={args.budget})",
        )
    )
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    context = ExperimentContext.from_profile(args.profile)
    sides = list(context.config.mgrid_sides)
    if args.name == "fig3":
        curves = expression_error_curve(context, CITIES, sides)
        rows = [
            [city, point.num_mgrids, round(point.value, 2)]
            for city, points in curves.items()
            for point in points
        ]
        print(format_table(["city", "n", "expression error"], rows, title="Figure 3"))
    elif args.name == "fig4":
        curves = model_error_curve(context, args.city, MODELS, sides, surrogate=True)
        rows = [
            [model, point.num_mgrids, round(point.value, 2)]
            for model, points in curves.items()
            for point in points
        ]
        print(format_table(["model", "n", "model error"], rows, title="Figure 4"))
    elif args.name == "fig5":
        points = real_error_curve(context, args.city, "deepst", sides, surrogate=True)
        rows = [
            [point.num_mgrids, round(point.real_error, 2), round(point.empirical_upper_bound, 2)]
            for point in points
        ]
        print(format_table(["n", "real error", "upper bound"], rows, title="Figure 5"))
    elif args.name == "fig6":
        points = run_task_assignment(
            context, args.city, "polar", "deepst", sides=sides, surrogate=True
        )
        rows = [
            [point.num_mgrids, point.metrics.served_orders, round(point.metrics.total_revenue, 1)]
            for point in points
        ]
        print(format_table(["n", "served orders", "revenue"], rows, title="Figure 6"))
    elif args.name == "table3":
        rows_data = table3_promotion(context, city=args.city, sides=sides)
        rows = [
            [row.algorithm, row.metric, f"{100 * row.improvement_ratio:.2f}%"]
            for row in rows_data
        ]
        print(format_table(["algorithm", "metric", "improvement"], rows, title="Table III"))
    elif args.name == "table4":
        _, summaries = evaluate_search_algorithms(
            context, args.city, slots=context.config.case_study_slots, surrogate=True
        )
        rows = [
            [s.algorithm, round(s.cost_seconds, 3), f"{100 * s.probability_optimal:.1f}%"]
            for s in summaries
        ]
        print(format_table(["algorithm", "cost (s)", "probability"], rows, title="Table IV"))
    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(f"unknown experiment {args.name!r}")
    return 0


def _csv(text: str) -> List[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


def _run_suite(
    args: argparse.Namespace,
    run: Callable[..., Any],
    noun: str,
    title: str,
    columns: Dict[str, Callable[[Any], Any]],
    **kwargs: Any,
) -> int:
    """Run one cached suite; print its table (``columns`` + seconds/cache) and footer."""
    cache_dir = None if args.cache_dir.lower() == "none" else args.cache_dir
    try:
        report = run(
            profile=args.profile, cache_dir=cache_dir, max_workers=args.workers, **kwargs
        )
    except (ValueError, OSError) as exc:
        # OSError covers unusable cache directories (e.g. the path exists
        # as a regular file) surfacing from ResultCache.
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    rows = [
        [value(o) for value in columns.values()]
        + [round(o.seconds, 3), "hit" if o.from_cache else "miss"]
        for o in report.outcomes
    ]
    print(format_table([*columns, "seconds", "cache"], rows, title=title))
    print(
        f"{len(report.outcomes)} {noun} in {report.seconds:.2f}s "
        f"({report.cache_hits} cache hits, {report.cache_misses} misses)"
    )
    if cache_dir is not None:
        print(f"result cache: {cache_dir}")
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    columns = {
        "city": lambda o: o.task.city,
        "model": lambda o: o.task.model,
        "slot": lambda o: o.task.slot,
        "grid": lambda o: f"{o.result.best_side}x{o.result.best_side}",
        "upper bound": lambda o: round(o.upper_bound, 2),
        "evals": lambda o: o.result.evaluations,
    }
    return _run_suite(
        args,
        run_city_sweep,
        "searches",
        f"OGSS sweep ({args.algorithm}, profile={args.profile})",
        columns,
        cities=[resolve_city(name) for name in _csv(args.preset)],
        models=_csv(args.models),
        slots=args.slots,
        algorithm=args.algorithm,
    )


def _command_dispatch(args: argparse.Namespace) -> int:
    columns = {
        "city": lambda o: o.scenario.city,
        "policy": lambda o: o.scenario.policy,
        "fleet": lambda o: o.scenario.fleet_size,
        "demand": lambda o: f"{o.scenario.demand_scale:g}x",
        "seed": lambda o: o.scenario.seed,
        "roster": lambda o: o.scenario.fleet_profile,
        "days": lambda o: o.scenario.test_days,
        "served": lambda o: o.metrics.served_orders,
        "cancelled": lambda o: o.metrics.cancelled_orders,
        "orders": lambda o: o.metrics.total_orders,
        "rate": lambda o: f"{100 * o.metrics.service_rate:.1f}%",
        "revenue": lambda o: round(o.metrics.total_revenue, 1),
    }
    return _run_suite(
        args,
        run_dispatch_suite,
        "scenarios",
        f"Dispatch scenario suite ({args.engine} engine, profile={args.profile})",
        columns,
        cities=_csv(args.preset),
        policies=_csv(args.policies),
        fleet_sizes=args.fleet_sizes,
        demand_scales=args.demand_scales,
        seeds=args.seeds,
        engine=args.engine,
        matching=args.matching,
        executor=args.executor,
        sparse=args.sparse,
        guidance=args.guidance,
        scenario_family=args.scenario,
        test_days=args.test_days,
        fleet_profile=args.fleet_profile,
        max_wait_minutes=args.max_wait,
    )


def _command_predict(args: argparse.Namespace) -> int:
    hyper = []
    if args.epochs is not None:
        hyper.append(("epochs", args.epochs))
    if args.max_train_samples is not None:
        hyper.append(("max_train_samples", args.max_train_samples))
    columns = {
        "city": lambda o: o.scenario.city,
        "model": lambda o: o.scenario.model,
        "grid": lambda o: f"{o.scenario.resolution}x{o.scenario.resolution}",
        "seed": lambda o: o.scenario.seed,
        "mae": lambda o: round(o.mae, 3),
        "rmse": lambda o: round(o.rmse, 3),
        "epochs": lambda o: o.epochs_run,
        "best": lambda o: "-" if o.best_epoch is None else o.best_epoch + 1,
    }
    return _run_suite(
        args,
        run_prediction_suite,
        "predictors",
        f"Predictor suite ({args.executor} executor, profile={args.profile})",
        columns,
        cities=_csv(args.preset),
        models=_csv(args.models),
        resolutions=args.resolutions,
        seeds=args.seeds,
        executor=args.executor,
        hyper=tuple(hyper),
    )


def _replay_world(path: str, bug: Optional[str]) -> int:
    import json

    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    expect = "identical"
    note = ""
    if "world" in payload:
        expect = payload.get("expect", "identical")
        note = payload.get("note", "")
        payload = payload["world"]
    world = FuzzWorld.from_payload(payload)
    result = run_differential(world, bug=bug)
    print(f"replay: {path}")
    if note:
        print(f"note: {note}")
    print(
        f"world: policy={world.policy} orders={world.order_count} "
        f"drivers={world.driver_count} days={world.days} [{world.canonical_key()[:12]}]"
    )
    print(f"verdict: {result.verdict} (expected: {expect})")
    for divergence in result.divergences:
        flavour = "benign tie" if divergence.benign_tie else "DIVERGENT"
        print(f"  {divergence.mode}: {flavour} — {divergence.detail}")
    return 1 if result.failed else 0


def _command_fuzz(args: argparse.Namespace) -> int:
    try:
        if args.replay is not None:
            return _replay_world(args.replay, args.inject_bug)
        samples = args.samples
        if samples is None and args.budget is None:
            samples = 100
        policies = tuple(
            name.strip() for name in args.policies.split(",") if name.strip()
        )
        config = GeneratorConfig(policies=policies)
        report = run_campaign(
            seed=args.seed,
            samples=samples,
            budget_seconds=args.budget,
            config=config,
            bug=args.inject_bug,
            shrink=not args.no_shrink,
            max_shrink_evals=args.max_shrink_evals,
        )
    except (ValueError, OSError) as exc:
        print(f"repro fuzz: {exc}", file=sys.stderr)
        return 2
    print(
        f"fuzz campaign: seed={report.seed} samples={report.samples_run} "
        f"policies={','.join(policies)}"
        + (f" bug={report.bug}" if report.bug else "")
    )
    print(
        f"{report.ok} ok, {len(report.benign_ties)} benign tie(s), "
        f"{len(report.failures)} failure(s)"
    )
    for record in report.benign_ties:
        modes = ",".join(d["mode"] for d in record.divergences)
        print(
            f"  benign tie: sample {record.index} [{record.world_key[:12]}] "
            f"{record.label} ({modes})"
        )
    repro_dir = None if args.repro_dir.lower() == "none" else args.repro_dir
    for record in report.failures:
        modes = ",".join(d["mode"] for d in record.divergences)
        line = (
            f"  FAILURE: sample {record.index} [{record.world_key[:12]}] "
            f"{record.label} ({modes})"
        )
        if record.shrunk_world is not None:
            shrunk = record.shrunk_world
            orders = sum(len(day) for day in shrunk["orders_per_day"])
            line += (
                f" -> shrunk to {orders} order(s) / {len(shrunk['drivers'])} "
                f"driver(s) / {len(shrunk['orders_per_day'])} day(s)"
            )
        print(line)
        for divergence in record.divergences:
            print(f"    {divergence['mode']}: {divergence['detail']}")
    if report.failures and repro_dir is not None:
        import os

        os.makedirs(repro_dir, exist_ok=True)
        for record in report.failures:
            payload = {
                "schema": 1,
                "expect": "identical",
                "note": f"fuzz seed={report.seed} sample={record.index}: {record.label}",
                "world": record.shrunk_world,
            }
            if report.bug:
                payload["bug"] = report.bug
            path = os.path.join(
                repro_dir, f"fuzz-{report.seed}-{record.index}.json"
            )
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(canonical_json(payload))
            print(f"  repro written: {path}")
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(report.to_payload()))
        print(f"report written: {args.report}")
    return 1 if report.failed else 0


def _service_scenario(args: argparse.Namespace):
    from repro.dispatch.scenarios import DispatchScenario

    return DispatchScenario(
        city=resolve_city(args.preset.strip()),
        policy=args.policy,
        matching=args.matching,
        fleet_size=args.fleet_size,
        demand_scale=args.demand_scale,
        seed=args.seed,
        slots=tuple(args.slots) if args.slots is not None else None,
    )


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service import (
        DispatchService,
        ServiceConfig,
        ServiceFailedError,
        serve_http,
    )

    try:
        if args.recover:
            if args.ingest_log is None:
                raise ValueError("--recover requires --ingest-log (the WAL to replay)")
            service = DispatchService.recover(
                args.ingest_log,
                sparse=None if args.sparse == "auto" else args.sparse,
                max_batch=args.max_batch,
                cadence_seconds=args.cadence,
                max_pending=args.max_pending,
                fsync_ingest=args.fsync_ingest,
            )
            scenario = service.config.scenario
        else:
            scenario = _service_scenario(args)
            config = ServiceConfig(
                scenario=scenario,
                sparse=args.sparse,
                max_batch=args.max_batch,
                cadence_seconds=args.cadence,
                ingest_log=args.ingest_log,
                max_pending=args.max_pending,
                fsync_ingest=args.fsync_ingest,
            )
            service = DispatchService(config).start()
        server = serve_http(service, host=args.host, port=args.port)
    except (ValueError, OSError) as exc:
        # OSError covers an already-bound port (EADDRINUSE) and unwritable
        # ingest-log paths.
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    print(f"serving {scenario.label} at http://{host}:{port}")
    print("routes: POST /orders /drain   GET /healthz /stats")
    if args.ingest_log is not None:
        print(f"ingest log: {args.ingest_log}")
    if args.recover:
        print(
            f"recovered {service.recovered_orders} order(s) from the WAL"
            + (" (truncated final record discarded)" if service.recovered_truncated else "")
        )
    try:
        # Run until a client drains us over HTTP, --drain-after elapses, or
        # the match loop fails (terminal covers both drained and failed).
        if not service.terminal.wait(timeout=args.drain_after):
            service.drain()
        report = service.drain()
    except KeyboardInterrupt:
        report = service.drain()
    except ServiceFailedError as exc:
        print(f"repro serve: SERVICE FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        server.shutdown()
    print(
        f"drained: {report.orders_admitted} admitted, {report.assigned} assigned, "
        f"{report.cancelled} cancelled, {report.unserved} unserved, "
        f"{report.orders_shed} shed "
        f"({report.orders_per_sec:.1f} orders/s sustained, "
        f"p50 {report.latency_p50_ms:.1f} ms, p99 {report.latency_p99_ms:.1f} ms)"
    )
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(report.to_payload()))
        print(f"report written: {args.report}")
    return 0


def _command_loadgen(args: argparse.Namespace) -> int:
    from repro.experiments.service_load import run_service_load
    from repro.service import AdmissionError, HttpClient
    from repro.service.loadgen import MALFORMED_ORDER, parse_schedule

    try:
        if args.send_malformed:
            if args.url is None:
                raise ValueError("--send-malformed requires --url")
            try:
                HttpClient(args.url).submit(MALFORMED_ORDER)
            except AdmissionError as exc:
                print(f"repro loadgen: malformed order rejected: {exc}", file=sys.stderr)
                return 2
            print(
                "repro loadgen: malformed order was ACCEPTED; "
                "the admission validator is broken",
                file=sys.stderr,
            )
            return 1
        scenario = _service_scenario(args)
        if args.schedule is not None:
            phases = parse_schedule(args.schedule)
        else:
            phases = parse_schedule(f"{args.rate:g}:{args.duration:g}")
        report = run_service_load(
            scenario,
            phases,
            repeat_days=args.repeat_days,
            max_orders=args.max_orders,
            ingest_log=args.ingest_log,
            max_batch=args.max_batch,
            cadence_seconds=args.cadence,
            sparse=args.sparse,
            url=args.url,
            check_replay=not args.no_replay,
            max_pending=args.max_pending,
            retries=args.retries,
        )
    except (ValueError, OSError) as exc:
        # OSError includes ServiceUnavailableError: a dead or unreachable
        # --url endpoint is an environment problem, exit 2 with one line.
        print(f"repro loadgen: {exc}", file=sys.stderr)
        return 2
    service = report["service"]
    metrics = service["metrics"]
    print(
        f"loadgen: {report['orders_offered']} orders offered at "
        f"{report['loadgen']['offered_rate']:.1f}/s "
        f"({len(report['phases'])} phase(s), {args.repeat_days} day(s))"
    )
    print(
        f"service: {service['orders_admitted']} admitted, "
        f"{service['assigned']} assigned, {service['cancelled']} cancelled, "
        f"{service['unserved']} unserved; {service['orders_per_sec']:.1f} "
        f"orders/s sustained, p50 {service['latency_p50_ms']:.1f} ms, "
        f"p99 {service['latency_p99_ms']:.1f} ms, "
        f"max pending {service['max_pending']}"
    )
    shed = report["loadgen"].get("orders_shed", 0)
    retries = report["loadgen"].get("retries", 0)
    if shed or retries:
        print(f"backpressure: {shed} shed, {retries} client retries")
    print(
        f"metrics: served={metrics['served_orders']} "
        f"cancelled={metrics['cancelled_orders']} "
        f"revenue={metrics['total_revenue']:.2f} "
        f"unified_cost={metrics['unified_cost']:.2f}"
    )
    failures = []
    if "replay" in report:
        equal = report["replay"]["replay_equal"]
        print(f"replay: offline metrics {'MATCH bit-for-bit' if equal else 'DIVERGE'}")
        if args.assert_replay and not equal:
            failures.append("ingest-log replay metrics diverge from the live run")
    elif args.assert_replay:
        failures.append("--assert-replay needs an ingest log (--ingest-log)")
    if (
        args.assert_max_pending is not None
        and service["max_pending"] > args.assert_max_pending
    ):
        failures.append(
            f"pending backlog peaked at {service['max_pending']} orders "
            f"(limit {args.assert_max_pending}); unbounded growth"
        )
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(report))
        print(f"report written: {args.report}")
    for failure in failures:
        print(f"LOADGEN FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _command_chaos(args: argparse.Namespace) -> int:
    from repro.service.chaos import run_campaign as run_chaos_campaign

    try:
        report = run_chaos_campaign(
            seed=args.seed,
            samples=args.samples,
            bug=args.inject_bug,
            stream_orders=args.stream_orders,
            max_batch=args.max_batch,
            on_progress=lambda sample: print(
                f"  sample {sample.index} [{sample.kind}]: {sample.verdict}"
            ),
        )
    except (ValueError, OSError) as exc:
        print(f"repro chaos: {exc}", file=sys.stderr)
        return 2
    print(
        f"chaos campaign: seed={report.seed} samples={report.samples_run}"
        + (f" bug={report.bug}" if report.bug else "")
    )
    print(f"{report.ok} ok, {len(report.failures)} divergent")
    for sample in report.failures:
        failed = ",".join(
            name for name, passed in sample.checks.items() if not passed
        )
        print(f"  FAILURE: sample {sample.index} [{sample.kind}]: {failed}")
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(report.to_payload()))
        print(f"report written: {args.report}")
    return 1 if report.failed else 0


def _command_lint(args: argparse.Namespace) -> int:
    from repro.lint.runner import run_from_args

    return run_from_args(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "tune":
        return _command_tune(args)
    if args.command == "curve":
        return _command_curve(args)
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "dispatch":
        return _command_dispatch(args)
    if args.command == "predict":
        return _command_predict(args)
    if args.command == "fuzz":
        return _command_fuzz(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "loadgen":
        return _command_loadgen(args)
    if args.command == "chaos":
        return _command_chaos(args)
    if args.command == "lint":
        return _command_lint(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
