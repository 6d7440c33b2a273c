"""``ogss_sweep``: the paper's OGSS pipeline as a user runs ``repro sweep``.

Three cities x two alpha slots at N = 4096 HGrids with the iterative search
(Algorithm 5), two worker threads.  Each cold sweep gets a fresh result-cache
directory, so it synthesises the three datasets and runs every search; the
replays that follow read the same tasks back from that cache.  Data
synthesis and the expression engine do most of the work; dispatch and the
service do none.  Brute-force search is avoided on purpose: at N = 4096 it
peaks near 4 GB of RSS.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import (
    DEFAULT_SEED,
    Outcome,
    median,
    peak_rss_mb,
    probe_setup,
    reference,
    spans_path,
)
from repro.sweep.runner import SweepReport, SweepRunner, SweepTask, sweep_tasks
from tracer import Patcher, Tracer

import shims

CITIES = ("nyc_like", "chengdu_like", "xian_like")
SLOTS = (16, 36)
TASK_PARAMS = dict(scale=0.05, num_days=21, hgrid_budget=4096, algorithm="iterative")
WORKERS = 2
#: Cache replays after each cold sweep (reported as ``replay_p50_ms``).
REPLAYS = 5


def build_tasks(seed: int) -> List[SweepTask]:
    return sweep_tasks(list(CITIES), slots=list(SLOTS), seed=seed, **TASK_PARAMS)


def _signature(report: SweepReport) -> List[Tuple]:
    """Everything a sweep outcome carries except its wall time and origin."""
    return [
        (
            o.task.city,
            o.task.slot,
            o.result.best_side,
            o.result.best_value,
            o.result.evaluations,
            tuple(sorted(o.result.probes.items())),
            o.model_error,
            o.expression_error,
            o.mae,
        )
        for o in report.outcomes
    ]


def _best_sides(report: SweepReport) -> Dict[str, int]:
    return {
        f"{city}/{model}/{slot}": side
        for (city, model, slot), side in sorted(report.best_sides().items())
    }


def _cycle(
    tasks: List[SweepTask], workdir: Path, out: Outcome, replays: int
) -> Tuple[float, List[float], SweepReport]:
    """One cold sweep into a fresh cache, then ``replays`` cache replays."""
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    try:
        start = time.perf_counter()
        cold = SweepRunner(tasks, cache_dir=cache_dir, max_workers=WORKERS).run()
        cold_s = time.perf_counter() - start
        out.attempted += len(tasks)
        out.check(cold.cache_misses == len(tasks), f"cold sweep hit the cache {cold.cache_hits}x")
        replay_s = []
        for _ in range(replays):
            start = time.perf_counter()
            replay = SweepRunner(tasks, cache_dir=cache_dir, max_workers=WORKERS).run()
            replay_s.append(time.perf_counter() - start)
            out.attempted += len(tasks)
            out.check(
                replay.cache_hits == len(tasks),
                f"replay had {replay.cache_hits}/{len(tasks)} cache hits",
            )
            out.check(
                _signature(replay) == _signature(cold), "replay outcomes differ from the cold sweep"
            )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return cold_s, replay_s, cold


def _check_cold(out: Outcome, seed: int, first: SweepReport, cold: SweepReport) -> None:
    out.check(_signature(cold) == _signature(first), "cold sweeps disagree with each other")
    if seed == DEFAULT_SEED:
        expected = reference()["ogss_sweep"]["best_sides"]
        out.check(_best_sides(cold) == expected, f"selected sides {_best_sides(cold)} != reference")


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    out = Outcome()
    setup = probe_setup("ogss_sweep", seed)
    tasks = build_tasks(seed)
    cold_times: List[float] = []
    replay_times: List[float] = []
    first = None
    began = time.perf_counter()
    while len(cold_times) < 2 or time.perf_counter() - began < seconds:
        cold_s, replay_s, cold = _cycle(tasks, workdir, out, REPLAYS)
        first = first or cold
        _check_cold(out, seed, first, cold)
        cold_times.append(cold_s)
        replay_times.extend(replay_s)
        if trace and len(cold_times) == 2:
            break  # the second untraced sweep is the overhead baseline
    if trace:
        tracer, patcher = Tracer(), Patcher()
        shims.install(tracer, patcher)
        try:
            traced_s, _, cold = _cycle(tasks, workdir, out, 1)
        finally:
            patcher.restore()
        _check_cold(out, seed, first, cold)
        out.layers = shims.layer_metrics(tracer)
        out.layers["trace.overhead_ms"] = 1000.0 * (traced_s - cold_times[-1])
        out.layers["trace.overhead_frac"] = traced_s / cold_times[-1] - 1.0
        tracer.dump(spans_path("ogss_sweep", seed))

    # Best of the cold sweeps: the host's speed swings by up to ~30 % between
    # seconds, and contention only ever slows a sweep down.
    sweep_s = min(cold_times)
    out.end_to_end = {
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_ms": 1000.0 * sweep_s,
        "throughput_per_s": len(tasks) / sweep_s,
    }
    out.name("setup_s", median(setup), "s")
    out.name("peak_rss_mb", peak_rss_mb(), "MB")
    out.name("sweep_s", sweep_s, "s")
    out.name("replay_p50_ms", 1000.0 * median(replay_times), "ms")
    out.notes.append(
        f"cold sweeps {[round(c, 3) for c in cold_times]} s of {len(tasks)} tasks, "
        f"{len(replay_times)} cache replays; setup samples {[round(s, 3) for s in setup]}"
    )
    return out
