"""Layer shims for the traced run, and the per-layer metrics they feed.

Every shim wraps a public entry point of one layer where its caller looks it
up, so the program's own code is untouched.  :func:`install` wraps every
layer at once: a workload that bypasses a layer reports zero for it, which is
how the trace shows that ``serve_http`` never takes the sparse pipeline and
``ogss_sweep`` never dispatches.  The one private seam is
``VectorizedAssignmentEngine._match_sparse`` — the sparse batch itself, which
has no public entry point — and the service's match-loop thread target,
whose lifetime is the denominator of ``server.loop_busy_frac``.
"""

from __future__ import annotations

import statistics
import threading
from typing import Any, Callable, Dict, List

from tracer import Patcher, Tracer

#: ``name -> (unit, better)`` of every per-layer metric, in report order.
LAYER_METRICS: Dict[str, tuple] = {
    "data.synth_s": ("s", "lower"),
    "data.synth_calls": ("count", "lower"),
    "data.alpha_s": ("s", "lower"),
    "data.alpha_calls": ("count", "lower"),
    "data.counts_s": ("s", "lower"),
    "data.counts_calls": ("count", "lower"),
    "prediction.fit_s": ("s", "lower"),
    "prediction.predict_s": ("s", "lower"),
    "core.expression_s": ("s", "lower"),
    "core.expression_calls": ("count", "lower"),
    "core.evaluations": ("count", "lower"),
    "core.upper_bound_s": ("s", "lower"),
    "core.search_self_s": ("s", "lower"),
    "sweep.cache_get_s": ("s", "lower"),
    "sweep.cache_put_s": ("s", "lower"),
    "sweep.cache_hits": ("count", "higher"),
    "sweep.cache_misses": ("count", "lower"),
    "sweep.self_s": ("s", "lower"),
    "engine.run_s": ("s", "lower"),
    "engine.self_s": ("s", "lower"),
    "engine.sparse_batches": ("count", "lower"),
    "spatial.index_s": ("s", "lower"),
    "spatial.gather_s": ("s", "lower"),
    "spatial.candidate_pairs": ("count", "lower"),
    "travel.distance_s": ("s", "lower"),
    "travel.pairwise_s": ("s", "lower"),
    "matching.edges": ("count", "lower"),
    "matching.components": ("count", "lower"),
    "matching.star_components": ("count", "lower"),
    "matching.components_s": ("s", "lower"),
    "matching.block_solves": ("count", "lower"),
    "matching.block_cells": ("count", "lower"),
    "matching.block_solve_s": ("s", "lower"),
    "matching.lsa_s": ("s", "lower"),
    "http.request_ms": ("ms", "lower"),
    "http.connections": ("count", "lower"),
    "http.handler_s": ("s", "lower"),
    "scheduler.submit_s": ("s", "lower"),
    "scheduler.take_wait_s": ("s", "lower"),
    "scheduler.batch_orders": ("orders", "higher"),
    "ingest.append_s": ("s", "lower"),
    "ingest.appends": ("count", "lower"),
    "ingest.bytes": ("bytes", "lower"),
    "session.admit_s": ("s", "lower"),
    "session.advance_s": ("s", "lower"),
    "server.loop_busy_frac": ("frac", "lower"),
    "loadgen.late_ms": ("ms", "lower"),
    "loadgen.late_max_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every layer's entry points (idempotent per ``patcher.restore``)."""
    _install_data_core_sweep(tracer, patcher)
    _install_dispatch(tracer, patcher)
    _install_service(tracer, patcher)


def _install_data_core_sweep(tracer: Tracer, patcher: Patcher) -> None:
    from repro.core.upper_bound import UpperBoundEvaluator
    from repro.data.dataset import EventDataset
    from repro.sweep import runner as runner_mod
    from repro.utils.cache import ResultCache

    patcher.timed(tracer, EventDataset, "from_city", "data.synth")
    patcher.timed(tracer, EventDataset, "alpha", "data.alpha")
    patcher.timed(tracer, EventDataset, "counts", "data.counts")
    patcher.timed(tracer, runner_mod, "run_search", "core.search")
    patcher.timed(tracer, runner_mod.SweepRunner, "run", "sweep.run", adopt=True)
    patcher.timed(
        tracer,
        ResultCache,
        "get",
        "sweep.cache_get",
        after=lambda args, result: tracer.count(
            "sweep.cache_misses" if result is None else "sweep.cache_hits"
        ),
    )
    patcher.timed(tracer, ResultCache, "put", "sweep.cache_put")

    import repro.core.upper_bound as upper_bound_mod

    patcher.timed(tracer, upper_bound_mod, "total_expression_error", "core.expression")

    def make_evaluate_side(original: Callable) -> Callable:
        def traced(evaluator: Any, mgrid_side: int) -> Any:
            if int(mgrid_side) not in evaluator.cached_results():
                tracer.count("core.evaluations")
            with tracer.span("core.upper_bound"):
                return original(evaluator, mgrid_side)

        return traced

    patcher.wrap(UpperBoundEvaluator, "evaluate_side", make_evaluate_side)

    def make_factory(original: Callable) -> Callable:
        def traced_factory(name: str, **kwargs: Any) -> Callable:
            factory = original(name, **kwargs)

            def build() -> Any:
                model = factory()
                fit, predict = model.fit, model.predict

                def traced_fit(*args: Any, **kw: Any) -> Any:
                    with tracer.span("prediction.fit"):
                        return fit(*args, **kw)

                def traced_predict(*args: Any, **kw: Any) -> Any:
                    with tracer.span("prediction.predict"):
                        return predict(*args, **kw)

                model.fit, model.predict = traced_fit, traced_predict
                return model

            return build

        return traced_factory

    patcher.wrap(runner_mod, "model_factory", make_factory)


def _install_dispatch(tracer: Tracer, patcher: Patcher) -> None:
    from repro.dispatch import engine as engine_mod
    from repro.dispatch import matching as matching_mod
    from repro.dispatch.polar import POLARDispatcher
    from repro.dispatch.spatial import GridBucketIndex
    from repro.dispatch.travel import TravelModel

    in_sparse = threading.local()
    engine_cls = engine_mod.VectorizedAssignmentEngine
    patcher.timed(tracer, engine_cls, "run", "engine.run")

    def make_sparse(original: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            in_sparse.active = True
            try:
                with tracer.span("engine.sparse_batch"):
                    return original(*args, **kwargs)
            finally:
                in_sparse.active = False

        return traced

    patcher.wrap(engine_cls, "_match_sparse", make_sparse)
    patcher.timed(tracer, engine_mod, "GridBucketIndex", "spatial.index")
    patcher.timed(
        tracer,
        GridBucketIndex,
        "candidates_in_boxes",
        "spatial.gather",
        after=lambda args, pairs: tracer.count("spatial.candidate_pairs", pairs[0].size),
    )
    patcher.timed(tracer, TravelModel, "distance_km", "travel.distance")
    patcher.timed(tracer, TravelModel, "pairwise_km", "travel.pairwise")

    def count_components(args: tuple, components: List) -> None:
        tracer.count("matching.edges", len(args[0]))
        tracer.count("matching.components", len(components))
        tracer.count(
            "matching.star_components",
            sum(1 for rows, cols in components if rows.size == 1 or cols.size == 1),
        )

    patcher.timed(
        tracer, engine_mod, "edge_components", "matching.components", after=count_components
    )

    def make_match_pairs(original: Callable) -> Callable:
        def traced(policy: Any, distance: Any, *args: Any, **kwargs: Any) -> Any:
            if not getattr(in_sparse, "active", False):
                with tracer.span("matching.dense_solve"):
                    return original(policy, distance, *args, **kwargs)
            tracer.count("matching.block_solves")
            tracer.count("matching.block_cells", distance.size)
            with tracer.span("matching.block_solve"):
                return original(policy, distance, *args, **kwargs)

        return traced

    patcher.wrap(POLARDispatcher, "match_pairs", make_match_pairs)
    patcher.timed(tracer, matching_mod, "linear_sum_assignment", "matching.lsa")


def _install_service(tracer: Tracer, patcher: Patcher) -> None:
    from repro.dispatch.engine import DispatchSession
    from repro.service import server as server_mod
    from repro.service.ingest import IngestLogWriter
    from repro.service.scheduler import AdmissionScheduler

    patcher.timed(tracer, server_mod.ServiceHTTPServer, "finish_request", "http.connection")

    def make_post(original: Callable) -> Callable:
        def traced(handler: Any) -> Any:
            if handler.path != "/orders":
                return original(handler)
            with tracer.span("http.request"):
                return original(handler)

        return traced

    patcher.wrap(server_mod._ServiceHandler, "do_POST", make_post)
    patcher.timed(tracer, AdmissionScheduler, "submit", "scheduler.submit")

    def count_batch(args: tuple, batch: Any) -> None:
        if batch:
            tracer.count("scheduler.batches")
            tracer.count("scheduler.batched_orders", len(batch))

    patcher.timed(tracer, AdmissionScheduler, "take", "scheduler.take", after=count_batch)
    patcher.timed(tracer, IngestLogWriter, "append", "ingest.append")
    patcher.timed(tracer, DispatchSession, "admit", "session.admit")
    patcher.timed(tracer, DispatchSession, "advance", "session.advance")
    patcher.timed(tracer, server_mod.DispatchService, "_loop", "server.loop")


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics this process's spans and counters give."""
    summary = tracer.summary()
    counters = tracer.counters

    def total(name: str) -> float:
        return summary.get(name, {}).get("total_s", 0.0)

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return summary.get(name, {}).get("calls", 0)

    requests = tracer.durations("http.request")
    loop_s = total("server.loop")
    batches = counters.get("scheduler.batches", 0)
    return {
        "data.synth_s": total("data.synth"),
        "data.synth_calls": calls("data.synth"),
        "data.alpha_s": total("data.alpha"),
        "data.alpha_calls": calls("data.alpha"),
        "data.counts_s": total("data.counts"),
        "data.counts_calls": calls("data.counts"),
        "prediction.fit_s": total("prediction.fit"),
        "prediction.predict_s": total("prediction.predict"),
        "core.expression_s": total("core.expression"),
        "core.expression_calls": calls("core.expression"),
        "core.evaluations": counters.get("core.evaluations", 0),
        "core.upper_bound_s": total("core.upper_bound"),
        "core.search_self_s": self_s("core.search"),
        "sweep.cache_get_s": total("sweep.cache_get"),
        "sweep.cache_put_s": total("sweep.cache_put"),
        "sweep.cache_hits": counters.get("sweep.cache_hits", 0),
        "sweep.cache_misses": counters.get("sweep.cache_misses", 0),
        "sweep.self_s": self_s("sweep.run"),
        "engine.run_s": total("engine.run"),
        "engine.self_s": self_s("engine.run") + self_s("engine.sparse_batch"),
        "engine.sparse_batches": calls("engine.sparse_batch"),
        "spatial.index_s": total("spatial.index"),
        "spatial.gather_s": total("spatial.gather"),
        "spatial.candidate_pairs": counters.get("spatial.candidate_pairs", 0),
        "travel.distance_s": total("travel.distance"),
        "travel.pairwise_s": total("travel.pairwise"),
        "matching.edges": counters.get("matching.edges", 0),
        "matching.components": counters.get("matching.components", 0),
        "matching.star_components": counters.get("matching.star_components", 0),
        "matching.components_s": total("matching.components"),
        "matching.block_solves": counters.get("matching.block_solves", 0),
        "matching.block_cells": counters.get("matching.block_cells", 0),
        "matching.block_solve_s": total("matching.block_solve"),
        "matching.lsa_s": total("matching.lsa"),
        "http.request_ms": 1000.0 * statistics.median(requests) if requests else 0.0,
        "http.connections": calls("http.connection"),
        "http.handler_s": total("http.request"),
        "scheduler.submit_s": total("scheduler.submit"),
        "scheduler.take_wait_s": total("scheduler.take"),
        "scheduler.batch_orders": (
            counters.get("scheduler.batched_orders", 0) / batches if batches else 0.0
        ),
        "ingest.append_s": total("ingest.append"),
        "ingest.appends": calls("ingest.append"),
        "ingest.bytes": 0.0,  # the service launcher sets it from the WAL's size
        "session.admit_s": total("session.admit"),
        "session.advance_s": total("session.advance"),
        "server.loop_busy_frac": (
            (loop_s - total("scheduler.take")) / loop_s if loop_s > 0 else 0.0
        ),
    }

