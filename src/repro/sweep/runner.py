"""Parallel, cached OGSS sweep runner.

A sweep is a cross-product of (city preset x prediction model x time slot)
combinations, each of which runs one OGSS search (Algorithms 4/5 or brute
force) against its own :class:`~repro.core.upper_bound.UpperBoundEvaluator`.
The runner exploits three levels of sharing:

1. **Datasets** — each unique (city, scale, days, seed) dataset is generated
   once and shared by every task that uses it.
2. **Model errors** — tasks that differ only in their alpha slot share a
   :class:`SingleFlightModelErrorCache` (see
   :attr:`repro.core.upper_bound.UpperBoundEvaluator.model_error_cache`)
   whose per-side locks make concurrent cold starts wait for the first
   training instead of repeating it, so a 48-slot sweep trains each
   candidate side once, not 48 times.
3. **Results** — finished searches are persisted as canonical JSON through
   :class:`~repro.utils.cache.ResultCache`; a rerun with identical parameters
   is a cache hit and does no work at all.

The probe, dataset build, fan-out and cache writes are
:class:`~repro.sweep.suite.CachedSuiteRunner`'s; this module defines the
task.  The sweep is thread-only: the hot paths (batched expression errors,
model training) are NumPy-bound and release the GIL for their heavy lifting,
and the model-error caches are shared between threads.  Dict reads/writes are
GIL-atomic and the expensive step — training — is single-flighted per side
through the cache's per-side locks.

Example
-------
>>> tasks = sweep_tasks(cities=["xian_like"], slots=[16, 17], scale=0.004)
>>> report = SweepRunner(tasks, cache_dir="/tmp/gridtuner-cache").run()
>>> report.outcomes[0].result.best_side
4
>>> SweepRunner(tasks, cache_dir="/tmp/gridtuner-cache").run().cache_hits
2
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.search import SearchResult, run_search
from repro.core.upper_bound import UpperBoundEvaluator
from repro.data.dataset import EventDataset
from repro.data.presets import CITY_PRESETS, city_preset
from repro.prediction.registry import available_models, model_factory
from repro.sweep.suite import CachedSuiteReport, CachedSuiteRunner
from repro.utils.cache import ResultCache
from repro.utils.timer import wall_clock
from repro.utils.validation import ensure_perfect_square

#: Bump when the serialised payload layout changes — or when result semantics
#: change — so stale entries miss.  2: the neural trainer now restores
#: best-validation weights, splits its RNG streams and defaults to larger
#: training caps, so model errors cached under schema 1 are not comparable.
_CACHE_SCHEMA = 2


class SingleFlightModelErrorCache(Dict[int, Tuple[float, float]]):
    """Model-error cache with per-side locks for concurrent evaluators.

    :class:`~repro.core.upper_bound.UpperBoundEvaluator` holds the lock
    returned by :meth:`lock_for` around check-train-store, so when many slot
    tasks cold-start in parallel each candidate side is trained exactly once
    and the other tasks wait for (then reuse) that entry.
    """

    def __init__(self) -> None:
        super().__init__()
        self._locks: Dict[int, threading.Lock] = {}
        self._master = threading.Lock()

    def lock_for(self, side: int) -> threading.Lock:
        """The lock serialising training of ``side`` across threads."""
        with self._master:
            return self._locks.setdefault(side, threading.Lock())


@dataclass(frozen=True)
class SweepTask:
    """One OGSS search of the sweep: a (city, model, slot) combination.

    The dataset parameters (``scale``, ``num_days``, ``seed``) are part of the
    task because they determine the synthetic city and therefore the search
    result; two tasks with equal fields are interchangeable, which is exactly
    the property the result cache keys on.
    """

    city: str
    model: str = "historical_average"
    slot: int = 16
    algorithm: str = "iterative"
    hgrid_budget: int = 256
    scale: float = 0.01
    num_days: int = 10
    seed: int = 7
    min_side: int = 2
    search_kwargs: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.city not in CITY_PRESETS:
            raise ValueError(
                f"unknown city preset {self.city!r}; available: {sorted(CITY_PRESETS)}"
            )
        if self.model not in available_models():
            raise ValueError(f"unknown prediction model {self.model!r}")
        ensure_perfect_square(self.hgrid_budget, "hgrid_budget")

    @property
    def label(self) -> str:
        """Human-readable task label."""
        return f"{self.city}/{self.model}/slot{self.slot}"

    @property
    def dataset_signature(self) -> Tuple[str, float, int, int]:
        """Key identifying the synthetic dataset this task runs against."""
        return (self.city, self.scale, self.num_days, self.seed)

    def cache_payload(self) -> Dict[str, Any]:
        """JSON-serialisable parameter mapping that keys the result cache."""
        return {
            "schema": _CACHE_SCHEMA,
            "city": self.city,
            "model": self.model,
            "slot": self.slot,
            "algorithm": self.algorithm,
            "hgrid_budget": self.hgrid_budget,
            "scale": self.scale,
            "num_days": self.num_days,
            "seed": self.seed,
            "min_side": self.min_side,
            "search_kwargs": sorted(
                (str(name), value) for name, value in self.search_kwargs
            ),
        }


@dataclass(frozen=True)
class SweepOutcome:
    """Result of one sweep task, fresh or replayed from the cache."""

    task: SweepTask
    result: SearchResult
    model_error: float
    expression_error: float
    mae: float
    seconds: float
    from_cache: bool

    @property
    def label(self) -> str:
        return self.task.label

    @property
    def upper_bound(self) -> float:
        """``e(sqrt(n))`` at the selected side."""
        return self.model_error + self.expression_error


class SweepReport(CachedSuiteReport[SweepOutcome]):
    """All outcomes of one sweep run plus aggregate bookkeeping."""

    def best_sides(self) -> Dict[Tuple[str, str, int], int]:
        """Mapping ``(city, model, slot) -> selected sqrt(n)``."""
        return {
            (o.task.city, o.task.model, o.task.slot): o.result.best_side
            for o in self.outcomes
        }


def sweep_tasks(
    cities: Sequence[str],
    models: Sequence[str] = ("historical_average",),
    slots: Sequence[int] = (16,),
    **common: Any,
) -> List[SweepTask]:
    """Cross-product task builder: one task per (city, model, slot).

    ``common`` is forwarded to every :class:`SweepTask` (e.g. ``scale``,
    ``num_days``, ``hgrid_budget``, ``algorithm``).

    Example
    -------
    >>> tasks = sweep_tasks(["nyc_like", "xian_like"], slots=[16, 17])
    >>> len(tasks)
    4
    """
    if not cities:
        raise ValueError("at least one city is required")
    if not models:
        raise ValueError("at least one model is required")
    if not slots:
        raise ValueError("at least one slot is required")
    return [
        SweepTask(city=city, model=model, slot=int(slot), **common)
        for city in cities
        for model in models
        for slot in slots
    ]


def _serialise_outcome(outcome: SweepOutcome) -> Dict[str, Any]:
    result = outcome.result
    return {
        "algorithm": result.algorithm,
        "best_side": result.best_side,
        "best_value": result.best_value,
        "evaluations": result.evaluations,
        "probes": {str(side): value for side, value in sorted(result.probes.items())},
        "model_error": outcome.model_error,
        "expression_error": outcome.expression_error,
        "mae": outcome.mae,
    }


def _deserialise_outcome(
    task: SweepTask, payload: Dict[str, Any], seconds: float
) -> SweepOutcome:
    result = SearchResult(
        algorithm=payload["algorithm"],
        best_side=int(payload["best_side"]),
        best_value=float(payload["best_value"]),
        evaluations=int(payload["evaluations"]),
        probes={int(side): float(value) for side, value in payload["probes"].items()},
    )
    return SweepOutcome(
        task=task,
        result=result,
        model_error=float(payload["model_error"]),
        expression_error=float(payload["expression_error"]),
        mae=float(payload["mae"]),
        seconds=seconds,
        from_cache=True,
    )


def _task_dataset(task: SweepTask) -> EventDataset:
    return EventDataset.from_city(
        city_preset(task.city, scale=task.scale), num_days=task.num_days, seed=task.seed
    )


def _search_task(
    task: SweepTask,
    dataset: EventDataset,
    model_error_caches: Dict[Tuple, SingleFlightModelErrorCache],
) -> SweepOutcome:
    """Run one OGSS search; slot variants share a model-error cache."""
    task_start = wall_clock()
    evaluator = UpperBoundEvaluator(
        dataset=dataset,
        model_factory=model_factory(task.model),
        hgrid_budget=task.hgrid_budget,
        alpha_slot=task.slot,
        model_error_cache=model_error_caches.setdefault(
            (task.dataset_signature, task.model, task.hgrid_budget),
            SingleFlightModelErrorCache(),
        ),
    )
    result = run_search(
        task.algorithm,
        evaluator,
        task.hgrid_budget,
        min_side=task.min_side,
        **dict(task.search_kwargs),
    )
    best = evaluator.evaluate_side(result.best_side)
    return SweepOutcome(
        task=task,
        result=result,
        model_error=best.model_error,
        expression_error=best.expression_error,
        mae=best.mae,
        seconds=wall_clock() - task_start,
        from_cache=False,
    )


class SweepRunner(CachedSuiteRunner[SweepTask, SweepOutcome]):
    """Run a batch of :class:`SweepTask` in parallel threads with persistent caching.

    Parameters
    ----------
    tasks:
        The sweep combinations to evaluate.
    cache_dir:
        Directory for the persistent :class:`~repro.utils.cache.ResultCache`;
        ``None`` disables on-disk caching (everything is recomputed).
    max_workers:
        Thread-pool size, ``None`` or at least 1; defaults to
        ``min(misses, cpu_count)``.
    """

    item_name = "sweep task"
    report_type = SweepReport
    serialise = staticmethod(_serialise_outcome)
    deserialise = staticmethod(_deserialise_outcome)
    build_dataset = staticmethod(_task_dataset)

    def __init__(
        self,
        tasks: Iterable[SweepTask],
        cache_dir: Optional[str] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        super().__init__(tasks, cache_dir=cache_dir, max_workers=max_workers)
        self._model_error_caches: Dict[Tuple, SingleFlightModelErrorCache] = {}

    @staticmethod
    def cache_key(task: SweepTask) -> str:
        """Result-cache key of one task."""
        return ResultCache.key_for(task.cache_payload())

    @property
    def compute(self) -> partial:
        return partial(_search_task, model_error_caches=self._model_error_caches)
