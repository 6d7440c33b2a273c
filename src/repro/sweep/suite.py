"""One cached, parallel runner behind every suite: sweep, dispatch, predict.

``repro sweep`` (OGSS searches), ``repro dispatch`` (dispatch scenarios) and
``repro predict`` (predictor trainings) each run a batch of independent,
deterministic *items* and memoise every result in a
:class:`~repro.utils.cache.ResultCache`.  :class:`CachedSuiteRunner` owns
that flow once:

1. **Probe** — each item's cache entry is read exactly once, on the calling
   thread; a hit is deserialised (and timed) right there.
2. **Build** — on the thread backend, every dataset signature with at least
   one miss is generated once, serially, before the fan-out, and shared by
   all the items that use it.
3. **Fan out** — misses run one per item on a thread pool, or one task per
   :meth:`~CachedSuiteRunner.group_key` on a process pool whose workers keep
   a small per-process dataset memo.
4. **Put** — each miss's entry is written from the calling thread, in item
   order, as its result arrives.  The cache has a single writer, so its
   bytes depend on neither the backend nor the worker count.

Each suite subclasses the runner with its task definition (see
:class:`CachedSuiteRunner`).
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generic, Hashable, Iterable, Iterator, List, Optional
from typing import Tuple, TypeVar

from repro.utils.cache import ResultCache
from repro.utils.timer import wall_clock

ItemT = TypeVar("ItemT")
OutcomeT = TypeVar("OutcomeT")

#: Per-worker-process dataset memo, keyed by ``(build_dataset, signature)``.
#: ProcessPoolExecutor workers are long-lived, so each process generates a
#: dataset signature at most once no matter how many items it computes;
#: capped to stay small.
_WORKER_DATASETS: Dict[Tuple[Callable, Hashable], Any] = {}
_WORKER_DATASET_CAP = 8


def _worker_dataset(build_dataset: Callable[[Any], Any], item: Any) -> Any:
    key = (build_dataset, item.dataset_signature)
    dataset = _WORKER_DATASETS.get(key)
    if dataset is None:
        dataset = build_dataset(item)
        if len(_WORKER_DATASETS) >= _WORKER_DATASET_CAP:
            _WORKER_DATASETS.pop(next(iter(_WORKER_DATASETS)))
        _WORKER_DATASETS[key] = dataset
    return dataset


def _compute_group(
    compute: Callable[[Any, Any], Any],
    build_dataset: Callable[[Any], Any],
    items: List[Any],
) -> List[Any]:
    """Process-pool worker: compute one group of items, in group order.

    Module-level (picklable) on purpose; ``compute`` arrives with a fresh
    copy of the suite's per-run context, shared by the group only.
    """
    return [compute(item, _worker_dataset(build_dataset, item)) for item in items]


@dataclass(frozen=True)
class CachedSuiteReport(Generic[OutcomeT]):
    """All outcomes of one suite run plus aggregate bookkeeping."""

    outcomes: Tuple[OutcomeT, ...]
    seconds: float

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.from_cache)

    @property
    def cache_misses(self) -> int:
        return len(self.outcomes) - self.cache_hits

    def by_label(self) -> Dict[str, OutcomeT]:
        """Mapping ``item label -> outcome``."""
        return {outcome.label: outcome for outcome in self.outcomes}


class CachedSuiteRunner(Generic[ItemT, OutcomeT]):
    """Run a batch of cached items on a thread or process pool.

    Parameters
    ----------
    items:
        The suite points to compute; each has a ``dataset_signature``.
    cache_dir:
        Directory for the persistent :class:`~repro.utils.cache.ResultCache`;
        ``None`` disables on-disk caching (everything is recomputed).
    max_workers:
        Pool size, ``None`` or at least 1; defaults to
        ``min(misses, cpu_count)`` for threads and ``min(groups, cpu_count)``
        for processes.
    executor:
        ``"thread"`` (default) or ``"process"``.

    A suite defines ``cache_key(item)``, ``serialise(outcome)``,
    ``deserialise(item, payload, seconds)`` and ``build_dataset(item)`` as
    static methods, plus ``compute``: a picklable ``(item, dataset) ->
    outcome`` callable (module-level, or a :func:`functools.partial` of one
    bound to the suite's shared per-run context).  Items carry a
    ``dataset_signature``; outcomes carry ``label``, ``seconds`` and
    ``from_cache``.
    """

    #: Noun for the "at least one ... is required" error.
    item_name = "item"
    report_type = CachedSuiteReport

    @staticmethod
    def group_key(item: Any) -> Hashable:
        """Process-pool task unit: items sharing a key run in one task."""
        return item.dataset_signature

    def __init__(
        self,
        items: Iterable[ItemT],
        cache_dir: Optional[str] = None,
        max_workers: Optional[int] = None,
        executor: str = "thread",
    ) -> None:
        self.items = list(items)
        if not self.items:
            raise ValueError(f"at least one {self.item_name} is required")
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be None or >= 1, got {max_workers}")
        if executor not in ("thread", "process"):
            raise ValueError("executor must be 'thread' or 'process'")
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.max_workers = max_workers
        self.executor = executor
        self._datasets: Dict[Hashable, Any] = {}

    def run(self) -> CachedSuiteReport:
        """Compute every item and return the collected report."""
        start = wall_clock()
        outcomes: List[Optional[OutcomeT]] = [None] * len(self.items)
        keys: List[Optional[str]] = [None] * len(self.items)
        misses: List[int] = []
        for position, item in enumerate(self.items):
            probe_start = wall_clock()
            if self.cache is not None:
                keys[position] = self.cache_key(item)
                payload = self.cache.get(keys[position])
                if payload is not None:
                    outcomes[position] = self.deserialise(item, payload, wall_clock() - probe_start)
                    continue
            misses.append(position)
        fan_out = self._fan_out_processes if self.executor == "process" else self._fan_out_threads
        for position, outcome in fan_out(misses):
            outcomes[position] = outcome
            if self.cache is not None:
                self.cache.put(keys[position], self.serialise(outcome))
        return self.report_type(outcomes=tuple(outcomes), seconds=wall_clock() - start)

    def _workers(self, units: int) -> int:
        return self.max_workers or min(units, os.cpu_count() or 1)

    def _fan_out_threads(self, misses: List[int]) -> Iterator[Tuple[int, OutcomeT]]:
        """Build the misses' datasets serially, then compute one per item."""
        for position in misses:
            signature = self.items[position].dataset_signature
            if signature not in self._datasets:
                self._datasets[signature] = self.build_dataset(self.items[position])
        compute = self.compute

        def run_one(position: int) -> OutcomeT:
            item = self.items[position]
            return compute(item, self._datasets[item.dataset_signature])

        workers = self._workers(len(misses))
        if workers <= 1:
            yield from ((position, run_one(position)) for position in misses)
            return
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from zip(misses, pool.map(run_one, misses))

    def _fan_out_processes(self, misses: List[int]) -> Iterator[Tuple[int, OutcomeT]]:
        """Compute one task per group key; yield results in item order."""
        if not misses:
            return
        groups: Dict[Hashable, List[int]] = {}
        for position in misses:
            groups.setdefault(self.group_key(self.items[position]), []).append(position)
        with ProcessPoolExecutor(max_workers=self._workers(len(groups))) as pool:
            slot: Dict[int, Tuple[Future, int]] = {}
            for positions in groups.values():
                future = pool.submit(
                    _compute_group,
                    self.compute,
                    self.build_dataset,
                    [self.items[p] for p in positions],
                )
                for index, position in enumerate(positions):
                    slot[position] = (future, index)
            for position in misses:
                future, index = slot[position]
                yield position, future.result()[index]
