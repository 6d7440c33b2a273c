"""Per-time-slot grid-size tuning (extension of the paper's Figure 18 analysis).

The paper observes that the optimal ``n`` differs across the time slots of a
day because the demand pattern — and therefore the expression error — changes
over the day (Figure 18), but its system still deploys a single grid size.
This module provides the natural extension: tune ``n`` per time slot, then
either use the per-slot grids directly or collapse them into one compromise
grid chosen to minimise the summed upper bound across slots.

Every per-slot evaluator shares one model-error cache: the model error does
not depend on the alpha slot, so each candidate side trains its model exactly
once for the whole day.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.interfaces import DemandPredictor
from repro.core.search import run_search
from repro.core.upper_bound import UpperBoundEvaluator
from repro.data.dataset import EventDataset
from repro.utils.validation import ensure_perfect_square


@dataclass(frozen=True)
class SlotTuningResult:
    """Optimal grid size of a single time slot."""

    slot: int
    best_side: int
    best_value: float
    evaluations: int

    @property
    def best_n(self) -> int:
        """Selected number of MGrids for the slot."""
        return self.best_side * self.best_side


@dataclass(frozen=True)
class SlotwiseTuningReport:
    """Outcome of tuning every requested time slot."""

    results: tuple[SlotTuningResult, ...]
    compromise_side: int
    compromise_value: float

    @property
    def modal_side(self) -> int:
        """The most frequently selected per-slot side."""
        counter = Counter(result.best_side for result in self.results)
        return counter.most_common(1)[0][0]

    def side_distribution(self) -> Dict[int, int]:
        """Histogram of selected sides across slots (the Figure 18 distribution)."""
        counter = Counter(result.best_side for result in self.results)
        return dict(sorted(counter.items()))


class SlotwiseGridTuner:
    """Tunes the grid size independently for each time slot.

    Parameters
    ----------
    dataset, model_factory, hgrid_budget:
        As for :class:`~repro.core.tuner.GridTuner`.
    algorithm:
        OGSS search algorithm used per slot (``"iterative"`` by default).
    search_kwargs:
        Extra keyword arguments for the search (e.g. ``bound``,
        ``initial_side``).
    """

    def __init__(
        self,
        dataset: EventDataset,
        model_factory: Callable[[], DemandPredictor],
        hgrid_budget: int,
        algorithm: str = "iterative",
        min_side: int = 2,
        search_kwargs: Optional[dict] = None,
    ) -> None:
        self.dataset = dataset
        self.model_factory = model_factory
        self.hgrid_budget = ensure_perfect_square(hgrid_budget, "hgrid_budget")
        self.algorithm = algorithm
        self.min_side = min_side
        self.search_kwargs = dict(search_kwargs or {})
        self._evaluators: Dict[int, UpperBoundEvaluator] = {}
        # Shared across all slot evaluators: the model error depends only on
        # the side, so each candidate side is trained once for the whole day.
        self._model_error_cache: Dict[int, Tuple[float, float]] = {}

    def evaluator_for_slot(self, slot: int) -> UpperBoundEvaluator:
        """The (cached) upper-bound evaluator whose alpha uses ``slot``."""
        if slot not in self._evaluators:
            self._evaluators[slot] = UpperBoundEvaluator(
                dataset=self.dataset,
                model_factory=self.model_factory,
                hgrid_budget=self.hgrid_budget,
                alpha_slot=slot,
                model_error_cache=self._model_error_cache,
            )
        return self._evaluators[slot]

    def tune_slot(self, slot: int) -> SlotTuningResult:
        """Tune the grid size for one time slot."""
        evaluator = self.evaluator_for_slot(slot)
        kwargs = dict(self.search_kwargs)
        if self.algorithm == "iterative" and "initial_side" not in kwargs:
            kwargs["initial_side"] = max(2, int(round(self.hgrid_budget**0.5)) // 2)
        result = run_search(
            self.algorithm,
            evaluator,
            self.hgrid_budget,
            min_side=self.min_side,
            **kwargs,
        )
        return SlotTuningResult(
            slot=slot,
            best_side=result.best_side,
            best_value=result.best_value,
            evaluations=result.evaluations,
        )

    def tune(self, slots: Sequence[int]) -> SlotwiseTuningReport:
        """Tune every slot and compute the best single compromise grid size.

        The compromise side minimises the *sum over slots* of the upper bound,
        evaluated over the union of every per-slot winner (so no extra model
        training beyond what the per-slot searches already probed is needed
        for candidates that never won anywhere).
        """
        if not slots:
            raise ValueError("at least one slot is required")
        results = tuple(self.tune_slot(int(slot)) for slot in slots)
        candidates = sorted({result.best_side for result in results})
        best_side = candidates[0]
        best_total = float("inf")
        for side in candidates:
            total = sum(
                self.evaluator_for_slot(result.slot)(side) for result in results
            )
            if total < best_total:
                best_side, best_total = side, total
        return SlotwiseTuningReport(
            results=results,
            compromise_side=best_side,
            compromise_value=best_total,
        )
