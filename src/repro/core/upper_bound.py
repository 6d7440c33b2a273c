"""Upper-bound evaluation of the real error (Algorithm 3).

``UpperBound(n, N, X, Model)`` trains the prediction model at MGrid resolution
``sqrt(n)``, estimates the total model error as ``n * MAE`` (Equation 20),
computes the analytic total expression error from the HGrid alphas
(Algorithm 2 / its equivalents in :mod:`repro.core.expression`) and returns
their sum ``e(sqrt(n))``.  :class:`UpperBoundEvaluator` wraps this with a cache
so the search algorithms never retrain a model for the same ``n`` twice.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, MutableMapping, Optional, Sequence, Tuple

from repro.core.expression import total_expression_error
from repro.core.grid import GridLayout
from repro.core.interfaces import (
    DaySlot,
    DemandPredictor,
    actual_counts_for_targets,
    evaluation_targets,
)
from repro.core.model_error import mean_absolute_error, total_model_error_from_mae
from repro.data.dataset import EventDataset
from repro.utils.validation import ensure_perfect_square


@dataclass(frozen=True)
class UpperBoundResult:
    """Breakdown of ``e(sqrt(n))`` for one candidate ``n``."""

    num_mgrids: int
    hgrids_per_mgrid: int
    model_error: float
    expression_error: float
    mae: float

    @property
    def mgrid_side(self) -> int:
        """``sqrt(n)``."""
        return int(round(self.num_mgrids**0.5))

    @property
    def total(self) -> float:
        """``e(sqrt(n))`` — the upper bound on the total real error."""
        return self.model_error + self.expression_error


@dataclass
class UpperBoundEvaluator:
    """Cached evaluator of the real-error upper bound over candidate grid sizes.

    Parameters
    ----------
    dataset:
        The event dataset (train/val/test split included).
    model_factory:
        Callable returning a *fresh* predictor; called once per evaluated ``n``.
    hgrid_budget:
        ``N`` — the total number of HGrids (perfect square).
    alpha_slot:
        Time slot whose per-HGrid mean is used for the expression error
        (the paper defaults to 08:00-08:30).
    evaluation_days:
        Days whose slots are used to measure the model MAE; defaults to the
        dataset's validation + test days.
    model_error_cache:
        Optional mapping ``mgrid_side -> (model_error, mae)`` shared between
        evaluators.  The model error depends only on the dataset, the model
        and the side — not on ``alpha_slot`` — so evaluators that differ only
        in their alpha slot (e.g. the per-slot tuners in
        :mod:`repro.core.slotwise`) can share one cache and train each model
        once instead of once per slot.  Requires a deterministic
        ``model_factory``.  If the mapping additionally provides a
        ``lock_for(side)`` method returning a context manager (see
        :class:`repro.sweep.runner.SingleFlightModelErrorCache`), the
        evaluator holds that lock around training so concurrent evaluators
        sharing the cache train each side exactly once.
    """

    dataset: EventDataset
    model_factory: Callable[[], DemandPredictor]
    hgrid_budget: int
    alpha_slot: int = 16
    evaluation_days: Optional[Sequence[int]] = None
    model_error_cache: Optional[MutableMapping[int, Tuple[float, float]]] = None

    def __post_init__(self) -> None:
        ensure_perfect_square(self.hgrid_budget, "hgrid_budget")
        if not 0 <= self.alpha_slot < self.dataset.slots_per_day:
            raise ValueError(
                f"alpha_slot must be in [0, {self.dataset.slots_per_day}), "
                f"got {self.alpha_slot}"
            )
        if self.evaluation_days is None:
            self.evaluation_days = tuple(self.dataset.split.val_days) + tuple(
                self.dataset.split.test_days
            )
        self._cache: Dict[int, UpperBoundResult] = {}
        self._evaluation_count = 0

    @property
    def evaluations(self) -> int:
        """Number of distinct ``n`` values evaluated so far (cache misses)."""
        return self._evaluation_count

    def cached_results(self) -> Dict[int, UpperBoundResult]:
        """Mapping ``sqrt(n) -> UpperBoundResult`` of everything evaluated so far."""
        return dict(self._cache)

    def evaluate_side(self, mgrid_side: int) -> UpperBoundResult:
        """Evaluate ``e(side)`` for ``n = side**2`` (cached).

        ``side`` must lie in ``[1, isqrt(N)]``: an MGrid holds at least one
        HGrid, so ``n`` cannot exceed the HGrid budget ``N``.
        """
        mgrid_side = int(mgrid_side)
        max_side = math.isqrt(self.hgrid_budget)
        if not 1 <= mgrid_side <= max_side:
            raise ValueError(
                f"mgrid_side must be in [1, {max_side}] for an HGrid budget of "
                f"{self.hgrid_budget}, got {mgrid_side}"
            )
        if mgrid_side in self._cache:
            return self._cache[mgrid_side]
        result = self._evaluate(mgrid_side)
        self._cache[mgrid_side] = result
        self._evaluation_count += 1
        return result

    def evaluate(self, num_mgrids: int) -> UpperBoundResult:
        """Evaluate ``e(sqrt(n))`` for a perfect-square ``n`` (cached)."""
        n = ensure_perfect_square(num_mgrids, "num_mgrids")
        return self.evaluate_side(int(round(n**0.5)))

    def __call__(self, mgrid_side: int) -> float:
        """Shorthand used by the search algorithms: ``e(side)``."""
        return self.evaluate_side(mgrid_side).total

    # ------------------------------------------------------------------ #

    def _evaluate(self, mgrid_side: int) -> UpperBoundResult:
        layout = GridLayout.for_ogss(mgrid_side * mgrid_side, self.hgrid_budget)
        model_error, mae = self._model_error(mgrid_side)
        expression = self._expression_error(layout)
        return UpperBoundResult(
            num_mgrids=layout.num_mgrids,
            hgrids_per_mgrid=layout.hgrids_per_mgrid,
            model_error=model_error,
            expression_error=expression,
            mae=mae,
        )

    def _model_error(self, mgrid_side: int) -> tuple[float, float]:
        """Cached-and-locked wrapper around :meth:`_train_and_measure`."""
        cache = self.model_error_cache
        if cache is None:
            return self._train_and_measure(mgrid_side)
        lock_for = getattr(cache, "lock_for", None)
        guard = lock_for(mgrid_side) if lock_for is not None else nullcontext()
        with guard:
            if mgrid_side in cache:
                return cache[mgrid_side]
            entry = self._train_and_measure(mgrid_side)
            cache[mgrid_side] = entry
            return entry

    def _train_and_measure(self, mgrid_side: int) -> tuple[float, float]:
        """Train a fresh model at this resolution and estimate ``n * MAE``."""
        model = self.model_factory()
        model.fit(self.dataset, mgrid_side)
        targets: list[DaySlot] = evaluation_targets(self.dataset, self.evaluation_days)
        predictions = model.predict(self.dataset, mgrid_side, targets)
        actual = actual_counts_for_targets(self.dataset, mgrid_side, targets)
        mae = mean_absolute_error(predictions, actual)
        return total_model_error_from_mae(mae, mgrid_side * mgrid_side), mae

    def _expression_error(self, layout: GridLayout) -> float:
        """Analytic total expression error for this layout."""
        alpha_fine = self.dataset.alpha(layout.fine_resolution, slot=self.alpha_slot)
        return total_expression_error(alpha_fine, layout)
