"""High-level GridTuner API.

:class:`GridTuner` ties everything together: given an event dataset, a
prediction-model factory and an HGrid budget ``N`` it can

* evaluate the real-error upper bound ``e(sqrt(n))`` over a sweep of candidate
  grid sizes (:meth:`error_curve`),
* select the optimal number of MGrids with brute force, Ternary Search or the
  Iterative Method (:meth:`select`),
* empirically decompose the real error of the tuned model on the test split
  (:meth:`evaluate_real_error`),

which are exactly the operations the paper's evaluation section performs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.core.errors import ErrorReport, decompose_errors
from repro.core.grid import GridLayout, candidate_mgrid_sides
from repro.core.homogeneity import select_hgrid_budget
from repro.core.interfaces import (
    DemandPredictor,
    actual_counts_for_targets,
    evaluation_targets,
)
from repro.core.search import SearchResult, run_search
from repro.core.upper_bound import UpperBoundEvaluator, UpperBoundResult
from repro.data.dataset import EventDataset
from repro.utils.validation import ensure_perfect_square


@dataclass(frozen=True)
class TuningResult:
    """Outcome of a full tuning run."""

    search: SearchResult
    upper_bound: UpperBoundResult

    @property
    def optimal_n(self) -> int:
        """Selected number of MGrids."""
        return self.search.best_n

    @property
    def optimal_side(self) -> int:
        """Selected ``sqrt(n)``."""
        return self.search.best_side


class GridTuner:
    """Optimal grid-size selection for a spatiotemporal prediction model.

    Parameters
    ----------
    dataset:
        Event dataset with train/val/test split.
    model_factory:
        Zero-argument callable returning a fresh, untrained predictor.
    hgrid_budget:
        Total HGrid budget ``N`` (perfect square).  If ``None`` it is selected
        automatically from the D_alpha turning point (Section III-A).
    alpha_slot:
        Time slot used for alpha estimation (default 08:00-08:30).
    """

    def __init__(
        self,
        dataset: EventDataset,
        model_factory: Callable[[], DemandPredictor],
        hgrid_budget: Optional[int] = None,
        alpha_slot: int = 16,
        evaluation_days: Optional[Sequence[int]] = None,
    ) -> None:
        self.dataset = dataset
        self.model_factory = model_factory
        self.alpha_slot = alpha_slot
        if hgrid_budget is None:
            hgrid_budget = self.select_hgrid_budget()
        self.hgrid_budget = ensure_perfect_square(hgrid_budget, "hgrid_budget")
        self.evaluator = UpperBoundEvaluator(
            dataset=dataset,
            model_factory=model_factory,
            hgrid_budget=self.hgrid_budget,
            alpha_slot=alpha_slot,
            evaluation_days=evaluation_days,
        )

    # ------------------------------------------------------------------ #
    # N selection
    # ------------------------------------------------------------------ #

    def select_hgrid_budget(
        self, resolutions: Optional[Sequence[int]] = None, flatness: float = 0.05
    ) -> int:
        """Choose N from the turning point of the D_alpha curve (Figure 14)."""
        if resolutions is None:
            resolutions = [4, 8, 16, 32, 64]
        return select_hgrid_budget(
            lambda g: self.dataset.alpha(g, slot=self.alpha_slot),
            resolutions,
            flatness=flatness,
        )

    # ------------------------------------------------------------------ #
    # Error curves and search
    # ------------------------------------------------------------------ #

    def error_curve(
        self, sides: Optional[Sequence[int]] = None
    ) -> Dict[int, UpperBoundResult]:
        """Evaluate the upper bound at each candidate side (``sqrt(n)``).

        Returns a mapping ``side -> UpperBoundResult`` ordered by side.
        """
        if sides is None:
            sides = candidate_mgrid_sides(self.hgrid_budget, min_side=2)
        results: Dict[int, UpperBoundResult] = {}
        for side in sides:
            results[int(side)] = self.evaluator.evaluate_side(int(side))
        return results

    def select(
        self,
        algorithm: str = "iterative",
        min_side: int = 2,
        max_side: Optional[int] = None,
        **kwargs,
    ) -> TuningResult:
        """Run an OGSS search and return the selected grid size.

        ``algorithm`` is ``"brute_force"``, ``"ternary"`` or ``"iterative"``;
        extra keyword arguments (e.g. ``initial_side``, ``bound``) are passed
        to the underlying search.
        """
        search = run_search(
            algorithm,
            self.evaluator,
            self.hgrid_budget,
            min_side=min_side,
            max_side=max_side,
            **kwargs,
        )
        return TuningResult(
            search=search,
            upper_bound=self.evaluator.evaluate_side(search.best_side),
        )

    # ------------------------------------------------------------------ #
    # Empirical evaluation
    # ------------------------------------------------------------------ #

    def evaluate_real_error(
        self,
        mgrid_side: int,
        days: Optional[Sequence[int]] = None,
        model: Optional[DemandPredictor] = None,
    ) -> ErrorReport:
        """Empirically decompose the real error at a given grid size.

        Trains a fresh model at ``mgrid_side`` (unless one is supplied),
        predicts the evaluation slots and compares against the actual
        HGrid-level counts of the test split.
        """
        layout = GridLayout.for_ogss(mgrid_side * mgrid_side, self.hgrid_budget)
        if days is None:
            days = list(self.dataset.split.test_days)
        if model is None:
            model = self.model_factory()
            model.fit(self.dataset, mgrid_side)
        targets = evaluation_targets(self.dataset, days)
        predictions = model.predict(self.dataset, mgrid_side, targets)
        actual_fine = actual_counts_for_targets(
            self.dataset, layout.fine_resolution, targets
        )
        return decompose_errors(predictions, actual_fine, layout)

    def real_error_curve(
        self, sides: Sequence[int], days: Optional[Sequence[int]] = None
    ) -> Dict[int, ErrorReport]:
        """Empirical real-error decomposition over a sweep of grid sizes."""
        reports: Dict[int, ErrorReport] = {}
        for side in sides:
            reports[int(side)] = self.evaluate_real_error(int(side), days=days)
        return reports

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #

    def layout_for(self, mgrid_side: int) -> GridLayout:
        """The MGrid/HGrid layout used for a candidate side."""
        return GridLayout.for_ogss(mgrid_side * mgrid_side, self.hgrid_budget)

    def predicted_demand(
        self, mgrid_side: int, days: Sequence[int], model: Optional[DemandPredictor] = None
    ) -> np.ndarray:
        """Predicted MGrid demand for all usable slots of ``days``.

        Convenience used by the dispatch case study: returns an array of shape
        ``(targets, side, side)`` aligned with ``evaluation_targets``.
        """
        if model is None:
            model = self.model_factory()
            model.fit(self.dataset, mgrid_side)
        targets = evaluation_targets(self.dataset, days)
        return model.predict(self.dataset, mgrid_side, targets)
