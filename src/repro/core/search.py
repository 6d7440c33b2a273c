"""OGSS search algorithms: brute force, Ternary Search (Alg. 4), Iterative Method (Alg. 5).

All three operate on an *objective* ``e(side)`` mapping an MGrid side length
``sqrt(n)`` to the upper bound of the total real error; in practice that
objective is an :class:`~repro.core.upper_bound.UpperBoundEvaluator`, whose
internal cache makes repeated probes of the same side free.

The search returns the side (and ``n = side**2``) minimising the objective.
Ternary Search assumes (as the paper argues and the experiments confirm) that
``e`` first decreases then increases in ``sqrt(n)``; the Iterative Method does
a bounded local search from an experience-based initial position and is more
robust when the curve is not perfectly unimodal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.utils.validation import ensure_perfect_square, ensure_positive

#: Objective type: maps sqrt(n) to the upper bound of the total real error.
Objective = Callable[[int], float]


@dataclass
class SearchResult:
    """Outcome of one OGSS search.

    Attributes
    ----------
    algorithm:
        ``"brute_force"``, ``"ternary"`` or ``"iterative"``.
    best_side:
        The chosen ``sqrt(n)``.
    best_value:
        Objective value at ``best_side``.
    evaluations:
        Number of *distinct* sides whose objective was computed.
    probes:
        Map ``side -> objective`` of every side evaluated during the search.
    """

    algorithm: str
    best_side: int
    best_value: float
    evaluations: int
    probes: Dict[int, float] = field(default_factory=dict)

    @property
    def best_n(self) -> int:
        """The selected number of MGrids ``n = side**2``."""
        return self.best_side * self.best_side


class _CountingObjective:
    """Wraps an objective to count and memoise distinct evaluations."""

    def __init__(self, objective: Objective) -> None:
        self._objective = objective
        self.values: Dict[int, float] = {}

    def __call__(self, side: int) -> float:
        side = int(side)
        if side not in self.values:
            self.values[side] = float(self._objective(side))
        return self.values[side]

    @property
    def evaluations(self) -> int:
        return len(self.values)


def _upper_side(hgrid_budget: int, min_side: int, max_side: Optional[int]) -> int:
    """Validated upper end of the side range ``[min_side, upper]`` under budget ``N``.

    ``upper`` defaults to ``isqrt(N)`` and may not exceed it: a larger side
    would need more MGrids than there are HGrids.
    """
    ensure_perfect_square(hgrid_budget, "hgrid_budget")
    ensure_positive(min_side, "min_side")
    limit = math.isqrt(hgrid_budget)
    upper = limit if max_side is None else int(max_side)
    if upper > limit:
        raise ValueError(
            f"max_side {upper} exceeds isqrt({hgrid_budget}) = {limit}: "
            "n = side**2 may not exceed the HGrid budget"
        )
    if min_side > upper:
        raise ValueError(f"min_side {min_side} exceeds max side {upper}")
    return upper


def brute_force_search(
    objective: Objective,
    hgrid_budget: int,
    min_side: int = 1,
    max_side: Optional[int] = None,
) -> SearchResult:
    """Evaluate every candidate side and return the global optimum."""
    upper = _upper_side(hgrid_budget, min_side, max_side)
    counting = _CountingObjective(objective)
    best_side = min_side
    best_value = counting(min_side)
    for side in range(min_side + 1, upper + 1):
        value = counting(side)
        if value < best_value:
            best_side, best_value = side, value
    return SearchResult(
        algorithm="brute_force",
        best_side=best_side,
        best_value=best_value,
        evaluations=counting.evaluations,
        probes=dict(counting.values),
    )


def ternary_search(
    objective: Objective,
    hgrid_budget: int,
    min_side: int = 1,
    max_side: Optional[int] = None,
) -> SearchResult:
    """Paper Algorithm 4: ternary search over ``sqrt(n)``.

    Each round compares the objective at the two third-points of the current
    interval and discards the worse third; O(log sqrt(N)) evaluations.  Finds
    the global optimum whenever the objective is unimodal; otherwise still
    returns a good local solution (quantified in Table IV).
    """
    upper = _upper_side(hgrid_budget, min_side, max_side)
    counting = _CountingObjective(objective)
    low, high = min_side, upper
    # Narrow the interval while the two third-points are interior and distinct;
    # once the interval is width <= 2 (or the probes collapse onto the
    # endpoints) finish with a direct scan so the loop always terminates.
    while high - low > 2:
        right_probe = math.ceil((2 * high + low) / 3)
        left_probe = math.floor((high + 2 * low) / 3)
        if left_probe <= low or right_probe >= high or left_probe >= right_probe:
            break
        if counting(left_probe) > counting(right_probe):
            low = left_probe
        else:
            high = right_probe
    best_side = low
    for side in range(low, high + 1):
        if counting(side) < counting(best_side):
            best_side = side
    return SearchResult(
        algorithm="ternary",
        best_side=best_side,
        best_value=counting(best_side),
        evaluations=counting.evaluations,
        probes=dict(counting.values),
    )


def iterative_search(
    objective: Objective,
    hgrid_budget: int,
    initial_side: int = 16,
    bound: int = 4,
    min_side: int = 1,
    max_side: Optional[int] = None,
) -> SearchResult:
    """Paper Algorithm 5: bounded local search from an experience-based start.

    Starting from ``initial_side`` (the paper uses 16, i.e. the common
    2 km x 2 km default), probe positions up to ``bound`` steps away on both
    sides, starting with the farthest; move to the first strictly better
    position found and repeat until no position within the bound improves.
    """
    upper = _upper_side(hgrid_budget, min_side, max_side)
    ensure_positive(bound, "bound")
    counting = _CountingObjective(objective)
    position = min(max(int(initial_side), min_side), upper)
    improved = True
    while improved:
        improved = False
        current_value = counting(position)
        for step in range(bound, 0, -1):
            forward = position + step
            backward = position - step
            if forward <= upper and current_value > counting(forward):
                position = forward
                improved = True
                break
            if backward >= min_side and current_value > counting(backward):
                position = backward
                improved = True
                break
    return SearchResult(
        algorithm="iterative",
        best_side=position,
        best_value=counting(position),
        evaluations=counting.evaluations,
        probes=dict(counting.values),
    )


def run_search(
    algorithm: str,
    objective: Objective,
    hgrid_budget: int,
    **kwargs,
) -> SearchResult:
    """Dispatch helper: run the named search algorithm.

    ``algorithm`` is one of ``"brute_force"``, ``"ternary"`` or ``"iterative"``.
    """
    algorithms = {
        "brute_force": brute_force_search,
        "ternary": ternary_search,
        "iterative": iterative_search,
    }
    if algorithm not in algorithms:
        raise ValueError(
            f"unknown search algorithm {algorithm!r}; expected one of {sorted(algorithms)}"
        )
    return algorithms[algorithm](objective, hgrid_budget, **kwargs)
