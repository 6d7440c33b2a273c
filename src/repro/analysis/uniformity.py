"""Relationship between intra-MGrid unevenness and expression error (Fig. 12/13).

For every MGrid the paper computes ``D_alpha`` over its HGrids and the summed
expression error of those HGrids, then shows a positive relationship between
the two: the more unevenly demand is distributed inside an MGrid, the larger
the cost of spreading a single MGrid prediction uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.expression import mgrid_expression_error
from repro.core.grid import GridLayout
from repro.core.homogeneity import d_alpha_per_mgrid
from repro.data.dataset import EventDataset


@dataclass(frozen=True)
class UniformityPoint:
    """One MGrid's unevenness and expression error."""

    mgrid_index: int
    d_alpha: float
    expression_error: float
    total_alpha: float


def uniformity_vs_expression_error(
    dataset: EventDataset,
    layout: GridLayout,
    slot: int = 16,
) -> List[UniformityPoint]:
    """Per-MGrid (D_alpha, expression error) pairs for a scatter plot.

    Reproduces the data behind Figure 13: each point is one MGrid of the
    layout; the x-coordinate is the unevenness of its HGrid alphas and the
    y-coordinate the summed expression error of its HGrids.
    """
    alpha_fine = dataset.alpha(layout.fine_resolution, slot=slot)
    blocks = layout.mgrid_alpha_blocks(alpha_fine)
    unevenness = d_alpha_per_mgrid(blocks)
    points: List[UniformityPoint] = []
    for index, row in enumerate(blocks):
        error = mgrid_expression_error(row)
        points.append(
            UniformityPoint(
                mgrid_index=index,
                d_alpha=float(unevenness[index]),
                expression_error=float(error),
                total_alpha=float(row.sum()),
            )
        )
    return points


def correlation(points: List[UniformityPoint]) -> float:
    """Pearson correlation between D_alpha and expression error over the points."""
    if len(points) < 2:
        raise ValueError("need at least two points to compute a correlation")
    xs = np.array([point.d_alpha for point in points])
    ys = np.array([point.expression_error for point in points])
    if xs.std() == 0 or ys.std() == 0:
        return 0.0
    return float(np.corrcoef(xs, ys)[0, 1])
