"""Bipartite matching primitives shared by the dispatchers.

All matchers consume a dense ``(orders, drivers)`` cost or weight matrix —
typically produced by :meth:`~repro.dispatch.travel.TravelModel.pairwise_km` —
and return an ``order index -> driver index`` mapping.  The mappings preserve
a deterministic iteration order (ascending rows for the matrix solvers,
ascending cost for the greedy matcher), which the vectorized engine relies on
to accumulate metrics in the same float-addition order as the scalar engine.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment


def greedy_matching(cost: np.ndarray, max_cost: float = np.inf) -> Dict[int, int]:
    """Greedy minimum-cost matching of rows (orders) to columns (drivers).

    Pairs are taken in increasing cost order; each row and column is used at
    most once and pairs with cost above ``max_cost`` are discarded.  O(E log E).

    Exact cost ties are broken by flat (row-major) matrix position — a stable
    sort rather than introsort — so the selection is fully specified by the
    matrix contents, never by NumPy's sort internals.  Tied candidate
    distances do occur at fleet scale (e.g. two drivers exactly equidistant
    from an order), and an unspecified tie order would make cached scenario
    results unstable across NumPy versions.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    if cost.size == 0:
        return {}
    rows, cols = np.unravel_index(np.argsort(cost, axis=None, kind="stable"), cost.shape)
    matched_rows: set[int] = set()
    matched_cols: set[int] = set()
    assignment: Dict[int, int] = {}
    for row, col in zip(rows, cols):
        if cost[row, col] > max_cost:
            break
        if row in matched_rows or col in matched_cols:
            continue
        assignment[int(row)] = int(col)
        matched_rows.add(int(row))
        matched_cols.add(int(col))
    return assignment


def optimal_matching(cost: np.ndarray, max_cost: float = np.inf) -> Dict[int, int]:
    """Hungarian-algorithm matching minimising total cost, filtered by ``max_cost``.

    Infeasible pairs (cost above ``max_cost``) are masked with a large penalty
    and dropped from the returned assignment.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    if cost.size == 0:
        return {}
    finite_max = np.nanmax(cost[np.isfinite(cost)]) if np.isfinite(cost).any() else 1.0
    penalty = max(finite_max, max_cost if np.isfinite(max_cost) else finite_max) * 10 + 1.0
    padded = np.where(np.isfinite(cost) & (cost <= max_cost), cost, penalty)
    row_indices, col_indices = linear_sum_assignment(padded)
    assignment: Dict[int, int] = {}
    for row, col in zip(row_indices, col_indices):
        if padded[row, col] < penalty:
            assignment[int(row)] = int(col)
    return assignment


def greedy_pairs(
    cost: np.ndarray, max_cost: float = np.inf
) -> Tuple[np.ndarray, np.ndarray]:
    """Lean :func:`greedy_matching` returning ``(rows, cols)`` pair arrays.

    Produces exactly :func:`greedy_matching`'s assignment (identical stable
    argsort permutation over the identical matrix, identical acceptance rule)
    in its dict-insertion order (ascending cost), but stops scanning as soon
    as ``min(rows, cols)`` pairs are matched — every later candidate would be
    rejected anyway — instead of walking all ``R*C`` sorted pairs.
    """
    empty = np.empty(0, dtype=np.intp)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    if cost.size == 0:
        return empty, empty.copy()
    n_rows, n_cols = cost.shape
    flat = cost.ravel()
    order = np.argsort(cost, axis=None, kind="stable")
    row_used = bytearray(n_rows)
    col_used = bytearray(n_cols)
    out_rows: list = []
    out_cols: list = []
    limit = min(n_rows, n_cols)
    for index in order:
        index = int(index)
        if flat[index] > max_cost:
            break
        row, col = divmod(index, n_cols)
        if row_used[row] or col_used[col]:
            continue
        row_used[row] = 1
        col_used[col] = 1
        out_rows.append(row)
        out_cols.append(col)
        if len(out_rows) == limit:
            break
    if not out_rows:
        return empty, empty.copy()
    return np.array(out_rows, dtype=np.intp), np.array(out_cols, dtype=np.intp)


def greedy_pairs_masked(
    cost: np.ndarray, feasible: np.ndarray, max_cost: float = np.inf
) -> Tuple[np.ndarray, np.ndarray]:
    """Greedy matching that sorts only the feasible entries.

    Selection-equivalent to ``greedy_pairs(np.where(feasible, cost, np.inf),
    max_cost)`` for finite ``max_cost``: both scans visit the feasible pairs
    in ascending (cost, row-major position) order — the compressed stable
    sort preserves the dense stable sort's relative order of ties because
    ``np.nonzero`` walks the mask row-major — and the infeasible (infinite)
    tail is never reached because it exceeds ``max_cost``.  With an infinite
    ``max_cost`` the dense scan would go on to match infeasible pairs, so
    this kernel requires a finite cut-off.  ``cost`` must be finite wherever
    ``feasible`` is True.
    """
    empty = np.empty(0, dtype=np.intp)
    if cost.size == 0:
        return empty, empty.copy()
    rows_f, cols_f = np.nonzero(feasible)
    if rows_f.size == 0:
        return empty, empty.copy()
    values = cost[feasible]
    order = np.argsort(values, kind="stable")
    n_rows, n_cols = cost.shape
    row_used = bytearray(n_rows)
    col_used = bytearray(n_cols)
    out_rows: list = []
    out_cols: list = []
    limit = min(n_rows, n_cols)
    # The scan usually stops after a handful of accepted pairs, so it reads
    # the sorted candidates lazily instead of materialising Python lists of
    # every feasible entry.
    for index in order:
        if values[index] > max_cost:
            break
        row = int(rows_f[index])
        col = int(cols_f[index])
        if row_used[row] or col_used[col]:
            continue
        row_used[row] = 1
        col_used[col] = 1
        out_rows.append(row)
        out_cols.append(col)
        if len(out_rows) == limit:
            break
    if not out_rows:
        return empty, empty.copy()
    return np.array(out_rows, dtype=np.intp), np.array(out_cols, dtype=np.intp)


def min_cost_pairs(
    cost: np.ndarray, feasible: np.ndarray, max_cost: float = np.inf
) -> Tuple[np.ndarray, np.ndarray]:
    """Lean :func:`optimal_matching` over a pre-computed feasibility mask.

    Equivalent to ``optimal_matching(np.where(feasible, cost, np.inf),
    max_cost)`` — it builds the *identical* padded matrix (same penalty value,
    same masked entries), so :func:`scipy.optimize.linear_sum_assignment`
    returns the identical solution — but skips the redundant ``isfinite``
    passes and fancy-indexed copies of the generic entry point.  ``cost`` must
    be finite wherever ``feasible`` is True.  Returns ``(rows, cols)`` index
    arrays sorted by row, matching the dict iteration order of
    :func:`optimal_matching`.
    """
    if cost.size == 0 or (not np.isfinite(max_cost) and not feasible.any()):
        # optimal_matching pads an all-infeasible matrix entirely with the
        # penalty and then filters every pair out; with a finite max_cost the
        # all-infeasible case needs no early exit because the penalty below
        # degrades to optimal_matching's value and every pair gets filtered.
        empty = np.empty(0, dtype=np.intp)
        return empty, empty.copy()
    # Equals optimal_matching's nanmax over the feasible entries (and -inf
    # when none are feasible, in which case the finite max_cost alone
    # determines the penalty, exactly as the generic entry point's
    # placeholder finite_max=1.0 <= max_cost would).
    masked = np.where(feasible, cost, -np.inf)
    finite_max = float(masked.max())
    penalty = max(finite_max, max_cost if np.isfinite(max_cost) else finite_max) * 10 + 1.0
    if finite_max <= max_cost:
        # Every feasible entry already clears max_cost, so the combined mask
        # reduces to `feasible` — same padded matrix, one pass fewer.
        padded = np.where(feasible, cost, penalty)
    else:
        padded = np.where(feasible & (cost <= max_cost), cost, penalty)
    row_indices, col_indices = linear_sum_assignment(padded)
    keep = padded[row_indices, col_indices] < penalty
    return row_indices[keep].astype(np.intp, copy=False), col_indices[keep].astype(
        np.intp, copy=False
    )


def max_weight_pairs(
    weight: np.ndarray, feasible: np.ndarray, min_weight: float = 0.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Lean :func:`maximum_weight_matching` over a pre-computed feasibility mask.

    Equivalent to ``maximum_weight_matching(np.where(feasible, weight,
    -np.inf), min_weight)`` — identical offset, identical cost matrix handed
    to the solver — without the extra masking passes.  ``weight`` must be
    finite wherever ``feasible`` is True.  Returns ``(rows, cols)`` sorted by
    row, matching the dict iteration order of :func:`maximum_weight_matching`.
    """
    empty = np.empty(0, dtype=np.intp)
    if weight.size == 0:
        return empty, empty.copy()
    capped_mask = feasible & (weight >= min_weight)
    capped = np.where(capped_mask, weight, -np.inf)
    best = float(capped.max())
    if best == -np.inf:  # no pair clears min_weight
        return empty, empty.copy()
    offset = best + 1.0
    cost = np.where(capped_mask, offset - weight, offset * 10)
    row_indices, col_indices = linear_sum_assignment(cost)
    keep = capped_mask[row_indices, col_indices]
    return row_indices[keep].astype(np.intp, copy=False), col_indices[keep].astype(
        np.intp, copy=False
    )


# --------------------------------------------------------------------- #
# Component-decomposed (sparse) matching
# --------------------------------------------------------------------- #
#
# The feasibility mask of a dispatch batch is sparse and spatially local:
# an order can only reach drivers inside its wait-tolerance radius, so the
# bipartite feasibility graph falls apart into many small connected
# components.  Matchings never cross components (an infeasible pair is never
# assigned), so each component can be solved independently with the dense
# kernels above on a tiny submatrix instead of one O(n^3) solve over the
# whole (orders x drivers) matrix.
#
# Canonical component ordering (relied on by the vectorized engine and the
# result caches): components are listed by their smallest row (order) index,
# and rows/columns inside a component are ascending.  Submatrices therefore
# preserve the relative row/column order of the dense matrix, and the merged
# pair list is re-sorted into exactly the dense kernel's emission order —
# ascending row for the assignment solvers, ascending (cost, row-major
# position) for the greedy scan.
#
# Equivalence caveat: a Hungarian solve has a unique answer up to ties; when
# two assignments of equal total cost exist *inside one component*, SciPy's
# tie-break on the small submatrix can in principle differ from its
# tie-break on the full padded matrix.  The greedy kernels are exactly
# equivalent by construction (the global stable (cost, position) scan order
# restricted to a component equals the component's own scan order).  The
# engine equivalence suite and the randomized property tests in
# ``tests/dispatch/test_sparse_matching.py`` pin the behaviour on real
# workloads; the dense path remains the oracle.


def edge_components(
    edge_rows: np.ndarray,
    edge_cols: np.ndarray,
    n_rows: int,
    n_cols: int,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Connected components of a bipartite edge list.

    ``edge_rows[k]``/``edge_cols[k]`` is one feasible (order, driver) pair.
    Returns ``[(rows, cols), ...]`` in the canonical order documented above;
    rows and columns that touch no edge appear in no component (they can
    never be matched).
    """
    edge_rows = np.asarray(edge_rows, dtype=np.intp)
    edge_cols = np.asarray(edge_cols, dtype=np.intp)
    if edge_rows.shape != edge_cols.shape:
        raise ValueError("edge_rows and edge_cols must be equally sized")
    if edge_rows.size == 0:
        return []
    if np.any(edge_rows < 0) or np.any(edge_rows >= n_rows):
        raise ValueError("edge_rows out of range")
    if np.any(edge_cols < 0) or np.any(edge_cols >= n_cols):
        raise ValueError("edge_cols out of range")
    # Compress the column space to the columns that touch an edge, so the
    # propagation below works on arrays sized by the (pruned) edge set
    # rather than the full fleet.
    col_has_edge = np.zeros(n_cols, dtype=bool)
    col_has_edge[edge_cols] = True
    cols_used = np.flatnonzero(col_has_edge)
    col_map = np.empty(n_cols, dtype=np.intp)
    col_map[cols_used] = np.arange(cols_used.size)
    edge_cols_c = col_map[edge_cols]
    # Bipartite min-label propagation, fully vectorised and direct-addressed:
    # every row starts with its own index as label, labels flow
    # row -> column -> row via scatter-min until a fixed point.  Each sweep
    # is two C-level passes over the edge list, and the sweep count is
    # bounded by half the component diameter — a small constant for the
    # spatially-local feasibility graphs this serves (a Python union-find
    # here was the sparse pipeline's hot spot at fleet scale).
    row_label = np.arange(n_rows, dtype=np.intp)
    col_label = np.full(cols_used.size, n_rows, dtype=np.intp)  # sentinel
    while True:
        np.minimum.at(col_label, edge_cols_c, row_label[edge_rows])
        new_row = row_label.copy()
        np.minimum.at(new_row, edge_rows, col_label[edge_cols_c])
        if np.array_equal(new_row, row_label):
            break
        row_label = new_row
    # Rows that touch no edge can never be matched and are dropped.
    row_has_edge = np.zeros(n_rows, dtype=bool)
    row_has_edge[edge_rows] = True
    rows_used = np.flatnonzero(row_has_edge)
    # A component's label is its smallest row index, so ascending labels are
    # already the canonical component order (ascending minimum row).
    uniq = np.unique(row_label[rows_used])
    row_comp = np.searchsorted(uniq, row_label[rows_used])
    # Every used column is connected to at least one row, so its label is
    # always present in ``uniq``.
    col_comp = np.searchsorted(uniq, col_label)
    return list(
        zip(
            _group_by_component(rows_used, row_comp, uniq.size),
            _group_by_component(cols_used, col_comp, uniq.size),
        )
    )


def _group_by_component(
    values: np.ndarray, component: np.ndarray, n_components: int
) -> List[np.ndarray]:
    """Split ascending ``values`` into per-component ascending groups."""
    order = np.argsort(component, kind="stable")
    grouped = values[order]
    bounds = np.cumsum(np.bincount(component, minlength=n_components))
    groups: List[np.ndarray] = []
    low = 0
    for high in bounds.tolist():
        groups.append(grouped[low:high])
        low = high
    return groups


def k_cheapest_mask(
    edge_rows: np.ndarray, cost: np.ndarray, n_rows: int, k: int
) -> np.ndarray:
    """Mask of the edges inside each row's tie-inclusive ``k`` cheapest.

    ``edge_rows`` must hold one contiguous run per row, rows ascending.  An
    edge survives iff its cost is no greater than its row's ``k``-th
    smallest, so a row with at most ``k`` edges keeps all of them and every
    edge tied with the ``k``-th survives.

    With ``k`` at least the number of rows, the cut is exact for the
    matchers above (the exchange argument): a row matched outside its ``k``
    cheapest always has a cheaper column left free by the other ``k - 1``
    rows to swap to, so the optimum of :func:`min_cost_pairs` /
    :func:`max_weight_pairs` (whose weight falls as cost rises) is
    unchanged, and the stable greedy scan reaches a free column within each
    row's ``k`` cheapest before any dearer edge, so its output is
    identical.  The k-th costs of all over-full rows come from one
    partition of a padded ``(rows, longest row)`` matrix.
    """
    counts = np.bincount(edge_rows, minlength=n_rows)
    over = counts > k
    if not over.any():
        return np.ones(edge_rows.size, dtype=bool)
    in_over = over[edge_rows]
    grid = np.full((int(over.sum()), int(counts.max())), np.inf)
    grid_row = (np.cumsum(over) - 1)[edge_rows[in_over]]
    position = np.arange(edge_rows.size) - (np.cumsum(counts) - counts)[edge_rows]
    grid[grid_row, position[in_over]] = cost[in_over]
    kth = np.full(n_rows, np.inf)
    kth[over] = np.partition(grid, k - 1, axis=1)[:, k - 1]
    return cost <= kth[edge_rows]


def segmented_argbest(
    values: np.ndarray,
    cols: np.ndarray,
    starts: np.ndarray,
    largest: bool = False,
) -> np.ndarray:
    """Index of each segment's best entry, exact ties to the smallest column.

    Segment ``i`` is ``values[starts[i]:starts[i + 1]]`` (the last one runs
    to the end of the array); every segment must be non-empty and hold each
    column at most once.  "Best" is the minimum value, or the maximum with
    ``largest=True``.  Among exactly tied entries the smallest ``cols`` entry
    wins — the first-occurrence tie-break of ``argmin``/``argmax`` on a row
    with ascending columns, and of :func:`linear_sum_assignment` on a
    one-row block — whatever order the segment lists its columns in.
    Returns one ascending index into ``values`` per segment.
    """
    lengths = np.diff(np.append(starts, values.size))
    reduce = np.maximum if largest else np.minimum
    best = np.repeat(reduce.reduceat(values, starts), lengths)
    tied_cols = np.where(values == best, cols, np.iinfo(np.intp).max)
    best_col = np.repeat(np.minimum.reduceat(tied_cols, starts), lengths)
    return np.flatnonzero(tied_cols == best_col)


def merge_pairs_by_row(
    rows: np.ndarray, cols: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Re-order merged component pairs into ascending-row order.

    This is the emission order of :func:`min_cost_pairs` /
    :func:`max_weight_pairs` (``linear_sum_assignment`` returns rows
    ascending, and rows are unique across components).
    """
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order]


def merge_pairs_by_cost(
    rows: np.ndarray, cols: np.ndarray, costs: np.ndarray, n_cols: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Re-order merged component pairs into the greedy scan's emission order.

    :func:`greedy_pairs_masked` emits accepted pairs in ascending
    ``(cost, row-major position)`` order; ``n_cols`` is the column count of
    the *dense* matrix so the flat position tie-break matches its stable
    sort exactly.
    """
    flat = rows * n_cols + cols
    order = np.lexsort((flat, costs))
    return rows[order], cols[order]


def _blocked_pairs(
    cost: np.ndarray,
    feasible: np.ndarray,
    solver: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decompose ``feasible`` into components and run ``solver`` per block.

    Returns the unmerged ``(rows, cols, costs)`` global pair arrays (in
    canonical component order); callers apply the merge that matches their
    dense kernel's emission order.
    """
    empty = np.empty(0, dtype=np.intp)
    edge_rows, edge_cols = np.nonzero(feasible)
    if edge_rows.size == 0:
        return empty, empty.copy(), np.empty(0, dtype=float)
    out_rows: List[np.ndarray] = []
    out_cols: List[np.ndarray] = []
    out_costs: List[np.ndarray] = []
    for rows, cols in edge_components(edge_rows, edge_cols, *cost.shape):
        sub_cost = cost[np.ix_(rows, cols)]
        sub_feasible = feasible[np.ix_(rows, cols)]
        local_rows, local_cols = solver(sub_cost, sub_feasible)
        if local_rows.size == 0:
            continue
        out_rows.append(rows[local_rows])
        out_cols.append(cols[local_cols])
        out_costs.append(sub_cost[local_rows, local_cols])
    if not out_rows:
        return empty, empty.copy(), np.empty(0, dtype=float)
    return (
        np.concatenate(out_rows),
        np.concatenate(out_cols),
        np.concatenate(out_costs),
    )


def min_cost_pairs_blocked(
    cost: np.ndarray, feasible: np.ndarray, max_cost: float = np.inf
) -> Tuple[np.ndarray, np.ndarray]:
    """Component-decomposed :func:`min_cost_pairs`.

    Solves each connected component of the feasibility graph independently
    and merges the pairs back into ascending-row order.  Output-identical to
    the dense kernel whenever each component's optimum is unique (see the
    module caveat above).
    """
    rows, cols, _ = _blocked_pairs(
        cost, feasible, lambda c, f: min_cost_pairs(c, f, max_cost=max_cost)
    )
    return merge_pairs_by_row(rows, cols)


def max_weight_pairs_blocked(
    weight: np.ndarray, feasible: np.ndarray, min_weight: float = 0.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Component-decomposed :func:`max_weight_pairs`, merged by ascending row."""
    rows, cols, _ = _blocked_pairs(
        weight, feasible, lambda w, f: max_weight_pairs(w, f, min_weight=min_weight)
    )
    return merge_pairs_by_row(rows, cols)


def greedy_pairs_masked_blocked(
    cost: np.ndarray, feasible: np.ndarray, max_cost: float = np.inf
) -> Tuple[np.ndarray, np.ndarray]:
    """Component-decomposed :func:`greedy_pairs_masked`.

    Exactly equivalent to the dense greedy scan: acceptance conflicts only
    arise within a component, and the global ascending (cost, row-major
    position) merge reproduces the dense stable scan order bit for bit.
    """
    rows, cols, costs = _blocked_pairs(
        cost, feasible, lambda c, f: greedy_pairs_masked(c, f, max_cost=max_cost)
    )
    if rows.size == 0:
        return rows, cols
    return merge_pairs_by_cost(rows, cols, costs, cost.shape[1])


def maximum_weight_matching(weight: np.ndarray, min_weight: float = 0.0) -> Dict[int, int]:
    """Maximum-total-weight matching (used by revenue-maximising dispatchers).

    Pairs whose weight is below ``min_weight`` are never matched.
    """
    weight = np.asarray(weight, dtype=float)
    if weight.ndim != 2:
        raise ValueError("weight must be a 2-D matrix")
    if weight.size == 0:
        return {}
    capped = np.where(weight >= min_weight, weight, -np.inf)
    finite = capped[np.isfinite(capped)]
    if finite.size == 0:
        return {}
    offset = finite.max() + 1.0
    cost = np.where(np.isfinite(capped), offset - capped, offset * 10)
    row_indices, col_indices = linear_sum_assignment(cost)
    assignment: Dict[int, int] = {}
    for row, col in zip(row_indices, col_indices):
        if np.isfinite(capped[row, col]):
            assignment[int(row)] = int(col)
    return assignment
