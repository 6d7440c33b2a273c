"""Vectorized task-assignment engine over struct-of-arrays state.

This module is the batched counterpart of the per-object loop in
:mod:`repro.dispatch.simulator`.  Orders live in an
:class:`~repro.dispatch.entities.OrderArrays` (one column per field), drivers
in a :class:`~repro.dispatch.entities.FleetArrays`, and every per-minute step
— idle filtering, order-batch collection, candidate distances, feasibility
masks — is an O(1) sequence of array passes instead of per-entity Python
calls.  Only the final walk over the (small) set of matched pairs stays a
Python loop, so metric accumulation happens in exactly the float-addition
order of the scalar engine.

Bit-identical replay
--------------------
The engine is a drop-in replacement for the scalar simulator: given the same
seed it produces the *identical* :class:`~repro.dispatch.entities.DispatchMetrics`
(not merely statistically equivalent).  Three properties make that hold:

1. **Deterministic RNG draw order.**  All randomness is consumed through the
   policies' ``reposition_arrays`` kernels, which draw in a documented, fixed
   order per slot: one ``rng.choice`` over the deficit/revenue cells, then one
   ``rng.random((movers, 2))`` whose rows are each mover's (x, y) jitter.
   NumPy fills array draws from the bit generator in C order, so this equals
   the scalar engine's interleaved per-driver scalar draws.  No draw ever
   depends on iteration order over a dict or set.
2. **Elementwise-identical kernels.**  The batched distance/feasibility maths
   applies the same IEEE-754 operations per element as the scalar calls, and
   the matching kernels in :mod:`repro.dispatch.matching` are shared verbatim
   by both engines.
3. **Accumulation order.**  Served/revenue/travel sums are grouped per batch,
   per slot, then per run — the same float-addition grouping as the scalar
   loops.

These invariants are asserted by ``tests/dispatch/test_engine_equivalence.py``
which replays both engines across seeds, policies and fleet sizes.

Sparse spatial matching
-----------------------
Both engines historically built a dense ``(pending orders x idle drivers)``
cost matrix per batch and handed it whole to the matching kernel — O(N*M)
distance work dominated by pairs that can never be feasible (an order only
reaches drivers within ``remaining_wait / 60 * speed_kmh`` km).  Once a
batch's ``pending * idle`` reaches :data:`SPARSE_AUTO_THRESHOLD` the engine
replaces that with the sparse pipeline:

1. **index** — bin the idle drivers into a
   :class:`~repro.dispatch.spatial.GridBucketIndex` (the paper's grid cell
   geometry reused as a spatial index);
2. **prune** — cut each alive order to its tie-inclusive ``K`` cheapest
   feasible drivers, ``K`` = the batch's alive-order count, in two gather
   passes and one cut:

   a. a count-only box query
      (:meth:`~repro.dispatch.spatial.GridBucketIndex.count_in_boxes`)
      shrinks the gather radius to ``rho`` wherever the full box holds more
      than ``PRUNE_BOX_FACTOR * K`` drivers; the drivers boxed at ``rho``
      go through the dense path's bit-identical feasibility arithmetic;
   b. an order with fewer than ``K`` feasible drivers within ``rho``
      re-gathers at its full radius.  Every other order already holds its
      ``K`` cheapest: the box is a superset of the radius-``rho`` disc, so
      every driver at ``d <= rho`` was tested, and feasibility
      ``(d / speed) * 60 + wait <= limit`` is monotone in ``d``, so no
      untested driver (all at ``d > rho``) undercuts the ``K`` feasible
      ones within ``rho``;
   c. each order keeps every edge no dearer than its ``K``-th cheapest.
      This is the exchange argument: with ``K`` orders in the batch, a
      matching can always swap an order matched outside its ``K`` cheapest
      onto a free cheaper driver, and the greedy scan can never be pushed
      past ``K - 1`` taken drivers.  Greedy output is therefore
      bit-identical; Hungarian/LS objectives are preserved, up to the tie
      caveat documented in :mod:`repro.dispatch.matching`;
3. **decompose** — split the pruned feasibility graph into connected
   components (:func:`~repro.dispatch.matching.edge_components`, canonical
   ordering documented there);
4. **solve** — every one-order star in one segmented pass
   (``policy.match_single_orders``), every other block through the
   policy's ``match_pairs`` kernel, and merge the pairs back into the dense
   kernel's emission order (``policy.match_order``: ``"row"`` for the
   assignment solvers, ``"cost"`` for the greedy scan).

The per-batch cost drops from O(N*M) to output-sensitive near-linear work.
The engine alone makes this choice, per batch, from a size it observes;
every user-facing run, the live service and ingest-log replay run the same
rule.  The constructor's ``sparse`` mode (:data:`SPARSE_MODES`, default
``"auto"``) is the oracle seam: tests, benchmarks and the differential
fuzzer force ``"never"`` (dense, the oracle) or ``"always"`` to compare the
two pipelines.  Under a Hungarian tie the pipelines may pick different
equal-objective matchings and so leave different fleet state (the caveat in
:mod:`repro.dispatch.matching`).

Fleet & order lifecycle
-----------------------
Per-driver shift windows (``FleetArrays.online_from``/``online_until``,
recurring minutes of day) are masked out of the idle set — and therefore out
of the sparse index, which is built over the idle subset — in both engines;
rider cancellations (pending orders whose wait exceeds their patience) are
counted once per drop in ``DispatchMetrics.cancelled_orders``; and
:meth:`VectorizedAssignmentEngine.run` accepts one :class:`OrderArrays` per
test day for multi-day replay, carrying fleet state across the
``DAY_MINUTES`` day boundary.  The scalar simulator implements the identical
semantics, so the bit-identity contract extends to lifecycle scenarios (see
``tests/dispatch/test_lifecycle.py``).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

from repro.dispatch.demand import PredictedDemandProvider
from repro.dispatch.entities import (
    DAY_MINUTES,
    DispatchMetrics,
    FleetArrays,
    OrderArrays,
    online_mask,
)
from repro.dispatch.matching import edge_components, k_cheapest_mask
from repro.dispatch.spatial import GridBucketIndex
from repro.dispatch.travel import TravelModel


def infer_minutes_per_slot(arrival_minute: np.ndarray, slot: np.ndarray) -> float:
    """Best-effort slot length (minutes) from an order stream.

    Every order satisfies ``slot * mps <= arrival < (slot + 1) * mps``, so
    each order yields the lower bound ``arrival / (slot + 1)`` on the slot
    length; the tightest bound across the stream, floored at the paper's
    30-minute default, is returned.  Unlike the historical
    ``latest_arrival / (max_slot + 1)`` heuristic this cannot be skewed by an
    early arrival in the last slot, but it is still inference — callers that
    know the dataset's :class:`~repro.data.events.TimeSlotConfig` should pass
    ``minutes_per_slot`` explicitly (scenario bundles do), which is exact for
    every slot window, offset or not.
    """
    arrival = np.asarray(arrival_minute, dtype=float)
    slots = np.asarray(slot, dtype=float)
    if arrival.size == 0:
        return 30.0
    return max(30.0, float(np.max(arrival / (slots + 1.0))))

#: ``sparse="auto"`` switches to the sparse pipeline once the dense candidate
#: matrix of a batch would hold at least this many cells.  Below it the dense
#: array passes are already cache-resident and the pruning bookkeeping would
#: cost more than it saves.
SPARSE_AUTO_THRESHOLD = 16384

#: Accepted values of the ``sparse`` engine mode.
SPARSE_MODES = ("auto", "always", "never")

#: First-pass gather target of the sparse prune: an order whose full-radius
#: box holds more than ``PRUNE_BOX_FACTOR * K`` idle drivers (``K`` = the
#: batch's alive orders) is gathered at the radius whose box area, at the
#: box's mean density, holds about that many.  The factor only trades gather
#: size against full-radius re-gathers; the result is exact for any value.
PRUNE_BOX_FACTOR = 4


class ArrayPolicy(Protocol):
    """Array-kernel strategy interface implemented by POLAR and LS."""

    name: str

    #: Emission order of :meth:`match_pairs`: ``"row"`` (ascending row, the
    #: assignment solvers) or ``"cost"`` (ascending cost then row-major
    #: position, the greedy scan).  The sparse pipeline merges its
    #: per-component pairs back into this order.
    match_order: str

    def reposition_arrays(
        self,
        fleet: FleetArrays,
        predicted_hgrid_demand: Optional[np.ndarray],
        travel: TravelModel,
        minute: float,
        rng: np.random.Generator,
    ) -> None:
        """Move idle drivers based on the predicted demand (in place)."""
        ...

    def match_pairs(
        self,
        distance: np.ndarray,
        feasible: np.ndarray,
        revenue: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Match an ``(orders, drivers)`` candidate matrix.

        ``distance`` holds pickup distances, ``feasible`` the wait-constraint
        mask and ``revenue`` the per-order revenues (used by revenue-weighted
        objectives).  Returns the matched ``(rows, cols)`` local index pairs
        in the scalar assignment's iteration order.
        """
        ...

    def match_single_orders(
        self,
        distance: np.ndarray,
        cols: np.ndarray,
        starts: np.ndarray,
        revenue: np.ndarray,
    ) -> np.ndarray:
        """:meth:`match_pairs` on many one-order components at once.

        The stars' edges lie back to back, star ``i`` starting at
        ``starts[i]``; ``revenue`` has one entry per star.  Returns, per
        star, the index of its chosen edge, or ``-1`` for no match.
        """
        ...

    def match_single_driver(self, distance: np.ndarray, revenue: np.ndarray) -> int:
        """:meth:`match_pairs` on a one-driver component: the chosen row, or ``-1``."""
        ...


class VectorizedAssignmentEngine:
    """Runs one dispatch policy over array state, slot by slot.

    The production engine; parameters mirror the scalar oracle
    :class:`~repro.dispatch.simulator.TaskAssignmentSimulator`, which it
    reproduces bit for bit.  A scenario's engine comes from
    :meth:`~repro.dispatch.scenarios.ScenarioBundle.engine`.

    ``"auto"`` (default) picks the matching pipeline per batch on
    :data:`SPARSE_AUTO_THRESHOLD`; ``sparse="never"`` (always dense, the
    oracle) and ``"always"`` (always pruned through the grid index) force
    one pipeline and are the oracle seam, not a user option.
    """

    def __init__(
        self,
        policy: ArrayPolicy,
        travel: TravelModel,
        demand: Optional[PredictedDemandProvider] = None,
        batch_minutes: float = 2.0,
        unserved_penalty_km: float = 5.0,
        sparse: str = "auto",
        sparse_threshold: int = SPARSE_AUTO_THRESHOLD,
        minutes_per_slot: Optional[float] = None,
    ) -> None:
        if not batch_minutes > 0:
            # Also rejects NaN; a batch that never advances the clock would
            # spin the slot loop forever.
            raise ValueError("batch_minutes must be positive")
        if sparse not in SPARSE_MODES:
            raise ValueError(f"sparse must be one of {SPARSE_MODES}")
        if sparse_threshold < 0:
            raise ValueError("sparse_threshold must be non-negative")
        if minutes_per_slot is not None and minutes_per_slot <= 0:
            raise ValueError("minutes_per_slot must be positive")
        self.policy = policy
        self.travel = travel
        self.demand = demand
        self.batch_minutes = batch_minutes
        self.unserved_penalty_km = unserved_penalty_km
        self.sparse = sparse
        self.sparse_threshold = int(sparse_threshold)
        self.minutes_per_slot = minutes_per_slot

    # ------------------------------------------------------------------ #

    def run(
        self,
        orders: Union[OrderArrays, Sequence[OrderArrays]],
        fleet: FleetArrays,
        rng: np.random.Generator,
        day: int = 0,
        slots: Optional[Sequence[int]] = None,
        days: Optional[int] = None,
    ) -> DispatchMetrics:
        """Simulate the assignment of ``orders`` to the ``fleet`` in place.

        ``orders`` is one :class:`OrderArrays` (single-day replay, the
        default) or a sequence of per-day streams (multi-day replay);
        ``days`` optionally asserts the expected replay length.  Day ``d`` of
        a multi-day replay runs ``d * DAY_MINUTES`` later on the absolute
        clock and asks the demand provider for day ``day + d``; fleet state
        — positions, ``available_at``, per-driver stats — carries across the
        day boundary, so an overnight trip keeps its driver busy into the
        next morning and shift windows (which recur daily) re-open.
        """
        if isinstance(orders, OrderArrays):
            orders_per_day: List[OrderArrays] = [orders]
        else:
            orders_per_day = list(orders)
        if days is not None and days != len(orders_per_day):
            raise ValueError(
                f"days={days} but {len(orders_per_day)} per-day order stream(s) given"
            )
        if sum(len(day_orders) for day_orders in orders_per_day) == 0:
            return DispatchMetrics(0, 0, 0.0, 0.0, 0.0, 0)
        if len(fleet) == 0:
            raise ValueError("at least one driver is required")
        served = 0
        cancelled = 0
        total_orders = 0
        revenue = 0.0
        travel_km = 0.0
        for offset, day_orders in enumerate(orders_per_day):
            # A day with no orders is skipped entirely (no repositioning
            # draws), matching the scalar engine's empty-day early return.
            if len(day_orders) == 0:
                continue
            day_result = self._run_day(
                day_orders, fleet, rng, day + offset, offset * DAY_MINUTES, slots
            )
            served += day_result[0]
            cancelled += day_result[1]
            revenue += day_result[2]
            travel_km += day_result[3]
            total_orders += day_result[4]
        unified_cost = travel_km + self.unserved_penalty_km * (total_orders - served)
        return DispatchMetrics(
            served_orders=served,
            total_orders=total_orders,
            total_revenue=float(revenue),
            total_travel_km=float(travel_km),
            unified_cost=float(unified_cost),
            cancelled_orders=cancelled,
        )

    # ------------------------------------------------------------------ #

    def _run_day(
        self,
        orders: OrderArrays,
        fleet: FleetArrays,
        rng: np.random.Generator,
        day: int,
        day_offset: float,
        slots: Optional[Sequence[int]],
    ) -> Tuple[int, int, float, float, int]:
        """One day of the replay; returns (served, cancelled, revenue, km, total)."""
        if slots is None:
            day_slots = [int(s) for s in np.unique(orders.slot)]
        else:
            day_slots = [int(s) for s in slots]
        minutes_per_slot = self._resolve_minutes_per_slot(orders)
        # Trip legs depend only on the order, so they are precomputed for the
        # whole stream in two array passes.
        trip_km = self.travel.distance_km(
            orders.x, orders.y, orders.dropoff_x, orders.dropoff_y
        )
        trip_minutes = self.travel.minutes(trip_km)
        served = 0
        cancelled = 0
        revenue = 0.0
        travel_km = 0.0
        # When the slot column is non-decreasing (the OrderArrays invariant),
        # each slot is a contiguous index range found by bisection instead of
        # a full-array scan per slot.
        slot_column_sorted = bool(np.all(orders.slot[:-1] <= orders.slot[1:]))
        # Per-slot order counts collected while walking the slots; summing
        # the (deduplicated) counts replaces the former O(N*S) ``np.isin``
        # pass over the whole order stream.
        slot_counts: Dict[int, int] = {}
        for slot in day_slots:
            slot_start = day_offset + slot * minutes_per_slot
            predicted = self._predicted_demand(day, slot)
            self.policy.reposition_arrays(
                fleet, predicted, self.travel, slot_start, rng
            )
            if slot_column_sorted:
                lo = int(orders.slot.searchsorted(slot, side="left"))
                hi = int(orders.slot.searchsorted(slot, side="right"))
                in_slot = np.arange(lo, hi, dtype=np.intp)
            else:
                in_slot = np.nonzero(orders.slot == slot)[0]
            slot_counts[int(slot)] = int(in_slot.size)
            if in_slot.size:
                # Stable sort matches the scalar engine's per-slot
                # ``sorted(..., key=arrival_minute)``.
                in_slot = in_slot[
                    np.argsort(orders.arrival_minute[in_slot], kind="stable")
                ]
            slot_served, slot_cancelled, slot_revenue, slot_km = self._run_slot(
                orders,
                in_slot,
                fleet,
                slot_start,
                minutes_per_slot,
                trip_km,
                trip_minutes,
                day_offset,
            )
            served += slot_served
            cancelled += slot_cancelled
            revenue += slot_revenue
            travel_km += slot_km
        return served, cancelled, revenue, travel_km, sum(slot_counts.values())

    # ------------------------------------------------------------------ #

    def _resolve_minutes_per_slot(self, orders: OrderArrays) -> float:
        if self.minutes_per_slot is not None:
            return float(self.minutes_per_slot)
        return infer_minutes_per_slot(orders.arrival_minute, orders.slot)

    def _predicted_demand(self, day: int, slot: int) -> Optional[np.ndarray]:
        if self.demand is None:
            return None
        if not self.demand.has_slot(day, slot):
            return None
        return self.demand.hgrid_demand(day, slot)

    def _use_sparse(self, alive: int, idle: int) -> bool:
        if self.sparse == "auto":
            return alive * idle >= self.sparse_threshold
        return self.sparse == "always"

    def _run_slot(
        self,
        orders: OrderArrays,
        slot_indices: np.ndarray,
        fleet: FleetArrays,
        slot_start: float,
        minutes_per_slot: float,
        trip_km: np.ndarray,
        trip_minutes: np.ndarray,
        day_offset: float = 0.0,
    ) -> Tuple[int, int, float, float]:
        if slot_indices.size == 0:
            return 0, 0, 0.0, 0.0
        run = _SlotRun(self, fleet, slot_start, minutes_per_slot)
        # Per-slot order columns, sorted by arrival (the slot_indices order).
        # Arrivals are day-relative; the day offset lifts them onto the
        # absolute replay clock (a no-op bitwise for day 0).
        run.extend(
            orders.arrival_minute[slot_indices] + day_offset,
            orders.max_wait_minutes[slot_indices],
            orders.revenue[slot_indices],
            orders.x[slot_indices],
            orders.y[slot_indices],
            orders.dropoff_x[slot_indices],
            orders.dropoff_y[slot_indices],
            trip_km[slot_indices],
            trip_minutes[slot_indices],
        )
        run.drain()
        return run.served, run.cancelled, run.revenue, run.travel_km

    # ------------------------------------------------------------------ #

    def _match_sparse(
        self,
        alive_x: np.ndarray,
        alive_y: np.ndarray,
        alive_waits: np.ndarray,
        alive_limits: np.ndarray,
        alive_revenue: np.ndarray,
        idle_x: np.ndarray,
        idle_y: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index -> prune -> decompose -> solve one batch without the dense matrix.

        Returns ``(rows, cols, pickup_km)`` with rows/cols indexing the alive
        orders / idle drivers of the batch, in the policy's dense emission
        order; the pickup distances are bit-identical to the dense matrix
        entries (same elementwise arithmetic on the same operands).
        """
        travel = self.travel
        speed = travel.speed_kmh
        n_orders = int(alive_x.size)
        empty = np.empty(0, dtype=np.intp)
        policy = self.policy
        index = GridBucketIndex(idle_x, idle_y, travel)
        edge_rows, edge_cols, edge_km = self._pruned_edges(
            index, alive_x, alive_y, alive_waits, alive_limits, idle_x, idle_y
        )
        if edge_rows.size == 0:
            return empty, empty.copy(), np.empty(0, dtype=float)
        components = edge_components(edge_rows, edge_cols, n_orders, int(idle_x.size))
        out_rows: List[np.ndarray] = []
        out_cols: List[np.ndarray] = []
        out_km: List[np.ndarray] = []
        # Star components (one order) hold exactly that order's edges, so
        # their block solves collapse to the policy's single-row rule,
        # applied to every star at once over its (row-grouped) edges.
        star_rows = np.array(
            [rows[0] for rows, _ in components if rows.size == 1], dtype=np.intp
        )
        if star_rows.size:
            is_star = np.zeros(n_orders, dtype=bool)
            is_star[star_rows] = True
            star_edge = is_star[edge_rows]
            star_cols = edge_cols[star_edge]
            star_km = edge_km[star_edge]
            counts = np.bincount(edge_rows[star_edge], minlength=n_orders)[star_rows]
            chosen = policy.match_single_orders(
                star_km, star_cols, np.cumsum(counts) - counts, alive_revenue[star_rows]
            )
            hit = chosen >= 0
            out_rows.append(star_rows[hit])
            out_cols.append(star_cols[chosen[hit]])
            out_km.append(star_km[chosen[hit]])
        for rows, cols in components:
            if rows.size == 1:
                continue
            if cols.size == 1:
                # Star component (one driver): every row is feasible for it.
                col_km = np.asarray(
                    travel.distance_km(
                        alive_x[rows], alive_y[rows], idle_x[cols[0]], idle_y[cols[0]]
                    )
                )
                local = policy.match_single_driver(col_km, alive_revenue[rows])
                if local < 0:
                    continue
                out_rows.append(rows[local : local + 1])
                out_cols.append(cols)
                out_km.append(col_km[local : local + 1])
                continue
            sub_distance = travel.pairwise_km(
                alive_x[rows], alive_y[rows], idle_x[cols], idle_y[cols]
            )
            scratch = sub_distance / speed
            scratch *= 60.0
            scratch += alive_waits[rows][:, None]
            sub_feasible = scratch <= alive_limits[rows][:, None]
            local_rows, local_cols = policy.match_pairs(
                sub_distance, sub_feasible, alive_revenue[rows]
            )
            if local_rows.size == 0:
                continue
            out_rows.append(rows[local_rows])
            out_cols.append(cols[local_cols])
            out_km.append(sub_distance[local_rows, local_cols])
        if not out_rows:
            return empty, empty.copy(), np.empty(0, dtype=float)
        rows = np.concatenate(out_rows)
        cols = np.concatenate(out_cols)
        pair_km = np.concatenate(out_km)
        # Merge into the dense kernel's emission order: ascending row for the
        # assignment solvers (rows are unique across components), ascending
        # (cost, row-major flat position in the dense matrix) for the greedy
        # scan.
        if policy.match_order == "cost":
            order = np.lexsort((rows * int(idle_x.size) + cols, pair_km))
        else:
            order = np.argsort(rows, kind="stable")
        return rows[order], cols[order], pair_km[order]

    def _pruned_edges(
        self,
        index: GridBucketIndex,
        alive_x: np.ndarray,
        alive_y: np.ndarray,
        alive_waits: np.ndarray,
        alive_limits: np.ndarray,
        idle_x: np.ndarray,
        idle_y: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each order's tie-inclusive ``K`` cheapest feasible drivers.

        ``K`` is the batch's alive-order count.  Returns ``(rows, cols, km)``
        grouped by ascending row.  Both gather passes and the cut are exact
        (see the module docstring's *prune* stage): the edge set equals
        cutting the full-radius feasible edges to ``K`` per row.
        """
        n_orders = int(alive_x.size)
        k = n_orders
        # Max feasible pickup distance from each order's remaining wait
        # tolerance: pickup_minutes + wait <= limit <=> km <= slack / 60 *
        # speed.  Float rounding of the radius cannot change results: the
        # gather is a superset and the exact feasibility test decides.
        radii_km = (alive_limits - alive_waits) * self.travel.speed_kmh / 60.0
        # Pass 1 radius rho: box counts grow with the box area, so scaling
        # the radius by sqrt(target / count) aims each crowded box at the
        # target count; an order already under it keeps its full radius.
        boxed = index.count_in_boxes(alive_x, alive_y, radii_km)
        target = PRUNE_BOX_FACTOR * k
        rho = radii_km * np.sqrt(np.minimum(target / np.maximum(boxed, 1), 1.0))
        rows, cols, km = self._feasible_edges(
            index, alive_x, alive_y, alive_waits, alive_limits, idle_x, idle_y, rho
        )
        # Pass 2: an order whose K cheapest are not all provably inside its
        # shrunken radius re-gathers at the full one.
        within_rho = np.bincount(rows[km <= rho[rows]], minlength=n_orders)
        redo = np.flatnonzero((rho < radii_km) & (within_rho < k))
        if redo.size:
            kept = np.ones(n_orders, dtype=bool)
            kept[redo] = False
            kept = kept[rows]
            redo_rows, redo_cols, redo_km = self._feasible_edges(
                index,
                alive_x[redo],
                alive_y[redo],
                alive_waits[redo],
                alive_limits[redo],
                idle_x,
                idle_y,
                radii_km[redo],
            )
            # Two ascending runs: the stable merge back into row groups is
            # linear.
            rows = np.concatenate([rows[kept], redo[redo_rows]])
            order = np.argsort(rows, kind="stable")
            rows = rows[order]
            cols = np.concatenate([cols[kept], redo_cols])[order]
            km = np.concatenate([km[kept], redo_km])[order]
        keep = k_cheapest_mask(rows, km, n_orders, k)
        return rows[keep], cols[keep], km[keep]

    def _feasible_edges(
        self,
        index: GridBucketIndex,
        order_x: np.ndarray,
        order_y: np.ndarray,
        waits: np.ndarray,
        limits: np.ndarray,
        idle_x: np.ndarray,
        idle_y: np.ndarray,
        radii_km: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Feasible ``(rows, cols, km)`` among the drivers boxed at ``radii_km``.

        One flattened pass over every (order, candidate) pair: the
        elementwise distance (bit-identical to the dense path's pairwise_km
        entries — the sign-flipped delta vanishes under abs/square) followed
        by the dense path's exact feasibility arithmetic,
        ``(d / speed) * 60 + wait <= limit``.  Rows come back grouped by
        ascending order index.
        """
        travel = self.travel
        rows, cols = index.candidates_in_boxes(order_x, order_y, radii_km)
        distance = travel.distance_km(order_x[rows], order_y[rows], idle_x[cols], idle_y[cols])
        scratch = distance / travel.speed_kmh
        scratch *= 60.0
        scratch += waits[rows]
        keep = scratch <= limits[rows]
        return rows[keep], cols[keep], distance[keep]


class _SlotRun:
    """One slot's micro-batch state: the engine's batch-loop body, reified.

    Both execution modes of the engine drive this object, so they cannot
    drift apart:

    * the offline replay (:meth:`VectorizedAssignmentEngine._run_slot`)
      constructs it with the slot's fully gathered order columns and runs
      :meth:`drain`;
    * the incremental :class:`DispatchSession` constructs it empty and
      interleaves :meth:`extend` (admissions) with :meth:`step` (batch
      boundaries).

    The per-order columns are local to the slot and append-only; the pending
    pool, cancellation filter, idle mask, dense/sparse matching and the
    scalar matched-pair walk are the exact array and float operations of the
    historical inline loop — accumulation order included — which is what
    keeps the scalar oracle's bit-identity contract intact for both modes.
    """

    _COLUMNS = (
        "sl_arrival",
        "sl_max_wait",
        "sl_revenue",
        "sl_x",
        "sl_y",
        "sl_dropoff_x",
        "sl_dropoff_y",
        "sl_trip_km",
        "sl_trip_minutes",
    )

    def __init__(
        self,
        engine: VectorizedAssignmentEngine,
        fleet: FleetArrays,
        slot_start: float,
        minutes_per_slot: float,
        collect_events: bool = False,
    ) -> None:
        self.engine = engine
        self.collect_events = collect_events
        self.travel = engine.travel
        self.speed = engine.travel.speed_kmh
        self.avail = fleet.available_at
        self.fleet_x = fleet.x
        self.fleet_y = fleet.y
        self.fleet_served = fleet.served_orders
        self.fleet_earned = fleet.earned_revenue
        # Shift windows: drivers off shift are masked out of the idle set
        # (and therefore out of the sparse index, which is built over the
        # idle subset only).  The mask is skipped entirely for always-online
        # fleets so the fixed-fleet hot path stays a single comparison.
        self.has_shifts = fleet.has_shifts
        self.online_from = fleet.online_from
        self.online_until = fleet.online_until
        for name in self._COLUMNS:
            setattr(self, name, np.empty(0, dtype=float))
        # Python-side copies of the tiny per-order columns: the matched-pair
        # walk reads a handful of scalars per pair, so it runs on plain
        # floats (bit-identical to the float64 array ops) without per-call
        # NumPy overhead.
        self.arrival_list: List[float] = []
        self.max_wait_list: List[float] = []
        # Pending pool: local order indices (ascending), maintained
        # incrementally — arrivals are appended once, expiries and matches
        # filter the array in place, and the per-batch wait/patience columns
        # are O(pending) gathers instead of rebuilt Python list
        # comprehensions.
        self.pending = np.empty(0, dtype=np.intp)
        self.taken = 0
        self.batch_start = slot_start
        self.slot_end = slot_start + minutes_per_slot
        self.served = 0
        self.cancelled = 0
        self.revenue = 0.0
        self.travel_km = 0.0

    @property
    def done(self) -> bool:
        return self.batch_start >= self.slot_end

    @property
    def next_minute(self) -> float:
        """End of the next batch to fire (the current boundary)."""
        return min(self.batch_start + self.engine.batch_minutes, self.slot_end)

    @property
    def unresolved(self) -> int:
        """Orders admitted to this slot that are neither matched nor dropped."""
        return len(self.arrival_list) - self.taken + int(self.pending.size)

    def extend(self, *columns: np.ndarray) -> None:
        """Append admitted orders (one array per ``_COLUMNS`` entry).

        Arrivals must be non-decreasing across calls and at or past every
        boundary already fired — :class:`DispatchSession` validates both; the
        offline path extends exactly once before draining.
        """
        if columns[0].size == 0:
            return
        if self.sl_arrival.size:
            for name, column in zip(self._COLUMNS, columns):
                setattr(self, name, np.concatenate([getattr(self, name), column]))
        else:
            for name, column in zip(self._COLUMNS, columns):
                setattr(self, name, column)
        self.arrival_list.extend(columns[0].tolist())
        self.max_wait_list.extend(columns[1].tolist())

    def drain(self) -> None:
        """Fire every remaining batch boundary up to the slot end."""
        while self.batch_start < self.slot_end:
            self.step()

    def step(self) -> Tuple[float, List[Tuple[int, int]], List[int]]:
        """Fire one batch boundary; returns ``(minute, assigned, cancelled)``.

        ``assigned`` holds ``(local order index, fleet row)`` pairs and
        ``cancelled`` the local indices dropped at this boundary — both stay
        empty unless ``collect_events`` (the offline replay never reads them,
        so it pays nothing for the service's latency bookkeeping).
        """
        engine = self.engine
        travel = self.travel
        speed = self.speed
        avail = self.avail
        fleet_x = self.fleet_x
        fleet_y = self.fleet_y
        sl_arrival = self.sl_arrival
        sl_revenue = self.sl_revenue
        minute = min(self.batch_start + engine.batch_minutes, self.slot_end)
        assigned_events: List[Tuple[int, int]] = []
        cancelled_events: List[int] = []
        # Orders with arrival < batch end join the pending pool.
        take = int(sl_arrival.searchsorted(minute, side="left"))
        pending = self.pending
        if take > self.taken:
            pending = np.concatenate(
                [pending, np.arange(self.taken, take, dtype=np.intp)]
            )
            self.taken = take
        if pending.size == 0:
            self.pending = pending
            self.batch_start = minute
            return minute, assigned_events, cancelled_events
        # Drop orders that have waited past their tolerance; each drop is
        # a rider cancellation, counted once.
        waits = minute - sl_arrival[pending]
        limits = self.sl_max_wait[pending]
        alive_mask = waits <= limits
        alive_index = pending[alive_mask]
        if self.collect_events and alive_index.size != pending.size:
            cancelled_events = pending[~alive_mask].tolist()
        self.cancelled += int(pending.size - alive_index.size)
        pending = alive_index
        if alive_index.size:
            if self.has_shifts:
                idle = np.nonzero(
                    (avail <= minute)
                    & online_mask(self.online_from, self.online_until, minute)
                )[0]
            else:
                idle = np.nonzero(avail <= minute)[0]
            if idle.size:
                alive_waits = waits[alive_mask]
                alive_limits = limits[alive_mask]
                if engine._use_sparse(alive_index.size, idle.size):
                    rows, cols, pair_km = engine._match_sparse(
                        self.sl_x[alive_index],
                        self.sl_y[alive_index],
                        alive_waits,
                        alive_limits,
                        sl_revenue[alive_index],
                        np.take(fleet_x, idle),
                        np.take(fleet_y, idle),
                    )
                else:
                    distance = travel.pairwise_km(
                        self.sl_x[alive_index],
                        self.sl_y[alive_index],
                        np.take(fleet_x, idle),
                        np.take(fleet_y, idle),
                    )
                    # In-place: pickup minutes then the wait-feasibility
                    # sum; the scratch matrix is not needed afterwards.
                    scratch = distance / speed
                    scratch *= 60.0
                    scratch += alive_waits[:, None]
                    feasible = scratch <= alive_limits[:, None]
                    rows, cols = engine.policy.match_pairs(
                        distance, feasible, sl_revenue[alive_index]
                    )
                    pair_km = distance[rows, cols]
                batch_served = 0
                batch_revenue = 0.0
                batch_km = 0.0
                assigned = []
                alive_list = alive_index.tolist()
                arrival_list = self.arrival_list
                max_wait_list = self.max_wait_list
                fleet_served = self.fleet_served
                fleet_earned = self.fleet_earned
                sl_trip_minutes = self.sl_trip_minutes
                sl_trip_km = self.sl_trip_km
                sl_dropoff_x = self.sl_dropoff_x
                sl_dropoff_y = self.sl_dropoff_y
                # The walk over matched pairs stays scalar so float
                # accumulation and driver-state updates happen in the
                # scalar engine's order; the pair count is bounded by
                # min(orders, drivers) per batch.
                for row, col, pickup_km in zip(
                    rows.tolist(), cols.tolist(), pair_km.tolist()
                ):
                    local = alive_list[row]
                    driver = idle[col]
                    # Same float ops as TravelModel.minutes on a scalar.
                    pickup_minutes = pickup_km / speed * 60.0
                    order_arrival = arrival_list[local]
                    if minute + pickup_minutes - order_arrival > max_wait_list[local]:
                        continue
                    start = avail[driver]
                    if order_arrival > start:
                        start = order_arrival
                    avail[driver] = start + pickup_minutes + sl_trip_minutes[local]
                    fleet_x[driver] = sl_dropoff_x[local]
                    fleet_y[driver] = sl_dropoff_y[local]
                    fleet_served[driver] += 1
                    fleet_earned[driver] += sl_revenue[local]
                    batch_served += 1
                    batch_revenue += sl_revenue[local]
                    batch_km += pickup_km + sl_trip_km[local]
                    assigned.append(row)
                    if self.collect_events:
                        assigned_events.append((local, int(driver)))
                self.served += batch_served
                self.revenue += float(batch_revenue)
                self.travel_km += float(batch_km)
                if assigned:
                    if batch_served == alive_index.size:
                        pending = np.empty(0, dtype=np.intp)
                    else:
                        keep = np.ones(alive_index.size, dtype=bool)
                        keep[assigned] = False
                        pending = alive_index[keep]
        self.pending = pending
        self.batch_start = minute
        return minute, assigned_events, cancelled_events


class SessionEvent(NamedTuple):
    """One order resolution observed by a :class:`DispatchSession`.

    ``order`` is the order's admission index (its position in the admitted
    stream, which equals its row in the offline replay's arrival-sorted
    :class:`OrderArrays`); ``driver`` is the matched fleet row, or ``-1`` for
    a rider cancellation; ``minute`` is the simulation minute of the batch
    boundary that resolved it.
    """

    kind: str
    order: int
    driver: int
    minute: float


class DispatchSession:
    """Incremental pending-pool admission over the vectorized engine.

    The always-on dispatch service (:mod:`repro.service`) drives the engine
    through this object: orders are admitted in arrival order as they reach
    the server, batch boundaries fire as the admitted watermark passes them,
    and a graceful drain closes the stream.  The central contract is the
    **determinism bridge**: replaying the admitted stream offline through
    :meth:`VectorizedAssignmentEngine.run` — fresh fleet, same seed —
    reproduces the session's :class:`DispatchMetrics` bit-identically,
    because both paths execute the same :class:`_SlotRun` code.

    Three rules uphold the bridge:

    * **Monotone admission.**  Arrivals must be globally non-decreasing,
      each inside its slot window ``[slot * mps, (slot + 1) * mps)``, slots
      non-decreasing.  Violations raise ``ValueError`` before any state
      changes.
    * **Watermark-gated boundaries.**  A batch boundary ``B`` fires only
      once the admitted watermark reaches ``B`` (or on drain).  Admission at
      a boundary is strict (``searchsorted(side="left")`` excludes
      ``arrival == B``), so no future order can belong to a fired batch.
    * **Lazy slot entry.**  A slot is entered on its first admitted order —
      the same slots, in the same order, as the offline replay's
      ``np.unique(orders.slot)`` walk — closing the previous slot (its
      remaining boundaries run to the slot end) and then drawing the
      repositioning RNG.  Slots that never receive an order are never
      entered and draw nothing.

    Wall-clock concerns — micro-batch caps, idle waits, latency —
    live entirely in the service layer; they decide *when* ``admit`` and
    ``advance`` are called, never what they compute.
    """

    def __init__(
        self,
        engine: VectorizedAssignmentEngine,
        fleet: FleetArrays,
        rng: np.random.Generator,
        day: int = 0,
    ) -> None:
        if len(fleet) == 0:
            raise ValueError("at least one driver is required")
        self.engine = engine
        self.fleet = fleet
        self.rng = rng
        self.day = int(day)
        # Replay inference safety: an explicit engine slot length is used
        # verbatim; otherwise the 30-minute default is enforced through the
        # slot-window validation below, so `infer_minutes_per_slot` on the
        # logged stream lands on exactly 30.0 and the offline replay agrees.
        mps = engine.minutes_per_slot
        self.minutes_per_slot = float(mps) if mps is not None else 30.0
        self._slot: Optional[int] = None
        self._run: Optional[_SlotRun] = None
        self._slot_base = 0
        self._admitted = 0
        self._watermark = float("-inf")
        self._served = 0
        self._cancelled = 0
        self._revenue = 0.0
        self._travel_km = 0.0
        self._metrics: Optional[DispatchMetrics] = None

    # ------------------------------------------------------------------ #

    @property
    def admitted_orders(self) -> int:
        return self._admitted

    @property
    def finished(self) -> bool:
        return self._metrics is not None

    @property
    def watermark(self) -> float:
        """Largest admitted arrival minute (``-inf`` before any admission)."""
        return self._watermark

    @property
    def pending_orders(self) -> int:
        """Admitted orders not yet matched, cancelled or expired with a slot."""
        run = self._run
        if run is None:
            return 0
        return int(run.unresolved)

    def admit(self, orders: OrderArrays) -> List[SessionEvent]:
        """Admit a chunk of orders (arrival-sorted, the OrderArrays invariant).

        Returns the events produced by slot changes inside the chunk (closing
        a slot fires its remaining boundaries).  Call :meth:`advance`
        afterwards to fire the boundaries the new watermark unlocked.
        """
        if self._metrics is not None:
            raise ValueError("session already finished")
        if len(orders) == 0:
            return []
        arrival = orders.arrival_minute
        slot = orders.slot
        if slot.size > 1 and bool(np.any(slot[:-1] > slot[1:])):
            raise ValueError("slot column must be non-decreasing within a chunk")
        if arrival.size > 1 and bool(np.any(arrival[:-1] > arrival[1:])):
            raise ValueError("arrivals must be non-decreasing within a chunk")
        first = float(arrival[0])
        if first < self._watermark:
            raise ValueError(
                f"arrival {first:g} is behind the admitted watermark "
                f"{self._watermark:g}; orders must be admitted in arrival order"
            )
        mps = self.minutes_per_slot
        window_start = slot * mps
        if bool(np.any(arrival < window_start)) or bool(
            np.any(arrival >= window_start + mps)
        ):
            raise ValueError(
                f"every arrival must lie inside its {mps:g}-minute slot window"
            )
        first_slot = int(slot[0])
        if self._slot is not None and first_slot < self._slot:
            raise ValueError(
                f"slot {first_slot} is behind the current slot {self._slot}"
            )
        events: List[SessionEvent] = []
        travel = self.engine.travel
        change = np.nonzero(slot[:-1] != slot[1:])[0] + 1
        group_starts = np.concatenate(([0], change))
        group_ends = np.concatenate((change, [slot.size]))
        for lo, hi in zip(group_starts.tolist(), group_ends.tolist()):
            group_slot = int(slot[lo])
            if self._slot is None or group_slot > self._slot:
                events.extend(self._open_slot(group_slot))
            elif self._run is None:
                raise ValueError(
                    f"slot {group_slot} was already drained; "
                    "admit to a later slot"
                )
            sel = slice(lo, hi)
            x = orders.x[sel]
            y = orders.y[sel]
            dropoff_x = orders.dropoff_x[sel]
            dropoff_y = orders.dropoff_y[sel]
            # Trip legs depend only on the order; the elementwise arithmetic
            # equals the offline replay's whole-stream precomputation.
            trip_km = travel.distance_km(x, y, dropoff_x, dropoff_y)
            trip_minutes = travel.minutes(trip_km)
            self._run.extend(
                arrival[sel] + 0.0,
                orders.max_wait_minutes[sel],
                orders.revenue[sel],
                x,
                y,
                dropoff_x,
                dropoff_y,
                trip_km,
                trip_minutes,
            )
            self._admitted += hi - lo
        self._watermark = float(arrival[-1])
        return events

    def advance(self, drain: bool = False) -> List[SessionEvent]:
        """Fire every batch boundary at or below the admitted watermark.

        ``drain=True`` instead closes the current slot unconditionally —
        remaining boundaries run to the slot end — after which only strictly
        later slots are admissible (shutdown, or a quiet slot the caller
        knows is over).
        """
        if drain:
            return self._close_slot()
        run = self._run
        if run is None:
            return []
        events: List[SessionEvent] = []
        while not run.done and run.next_minute <= self._watermark:
            events.extend(self._step_events(run))
        return events

    def finish(self) -> DispatchMetrics:
        """Close the session and build the run metrics (idempotent).

        Accumulation order matches :meth:`VectorizedAssignmentEngine.run`
        batch → slot → run, so the result is bit-identical to the offline
        replay of the admitted stream.  Events from the final drain are
        dropped here — call ``advance(drain=True)`` first to collect them.
        """
        if self._metrics is not None:
            return self._metrics
        self._close_slot()
        if self._admitted == 0:
            # Matches run()'s empty-stream early return.
            self._metrics = DispatchMetrics(0, 0, 0.0, 0.0, 0.0, 0)
            return self._metrics
        unified_cost = self._travel_km + self.engine.unserved_penalty_km * (
            self._admitted - self._served
        )
        self._metrics = DispatchMetrics(
            served_orders=self._served,
            total_orders=self._admitted,
            total_revenue=float(self._revenue),
            total_travel_km=float(self._travel_km),
            unified_cost=float(unified_cost),
            cancelled_orders=self._cancelled,
        )
        return self._metrics

    # ------------------------------------------------------------------ #

    def _open_slot(self, slot: int) -> List[SessionEvent]:
        events = self._close_slot()
        # Identical to _run_day: slot_start = day_offset + slot * mps with
        # the session pinned to day offset 0.0 (multi-day live streams use
        # absolute slot numbers, see the loadgen's day tiling).
        slot_start = 0.0 + slot * self.minutes_per_slot
        predicted = self.engine._predicted_demand(self.day, slot)
        self.engine.policy.reposition_arrays(
            self.fleet, predicted, self.engine.travel, slot_start, self.rng
        )
        self._slot = slot
        self._slot_base = self._admitted
        self._run = _SlotRun(
            self.engine,
            self.fleet,
            slot_start,
            self.minutes_per_slot,
            collect_events=True,
        )
        return events

    def _close_slot(self) -> List[SessionEvent]:
        run = self._run
        if run is None:
            return []
        events: List[SessionEvent] = []
        while not run.done:
            events.extend(self._step_events(run))
        self._served += run.served
        self._cancelled += run.cancelled
        self._revenue += run.revenue
        self._travel_km += run.travel_km
        self._run = None
        return events

    def _step_events(self, run: _SlotRun) -> List[SessionEvent]:
        minute, assigned, cancelled = run.step()
        base = self._slot_base
        events = [
            SessionEvent("assigned", base + local, driver, minute)
            for local, driver in assigned
        ]
        events.extend(
            SessionEvent("cancelled", base + local, -1, minute)
            for local in cancelled
        )
        return events
