"""Grid-bucketed spatial index for dispatch candidate pruning.

The paper's central data structure is a grid over the study area chosen to
make spatial aggregation cheap; this module reuses the same cell geometry —
the ``min(int(coord * resolution), resolution - 1)`` binning of
:meth:`repro.core.grid.GridSpec.cell_of` and
:func:`repro.dispatch.kernels.cell_supply` — as a *spatial index* over point
sets (idle drivers).  The sparse matching pipeline in
:mod:`repro.dispatch.engine` builds one :class:`GridBucketIndex` per
assignment batch and answers, for every pending order, "which drivers could
possibly be within this order's feasible pickup radius?" without touching the
rest of the fleet.

Two query levels are exposed:

* :meth:`GridBucketIndex.candidates_in_box` — the pruning primitive: indices
  of every point whose grid cell intersects the axis-aligned box of
  half-width ``radius_km`` around the query point.  This is a conservative
  *superset* of the points within ``radius_km`` under both the Manhattan and
  the Euclidean metric (``|dx_km| <= d`` holds for both), widened by one cell
  ring so floating-point rounding of the box edges can never exclude a point
  at exactly the radius boundary.  Callers apply their own exact test on the
  candidates (the engine re-runs the dense path's bit-identical feasibility
  arithmetic), so conservative pruning never changes results — only how much
  work is skipped.
* :meth:`GridBucketIndex.query_radius` — the exact query: candidate pruning
  followed by an exact distance filter.  Property tests assert it equals the
  brute-force distance mask over the full point set.

The bucket layout is CSR-style: one stable ``argsort`` over flat cell ids at
build time, then each cell (and each contiguous run of cells in a grid row)
is a slice — so a box query is one slice per grid row, not a scan over
points.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dispatch.travel import TravelModel


def default_resolution(count: int) -> int:
    """Grid side used when the caller does not pin one.

    Scales with ``sqrt(count / 2)`` so the expected bucket occupancy stays a
    small constant, clamped to ``[1, 255]`` — below ~2 points a finer grid
    only adds slicing overhead, and 255 is the largest side whose flat cell
    ids fit the index's uint16 radix sort.  The batched gather spends one
    slice per box row, so finer cells cost little: on a 40k-driver fleet
    day, lifting the former 96 clamp (to ~140 cells there) cut the gathered
    candidate pairs by a quarter at an unchanged gather time.
    """
    if count <= 1:
        return 1
    return max(1, min(255, int(math.sqrt(count / 2.0))))


class GridBucketIndex:
    """Bins points on the unit square into grid cells and answers radius queries.

    Parameters
    ----------
    x, y:
        Normalised point coordinates in ``[0, 1)`` (the dispatch substrate's
        invariant; values are clipped into range defensively).
    travel:
        The :class:`~repro.dispatch.travel.TravelModel` whose city extent
        converts the ``radius_km`` of queries into normalised half-widths and
        whose metric defines the exact distances of :meth:`query_radius`.
    resolution:
        Cells per side; defaults to :func:`default_resolution` of the point
        count.
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        travel: TravelModel,
        resolution: int | None = None,
    ) -> None:
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise ValueError("x and y must be equally sized 1-D arrays")
        self.travel = travel
        if resolution is None:
            resolution = default_resolution(self.x.size)
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        if resolution > 255:
            raise ValueError("resolution must be at most 255 (cell ids are uint16)")
        self.resolution = int(resolution)
        res = self.resolution
        # Same binning as GridSpec.cell_of / kernels.cell_supply; the clip
        # guards against callers passing exactly 1.0 (the fleet arrays clip
        # to nextafter(1, 0), but raw inputs may not).
        col = np.clip((self.x * res).astype(int), 0, res - 1)
        row = np.clip((self.y * res).astype(int), 0, res - 1)
        # uint16 holds every flat cell id (resolution is capped below 256)
        # and NumPy's stable sort on 16-bit integers is a radix sort —
        # an order of magnitude faster than the int64 timsort at fleet
        # scale, and this build runs once per assignment batch.
        flat = (row * res + col).astype(np.uint16)
        # CSR layout: point indices stably sorted by cell, plus per-cell
        # start offsets.  Within a cell indices stay ascending (stable sort).
        self._order = np.argsort(flat, kind="stable")
        counts = np.bincount(flat, minlength=res * res)
        self._starts = np.zeros(res * res + 1, dtype=np.intp)
        np.cumsum(counts, out=self._starts[1:])

    def __len__(self) -> int:
        return int(self.x.size)

    # ------------------------------------------------------------------ #

    def candidates_in_box(self, x: float, y: float, radius_km: float) -> np.ndarray:
        """Indices of points whose cell meets the query box (cell-major order).

        The box is the axis-aligned square of half-width ``radius_km``
        (converted to normalised units per axis) centred on ``(x, y)``,
        widened by one extra cell ring on every side.  The result is a
        superset of every point within ``radius_km`` of the query under
        either travel metric; a negative radius returns no candidates.  The
        index order is deterministic but unspecified (cell-major for partial
        boxes, raw insertion order when the box covers the whole grid) — hot
        callers sort once after filtering, and :meth:`query_radius` returns
        ascending indices.
        """
        if radius_km < 0 or self.x.size == 0:
            return np.empty(0, dtype=np.intp)
        res = self.resolution
        half_x = radius_km / self.travel.width_km
        half_y = radius_km / self.travel.height_km
        # The +-1 cell ring absorbs any floating-point rounding of the box
        # edges, keeping the superset property exact rather than approximate.
        c0 = max(0, int(math.floor((x - half_x) * res)) - 1)
        c1 = min(res - 1, int(math.floor((x + half_x) * res)) + 1)
        r0 = max(0, int(math.floor((y - half_y) * res)) - 1)
        r1 = min(res - 1, int(math.floor((y + half_y) * res)) + 1)
        if c0 > c1 or r0 > r1:
            return np.empty(0, dtype=np.intp)
        starts = self._starts
        order = self._order
        if r0 == 0 and r1 == res - 1 and c0 == 0 and c1 == res - 1:
            return np.arange(self.x.size, dtype=np.intp)
        parts = [
            order[starts[row * res + c0] : starts[row * res + c1 + 1]]
            for row in range(r0, r1 + 1)
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def candidates_in_boxes(
        self, xs: np.ndarray, ys: np.ndarray, radii_km: np.ndarray
    ):
        """Batched radius-candidate queries with no per-query Python work.

        Returns ``(query_ids, point_indices)`` — one entry per candidate,
        grouped by ascending query id — computed as a single multi-range
        gather over the CSR layout: the per-query cell boxes are expanded to
        per-grid-row slice bounds, and every slice is materialised with one
        C-level ``arange``/``repeat`` pass.  Each result is a subset of the
        per-query :meth:`candidates_in_box` (the per-row column budget prunes
        the box's corner cells down to the metric's reachable diamond) and
        still a superset of every point within ``radius_km`` of its query;
        queries with a negative radius contribute no candidates.
        """
        empty = np.empty(0, dtype=np.intp)
        slice_query, slice_start, lengths = self._box_slices(xs, ys, radii_km)
        total = int(lengths.sum())
        if total == 0:
            return empty, empty.copy()
        point_offsets = np.cumsum(lengths) - lengths
        flat = (
            np.arange(total, dtype=np.intp)
            - np.repeat(point_offsets, lengths)
            + np.repeat(slice_start, lengths)
        )
        return np.repeat(slice_query, lengths), self._order[flat]

    def count_in_boxes(
        self, xs: np.ndarray, ys: np.ndarray, radii_km: np.ndarray
    ) -> np.ndarray:
        """Per-query candidate counts of :meth:`candidates_in_boxes`.

        Sums the same per-grid-row slice bounds without materialising a
        single candidate, so it costs O(queries x box rows) however many
        points the boxes hold — cheap enough to probe several radii per
        query before committing to a gather.
        """
        slice_query, _, lengths = self._box_slices(xs, ys, radii_km)
        return np.bincount(
            slice_query, weights=lengths, minlength=np.asarray(xs).size
        ).astype(np.intp)

    def _box_slices(self, xs: np.ndarray, ys: np.ndarray, radii_km: np.ndarray):
        """``(query_ids, starts, lengths)`` of every CSR slice the boxes touch."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        radii_km = np.asarray(radii_km, dtype=float)
        empty = np.empty(0, dtype=np.intp)
        if xs.size == 0 or self.x.size == 0:
            return empty, empty.copy(), empty.copy()
        res = self.resolution
        half_x = radii_km / self.travel.width_km
        half_y = radii_km / self.travel.height_km
        c0 = np.maximum(np.floor((xs - half_x) * res).astype(np.intp) - 1, 0)
        c1 = np.minimum(np.floor((xs + half_x) * res).astype(np.intp) + 1, res - 1)
        r0 = np.maximum(np.floor((ys - half_y) * res).astype(np.intp) - 1, 0)
        r1 = np.minimum(np.floor((ys + half_y) * res).astype(np.intp) + 1, res - 1)
        valid = (radii_km >= 0) & (c0 <= c1) & (r0 <= r1)
        # One slice per (query, grid row of its box).
        box_rows = np.where(valid, r1 - r0 + 1, 0)
        slice_query = np.repeat(np.arange(xs.size, dtype=np.intp), box_rows)
        if slice_query.size == 0:
            return empty, empty.copy(), empty.copy()
        offsets = np.cumsum(box_rows) - box_rows
        local_row = (
            np.arange(slice_query.size, dtype=np.intp)
            - np.repeat(offsets, box_rows)
            + r0[slice_query]
        )
        # Shrink each slice's column span to the row's remaining distance
        # budget: a point in grid row r is at least ``dy`` from the query, so
        # its x-offset can use only what the metric leaves of the radius
        # (radius - dy for Manhattan, sqrt(radius^2 - dy^2) for Euclidean).
        # This prunes the corner cells of the bounding box — the box is a 2x
        # (Manhattan) overshoot of the reachable diamond — while the one-cell
        # widening keeps every within-radius point a candidate under float
        # rounding.
        query_y = ys[slice_query]
        dy = np.maximum(local_row / res - query_y, query_y - (local_row + 1) / res)
        dy = np.maximum(dy, 0.0) * self.travel.height_km
        # Micron-scale slack so float rounding of the row-band distance can
        # never disqualify a point sitting exactly on the radius.
        dy = np.maximum(dy - 1e-9, 0.0)
        radius_rep = radii_km[slice_query]
        # A grid row is reachable iff its vertical distance alone fits in the
        # radius — test dy directly so the check also fires for the euclidean
        # branch, whose budget is clamped non-negative below.
        in_reach = dy <= radius_rep
        if self.travel.metric == "euclidean":
            budget = np.sqrt(np.maximum(radius_rep * radius_rep - dy * dy, 0.0))
        else:
            budget = radius_rep - dy
        half = np.where(in_reach, budget, 0.0) / self.travel.width_km
        query_x = xs[slice_query]
        c0s = np.maximum(np.floor((query_x - half) * res).astype(np.intp) - 1, 0)
        c1s = np.minimum(np.floor((query_x + half) * res).astype(np.intp) + 1, res - 1)
        base = local_row * res
        slice_start = self._starts[base + c0s]
        slice_stop = self._starts[base + c1s + 1]
        lengths = np.where(in_reach, slice_stop - slice_start, 0)
        slice_start = np.where(in_reach, slice_start, 0)
        return slice_query, slice_start, lengths

    def query_radius(self, x: float, y: float, radius_km: float):
        """Exact radius query: ``(indices, distances_km)`` of points within range.

        Equals the brute-force ``distance <= radius_km`` mask over the full
        point set (same :meth:`TravelModel.distance_km` arithmetic), indices
        ascending.
        """
        candidates = self.candidates_in_box(x, y, radius_km)
        if candidates.size == 0:
            return candidates, np.empty(0, dtype=float)
        candidates = np.sort(candidates, kind="stable")
        distance = self.travel.distance_km(
            x, y, self.x[candidates], self.y[candidates]
        )
        keep = distance <= radius_km
        return candidates[keep], np.asarray(distance)[keep]
