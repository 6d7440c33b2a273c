"""Dataset wrapper: splits, cached count tensors and alpha estimation.

:class:`EventDataset` is the object everything downstream consumes.  It owns a
multi-day :class:`~repro.data.events.EventLog`, knows which days are training /
validation / test days, and exposes:

* ``counts(resolution)`` — the ``(days, slots, g, g)`` count tensor at any grid
  resolution, cached;
* ``alpha(resolution, slot)`` — the per-cell mean event count used as the
  Poisson mean ``alpha_ij`` of each HGrid (estimated, as in the paper, from
  the same slot of the training workdays), histogrammed from that slot's
  events alone and not cached;
* ``supervised_samples(...)`` — (history, target) pairs for training the
  prediction models with closeness / period / trend views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.data.city import CityConfig, CityModel
from repro.data.events import EventLog
from repro.utils.rng import RandomState


@dataclass(frozen=True)
class DatasetSplit:
    """Day-index ranges for train / validation / test."""

    train_days: Tuple[int, ...]
    val_days: Tuple[int, ...]
    test_days: Tuple[int, ...]

    def __post_init__(self) -> None:
        all_days = list(self.train_days) + list(self.val_days) + list(self.test_days)
        if len(all_days) != len(set(all_days)):
            raise ValueError("train/val/test day sets must be disjoint")
        if not self.train_days:
            raise ValueError("the training split must contain at least one day")
        if not self.test_days:
            raise ValueError("the test split must contain at least one day")

    @staticmethod
    def chronological(num_days: int, val_days: int = 2, test_days: int = 1) -> "DatasetSplit":
        """Last ``test_days`` days for test, preceding ``val_days`` for validation."""
        if num_days < val_days + test_days + 1:
            raise ValueError(
                f"need at least {val_days + test_days + 1} days, got {num_days}"
            )
        train_end = num_days - val_days - test_days
        return DatasetSplit(
            train_days=tuple(range(train_end)),
            val_days=tuple(range(train_end, train_end + val_days)),
            test_days=tuple(range(train_end + val_days, num_days)),
        )


class EventDataset:
    """Multi-day event history with split metadata and cached grid tensors."""

    def __init__(
        self,
        events: EventLog,
        split: DatasetSplit,
        city: Optional[CityConfig] = None,
    ) -> None:
        self.events = events
        self.split = split
        self.city = city
        max_day = max(
            list(split.train_days) + list(split.val_days) + list(split.test_days)
        )
        if events.num_days < max_day + 1:
            raise ValueError(
                f"split references day {max_day} but the log has only "
                f"{events.num_days} days"
            )
        self._num_days = max(events.num_days, max_day + 1)
        self._count_cache: Dict[int, np.ndarray] = {}
        self._revenue_cache: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_city(
        city: CityConfig,
        num_days: int = 35,
        val_days: int = 2,
        test_days: int = 1,
        seed: RandomState = None,
    ) -> "EventDataset":
        """Generate a dataset from a synthetic city configuration."""
        model = CityModel(city, seed=seed)
        events = model.generate_days(num_days)
        split = DatasetSplit.chronological(num_days, val_days=val_days, test_days=test_days)
        return EventDataset(events, split, city=city)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #

    @property
    def num_days(self) -> int:
        """Total number of days covered by the dataset."""
        return self._num_days

    @property
    def slots_per_day(self) -> int:
        """Number of time slots per day."""
        return self.events.slots.slots_per_day

    @property
    def name(self) -> str:
        """City name, or ``"dataset"`` if no city config is attached."""
        return self.city.name if self.city is not None else "dataset"

    def workdays(self, days: Sequence[int]) -> list[int]:
        """Subset of ``days`` that are workdays under the city's temporal profile."""
        if self.city is None:
            return list(days)
        profile = self.city.profile
        return [d for d in days if not profile.is_weekend(d)]

    # ------------------------------------------------------------------ #
    # Count tensors
    # ------------------------------------------------------------------ #

    def counts(self, resolution: int) -> np.ndarray:
        """Cached ``(days, slots, resolution, resolution)`` count tensor."""
        resolution = int(resolution)
        if resolution not in self._count_cache:
            self._count_cache[resolution] = self.events.counts(
                resolution, num_days=self._num_days
            )
        return self._count_cache[resolution]

    def revenue(self, resolution: int) -> np.ndarray:
        """Cached ``(days, slots, resolution, resolution)`` revenue tensor."""
        resolution = int(resolution)
        if resolution not in self._revenue_cache:
            self._revenue_cache[resolution] = self.events.revenue_totals(
                resolution, num_days=self._num_days
            )
        return self._revenue_cache[resolution]

    def counts_for_days(self, resolution: int, days: Sequence[int]) -> np.ndarray:
        """Count tensor restricted to the given day indices."""
        return self.counts(resolution)[np.asarray(list(days), dtype=int)]

    # ------------------------------------------------------------------ #
    # Alpha estimation (Poisson mean of each HGrid)
    # ------------------------------------------------------------------ #

    def alpha(
        self,
        resolution: int,
        slot: int = 16,
        days: Optional[Sequence[int]] = None,
        workdays_only: bool = True,
    ) -> np.ndarray:
        """Per-cell mean event count for ``slot`` — the HGrid Poisson means.

        By default the estimate follows the paper's protocol: the average over
        the same slot of the training-split workdays (slot 16 = 08:00-08:30
        with 30-minute slots).  Only the events of ``slot`` on ``days`` are
        histogrammed, so no ``(days, slots, g, g)`` tensor is built or cached
        at the fine resolutions the search probes; the counts are exact
        integers, so the mean equals ``counts(resolution)[days, slot].mean(0)``.
        """
        if not 0 <= slot < self.slots_per_day:
            raise ValueError(f"slot must be in [0, {self.slots_per_day}), got {slot}")
        if resolution <= 0:
            raise ValueError(f"resolution must be positive, got {resolution}")
        if days is None:
            days = list(self.split.train_days)
        days = [int(d) for d in days]
        if not days:
            raise ValueError("alpha needs at least one day")
        outside = [d for d in days if not 0 <= d < self._num_days]
        if outside:
            raise ValueError(f"days must lie in [0, {self._num_days}), got {outside}")
        if workdays_only:
            filtered = self.workdays(days)
            if filtered:
                days = filtered
        distinct, position = np.unique(days, return_inverse=True)
        events = self.events
        in_slot = np.flatnonzero(events.slot == slot)
        selected = in_slot[np.isin(events.day[in_slot], distinct)]
        cells = resolution * resolution
        day_position = np.searchsorted(distinct, events.day[selected])
        flat = day_position * cells + events.cell_index(resolution, selected)
        counts = np.bincount(flat, minlength=distinct.size * cells)
        tensor = counts.reshape(distinct.size, resolution, resolution)[position].astype(float)
        return tensor.mean(axis=0)

    def test_counts(self, resolution: int, slot: Optional[int] = None) -> np.ndarray:
        """Counts of the test split: ``(test_days, slots, g, g)`` or sliced to a slot."""
        tensor = self.counts_for_days(resolution, self.split.test_days)
        if slot is None:
            return tensor
        if not 0 <= slot < self.slots_per_day:
            raise ValueError(f"slot must be in [0, {self.slots_per_day}), got {slot}")
        return tensor[:, slot]

    def test_events(self) -> EventLog:
        """Event log restricted to the test days (day indices re-based to 0)."""
        return self.events.select_days(list(self.split.test_days))

    # ------------------------------------------------------------------ #
    # Supervised sample construction for the prediction models
    # ------------------------------------------------------------------ #

    def supervised_samples(
        self,
        resolution: int,
        days: Sequence[int],
        closeness: int = 8,
        period: int = 0,
        trend: int = 0,
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        """Build (history, target) training pairs at an MGrid resolution.

        Parameters
        ----------
        resolution:
            MGrid resolution per side (``sqrt(n)``).
        days:
            Day indices whose slots may serve as *targets*.
        closeness, period, trend:
            Number of recent slots / same-slot previous days / same-slot
            previous weeks to include (the DeepST terminology).  Views
            requesting history before the start of the log are dropped.

        Returns
        -------
        features, targets:
            ``features`` maps view name to an array of shape
            ``(samples, view_len, resolution, resolution)``; ``targets`` has
            shape ``(samples, resolution, resolution)``.
        """
        if closeness <= 0:
            raise ValueError("closeness must be >= 1")
        counts = self.counts(resolution)
        slots = self.slots_per_day
        flat = counts.reshape(-1, resolution, resolution)
        total_slots = flat.shape[0]

        min_history = closeness
        if period > 0:
            min_history = max(min_history, period * slots)
        if trend > 0:
            min_history = max(min_history, trend * slots * 7)

        closeness_list: list[np.ndarray] = []
        period_list: list[np.ndarray] = []
        trend_list: list[np.ndarray] = []
        target_list: list[np.ndarray] = []
        day_set = set(int(d) for d in days)
        for t in range(total_slots):
            day_index = t // slots
            if day_index not in day_set:
                continue
            if t < min_history:
                continue
            closeness_list.append(flat[t - closeness : t])
            if period > 0:
                indices = [t - slots * p for p in range(period, 0, -1)]
                period_list.append(flat[indices])
            if trend > 0:
                indices = [t - slots * 7 * q for q in range(trend, 0, -1)]
                trend_list.append(flat[indices])
            target_list.append(flat[t])

        if not target_list:
            raise ValueError(
                "no supervised samples could be built: not enough history before "
                "the requested target days"
            )
        features: Dict[str, np.ndarray] = {"closeness": np.stack(closeness_list)}
        if period > 0:
            features["period"] = np.stack(period_list)
        if trend > 0:
            features["trend"] = np.stack(trend_list)
        return features, np.stack(target_list)

    # ------------------------------------------------------------------ #
    # Derived datasets
    # ------------------------------------------------------------------ #

    def with_training_weeks(self, weeks: int, seed: RandomState = None) -> "EventDataset":
        """Dataset whose training split is truncated to the most recent ``weeks`` weeks.

        Used by the Figure 19 experiment (effect of training-set size).  The
        validation and test splits are unchanged.
        """
        if weeks <= 0:
            raise ValueError("weeks must be positive")
        wanted = weeks * 7
        train = list(self.split.train_days)
        if wanted < len(train):
            train = train[-wanted:]
        new_split = DatasetSplit(
            train_days=tuple(train),
            val_days=self.split.val_days,
            test_days=self.split.test_days,
        )
        clone = EventDataset(self.events, new_split, city=self.city)
        clone._count_cache = self._count_cache
        clone._revenue_cache = self._revenue_cache
        return clone
