"""Event log container and time-slot configuration.

All spatial coordinates are normalised to the unit square ``[0, 1) x [0, 1)``;
the owning :class:`~repro.data.city.CityConfig` records the physical extent in
kilometres so trip lengths and travel times can be expressed in real units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class TimeSlotConfig:
    """Division of a day into fixed-length prediction slots.

    The paper uses 30-minute slots (48 per day); both the slot length and the
    number of slots per day are configurable here.
    """

    minutes_per_slot: int = 30

    def __post_init__(self) -> None:
        if self.minutes_per_slot <= 0 or 1440 % self.minutes_per_slot != 0:
            raise ValueError(
                "minutes_per_slot must be a positive divisor of 1440, "
                f"got {self.minutes_per_slot}"
            )

    @property
    def slots_per_day(self) -> int:
        """Number of slots in one day."""
        return 1440 // self.minutes_per_slot

    def slot_of_minute(self, minute_of_day: float) -> int:
        """Slot index (0-based) containing ``minute_of_day``."""
        if not 0 <= minute_of_day < 1440:
            raise ValueError(f"minute_of_day must be in [0, 1440), got {minute_of_day}")
        return int(minute_of_day // self.minutes_per_slot)

    def slot_label(self, slot: int) -> str:
        """Human-readable ``HH:MM-HH:MM`` label for ``slot``."""
        if not 0 <= slot < self.slots_per_day:
            raise ValueError(f"slot must be in [0, {self.slots_per_day}), got {slot}")
        start = slot * self.minutes_per_slot
        end = start + self.minutes_per_slot
        return f"{start // 60:02d}:{start % 60:02d}-{end // 60:02d}:{end % 60:02d}"


@dataclass
class EventLog:
    """Column-oriented store of spatial events (taxi pick-ups).

    Attributes
    ----------
    x, y:
        Normalised pick-up coordinates in ``[0, 1)``.
    day:
        Integer day index (0-based) relative to the start of the dataset.
    slot:
        Time-slot index within the day.
    dropoff_x, dropoff_y:
        Normalised drop-off coordinates (used by the dispatch case study).
    revenue:
        Monetary value of serving the order.
    slots:
        The :class:`TimeSlotConfig` the ``slot`` column refers to.
    """

    x: np.ndarray
    y: np.ndarray
    day: np.ndarray
    slot: np.ndarray
    dropoff_x: np.ndarray
    dropoff_y: np.ndarray
    revenue: np.ndarray
    slots: TimeSlotConfig = field(default_factory=TimeSlotConfig)

    def __post_init__(self) -> None:
        arrays = [
            self.x,
            self.y,
            self.day,
            self.slot,
            self.dropoff_x,
            self.dropoff_y,
            self.revenue,
        ]
        lengths = {len(a) for a in arrays}
        if len(lengths) > 1:
            raise ValueError(f"all event columns must have equal length, got {lengths}")
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.day = np.asarray(self.day, dtype=int)
        self.slot = np.asarray(self.slot, dtype=int)
        self.dropoff_x = np.asarray(self.dropoff_x, dtype=float)
        self.dropoff_y = np.asarray(self.dropoff_y, dtype=float)
        self.revenue = np.asarray(self.revenue, dtype=float)
        if len(self.x) > 0:
            # Written so that NaN fails too: every comparison with NaN is False.
            if not np.all((self.x >= 0) & (self.x < 1) & (self.y >= 0) & (self.y < 1)):
                raise ValueError("pick-up coordinates must lie in [0, 1)")
            if np.any(self.day < 0):
                raise ValueError("day indices must be non-negative")
            if np.any(self.slot < 0) or np.any(self.slot >= self.slots.slots_per_day):
                raise ValueError("slot index out of range for the slot configuration")

    def __len__(self) -> int:
        return len(self.x)

    @property
    def num_days(self) -> int:
        """Number of days spanned by the log (max day index + 1)."""
        if len(self) == 0:
            return 0
        return int(self.day.max()) + 1

    def select_days(self, days: np.ndarray | list[int]) -> "EventLog":
        """Return a new log restricted to the given day indices (re-indexed from 0)."""
        days = np.asarray(sorted(set(int(d) for d in days)), dtype=int)
        mask = np.isin(self.day, days)
        return EventLog(
            x=self.x[mask],
            y=self.y[mask],
            day=np.searchsorted(days, self.day[mask]),
            slot=self.slot[mask],
            dropoff_x=self.dropoff_x[mask],
            dropoff_y=self.dropoff_y[mask],
            revenue=self.revenue[mask],
            slots=self.slots,
        )

    def select_slot(self, slot: int) -> "EventLog":
        """Return a new log containing only events in time slot ``slot``."""
        mask = self.slot == slot
        return EventLog(
            x=self.x[mask],
            y=self.y[mask],
            day=self.day[mask],
            slot=self.slot[mask],
            dropoff_x=self.dropoff_x[mask],
            dropoff_y=self.dropoff_y[mask],
            revenue=self.revenue[mask],
            slots=self.slots,
        )

    def cell_index(self, resolution: int, select: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Flat ``row * resolution + col`` grid cell of each selected event's pick-up.

        Cell ``[r, c]`` of a ``resolution x resolution`` grid covers
        ``x in [c/res, (c+1)/res)`` and ``y in [r/res, (r+1)/res)``;
        ``select`` indexes the events (all of them by default).
        """
        col = np.minimum((self.x[select] * resolution).astype(int), resolution - 1)
        row = np.minimum((self.y[select] * resolution).astype(int), resolution - 1)
        return row * resolution + col

    def counts(self, resolution: int, num_days: Optional[int] = None) -> np.ndarray:
        """Histogram the events into a ``(days, slots, resolution, resolution)`` tensor.

        ``resolution`` is the number of grid cells per side (see
        :meth:`cell_index`).
        """
        if resolution <= 0:
            raise ValueError(f"resolution must be positive, got {resolution}")
        days = self.num_days if num_days is None else int(num_days)
        slots = self.slots.slots_per_day
        shape = (days, slots, resolution, resolution)
        if len(self) == 0 or days == 0:
            return np.zeros(shape, dtype=float)
        flat = (self.day * slots + self.slot) * resolution**2 + self.cell_index(resolution)
        counts = np.bincount(flat, minlength=days * slots * resolution * resolution)
        return counts.reshape(shape).astype(float)

    def revenue_totals(self, resolution: int, num_days: Optional[int] = None) -> np.ndarray:
        """Sum of order revenue per ``(day, slot, row, col)`` cell."""
        if resolution <= 0:
            raise ValueError(f"resolution must be positive, got {resolution}")
        days = self.num_days if num_days is None else int(num_days)
        slots = self.slots.slots_per_day
        shape = (days, slots, resolution, resolution)
        if len(self) == 0 or days == 0:
            return np.zeros(shape, dtype=float)
        flat = (self.day * slots + self.slot) * resolution**2 + self.cell_index(resolution)
        totals = np.bincount(
            flat, weights=self.revenue, minlength=days * slots * resolution * resolution
        )
        return totals.reshape(shape)

    @staticmethod
    def concatenate(logs: list["EventLog"]) -> "EventLog":
        """Concatenate logs that share a slot configuration, preserving day indices."""
        if not logs:
            raise ValueError("cannot concatenate an empty list of EventLogs")
        slots = logs[0].slots
        for log in logs:
            if log.slots.minutes_per_slot != slots.minutes_per_slot:
                raise ValueError("all logs must share the same TimeSlotConfig")
        return EventLog(
            x=np.concatenate([log.x for log in logs]),
            y=np.concatenate([log.y for log in logs]),
            day=np.concatenate([log.day for log in logs]),
            slot=np.concatenate([log.slot for log in logs]),
            dropoff_x=np.concatenate([log.dropoff_x for log in logs]),
            dropoff_y=np.concatenate([log.dropoff_y for log in logs]),
            revenue=np.concatenate([log.revenue for log in logs]),
            slots=slots,
        )
