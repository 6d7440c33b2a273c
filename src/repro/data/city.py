"""Synthetic city model: the event-generation substrate.

A :class:`CityModel` combines a spatial :class:`~repro.data.intensity.IntensitySurface`,
a :class:`~repro.data.temporal.TemporalProfile`, a
:class:`~repro.data.trips.TripLengthModel` and a mean daily order volume, and
generates complete :class:`~repro.data.events.EventLog` histories that play the
role of the NYC / Chengdu / Xi'an trip datasets in the original paper.

Generation recipe.  Each day draws a log-normal day-level volume factor
(weather, holidays, ...) and then, slot by slot, only random numbers, in this
order:

1. the realised count, from a Poisson whose mean is
   ``daily_volume * slot_weight / slots_per_day`` times the day factor —
   matching the count model the paper assumes for HGrids;
2. one block of ``3 * count`` uniforms: the pick-up cell draws (searched in
   the cumulative raster of the spatial surface) and the x and y jitter within
   the cell;
3. the trip lengths, from the trip model;
4. the trip directions.

All arithmetic then runs once per day on that day's concatenated draws:
pick-up points, drop-offs, realised trip lengths and fares.  Every step of it
is elementwise, so the columns and the generator's end state are exactly
those of doing the same arithmetic slot by slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.data.events import EventLog, TimeSlotConfig
from repro.data.intensity import IntensitySurface
from repro.data.temporal import TemporalProfile
from repro.data.trips import TripLengthModel, displace, trip_lengths_km
from repro.utils.rng import RandomState, default_rng


@dataclass
class CityConfig:
    """Static description of a synthetic city.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"nyc_like"``.
    width_km, height_km:
        Physical extent of the study area.
    daily_volume:
        Mean number of orders on a workday.
    surface:
        Spatial demand surface.
    profile:
        Temporal (time-of-day / weekday) profile.
    trip_model:
        Trip length / fare model.
    day_noise_sigma:
        Log-normal sigma of the day-level volume multiplier.
    raster_resolution:
        Resolution used when sampling pick-up points from the surface.
    """

    name: str
    width_km: float
    height_km: float
    daily_volume: float
    surface: IntensitySurface
    profile: TemporalProfile = field(default_factory=TemporalProfile)
    trip_model: TripLengthModel = field(default_factory=TripLengthModel)
    slots: TimeSlotConfig = field(default_factory=TimeSlotConfig)
    day_noise_sigma: float = 0.08
    raster_resolution: int = 256

    def __post_init__(self) -> None:
        if self.width_km <= 0 or self.height_km <= 0:
            raise ValueError("city extent must be positive")
        if self.daily_volume <= 0:
            raise ValueError("daily_volume must be positive")
        if self.day_noise_sigma < 0:
            raise ValueError("day_noise_sigma must be non-negative")
        if self.raster_resolution <= 0:
            raise ValueError("raster_resolution must be positive")

    def scaled(self, volume_factor: float, name: Optional[str] = None) -> "CityConfig":
        """A copy of this config with the daily volume scaled by ``volume_factor``.

        Used to derive laptop-scale variants of the full-scale presets.
        """
        if volume_factor <= 0:
            raise ValueError("volume_factor must be positive")
        return CityConfig(
            name=name or f"{self.name}_x{volume_factor:g}",
            width_km=self.width_km,
            height_km=self.height_km,
            daily_volume=self.daily_volume * volume_factor,
            surface=self.surface,
            profile=self.profile,
            trip_model=self.trip_model,
            slots=self.slots,
            day_noise_sigma=self.day_noise_sigma,
            raster_resolution=self.raster_resolution,
        )


class CityModel:
    """Event generator for a :class:`CityConfig`."""

    def __init__(self, config: CityConfig, seed: RandomState = None) -> None:
        self.config = config
        self._rng = default_rng(seed)
        # Exactly the CDF ``Generator.choice(p=...)`` would rebuild on every
        # call; searching it with the same ``random`` draws gives the same cells
        # and leaves the generator at the same stream position.
        cdf = np.cumsum(config.surface.rasterize(config.raster_resolution).ravel())
        cdf /= cdf[-1]
        self._cell_cdf = cdf

    @property
    def rng(self) -> np.random.Generator:
        """The generator driving this model (advance it to get fresh histories)."""
        return self._rng

    def expected_counts(self, resolution: int, day: int, slot: int) -> np.ndarray:
        """Expected event count per cell of a ``resolution x resolution`` grid.

        This is the ground-truth intensity that the synthetic data is drawn
        from; tests use it to validate estimators of ``alpha_ij``.
        """
        probabilities = self.config.surface.rasterize(resolution)
        volume = self.config.profile.expected_slot_volume(
            day, slot, self.config.daily_volume, self.config.slots
        )
        return probabilities * volume

    def generate_days(self, num_days: int, start_day: int = 0) -> EventLog:
        """Generate a contiguous multi-day event history.

        ``start_day`` shifts the weekday phase (day 0 is a Monday); the
        returned log's day indices start at 0 regardless of phase.
        """
        if num_days <= 0:
            raise ValueError(f"num_days must be positive, got {num_days}")
        return EventLog.concatenate(
            [self._generate_day(start_day + offset, offset) for offset in range(num_days)]
        )

    def _generate_day(self, day: int, index: int) -> EventLog:
        """The events of weekday-phase ``day``, stored under day index ``index``."""
        config = self.config
        rng = self._rng
        slots_per_day = config.slots.slots_per_day
        day_factor = float(rng.lognormal(mean=0.0, sigma=config.day_noise_sigma))
        weights = config.profile.slot_weights(day, config.slots)
        counts = np.empty(slots_per_day, dtype=int)
        uniforms, lengths, angles = [], [], []
        for slot in range(slots_per_day):
            mean_volume = config.daily_volume * weights[slot] / slots_per_day
            count = counts[slot] = int(rng.poisson(mean_volume * day_factor))
            # One fill of cell, x-jitter and y-jitter draws, in that order.
            uniforms.append(rng.random(3 * count).reshape(3, count))
            lengths.append(config.trip_model.sample_lengths(count, rng))
            angles.append(rng.uniform(0.0, 2.0 * np.pi, size=count))
        cell_draws, jitter_x, jitter_y = np.concatenate(uniforms, axis=1)
        lengths_km = np.concatenate(lengths)
        resolution = config.raster_resolution
        rows, cols = np.divmod(self._cell_cdf.searchsorted(cell_draws, side="right"), resolution)
        xs = np.clip((cols + jitter_x) / resolution, 0.0, np.nextafter(1.0, 0.0))
        ys = np.clip((rows + jitter_y) / resolution, 0.0, np.nextafter(1.0, 0.0))
        dest_x, dest_y = displace(
            xs, ys, lengths_km, np.concatenate(angles), config.width_km, config.height_km
        )
        realised_lengths = trip_lengths_km(
            xs, ys, dest_x, dest_y, config.width_km, config.height_km
        )
        return EventLog(
            x=xs,
            y=ys,
            day=np.full(len(xs), index, dtype=int),
            slot=np.repeat(np.arange(slots_per_day), counts),
            dropoff_x=dest_x,
            dropoff_y=dest_y,
            revenue=config.trip_model.fares(realised_lengths),
            slots=config.slots,
        )
