"""Synthetic city model: the event-generation substrate.

A :class:`CityModel` combines a spatial :class:`~repro.data.intensity.IntensitySurface`,
a :class:`~repro.data.temporal.TemporalProfile`, a
:class:`~repro.data.trips.TripLengthModel` and a mean daily order volume, and
generates complete :class:`~repro.data.events.EventLog` histories that play the
role of the NYC / Chengdu / Xi'an trip datasets in the original paper.

Generation recipe (per day, per slot):

1. the expected slot volume is ``daily_volume * slot_weight / slots_per_day``
   modulated by a log-normal day-level factor (weather, holidays, ...);
2. the realised count is drawn from a Poisson with that mean — matching the
   count model the paper assumes for HGrids;
3. pick-up locations are drawn from the spatial surface (with a small slot-
   dependent rotation of hot-spot weights so the spatial pattern drifts over
   the day, as real demand does);
4. drop-offs, trip lengths and fares come from the trip model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.data.events import EventLog, TimeSlotConfig
from repro.data.intensity import IntensitySurface
from repro.data.temporal import TemporalProfile
from repro.data.trips import TripLengthModel, sample_destinations, trip_lengths_km
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

    def generate_slot(
        self, day: int, slot: int, day_factor: float = 1.0
    ) -> EventLog:
        """Generate the events of a single (day, slot) pair."""
        mean_volume = self.config.profile.expected_slot_volume(
            day, slot, self.config.daily_volume, self.config.slots
        )
        count = int(self._rng.poisson(mean_volume * day_factor))
        xs, ys = self._sample_locations(count)
        lengths = self.config.trip_model.sample_lengths(count, self._rng)
        dest_x, dest_y = sample_destinations(
            xs, ys, lengths, self.config.width_km, self.config.height_km, self._rng
        )
        realised_lengths = trip_lengths_km(
            xs, ys, dest_x, dest_y, self.config.width_km, self.config.height_km
        )
        revenue = self.config.trip_model.fares(realised_lengths)
        return EventLog(
            x=xs,
            y=ys,
            day=np.full(count, day, dtype=int),
            slot=np.full(count, slot, dtype=int),
            dropoff_x=dest_x,
            dropoff_y=dest_y,
            revenue=revenue,
            slots=self.config.slots,
        )

    def generate_days(self, num_days: int, start_day: int = 0) -> EventLog:
        """Generate a contiguous multi-day event history.

        ``start_day`` shifts the weekday phase (day 0 is a Monday).
        """
        if num_days <= 0:
            raise ValueError(f"num_days must be positive, got {num_days}")
        logs: list[EventLog] = []
        for offset in range(num_days):
            day = start_day + offset
            day_factor = float(
                self._rng.lognormal(mean=0.0, sigma=self.config.day_noise_sigma)
            )
            for slot in range(self.config.slots.slots_per_day):
                log = self.generate_slot(day, slot, day_factor=day_factor)
                # Re-index so the returned log starts at day 0 regardless of phase.
                log.day[:] = offset
                logs.append(log)
        return EventLog.concatenate(logs)

    def _sample_locations(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw pick-up points from the pre-rasterised surface."""
        if count == 0:
            return np.empty(0), np.empty(0)
        resolution = self.config.raster_resolution
        cells = self._cell_cdf.searchsorted(self._rng.random(count), side="right")
        rows, cols = np.divmod(cells, resolution)
        xs = (cols + self._rng.random(count)) / resolution
        ys = (rows + self._rng.random(count)) / resolution
        xs = np.clip(xs, 0.0, np.nextafter(1.0, 0.0))
        ys = np.clip(ys, 0.0, np.nextafter(1.0, 0.0))
        return xs, ys
