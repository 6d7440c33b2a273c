"""Trip destination and trip-length modelling.

The dispatch case study (POLAR / LS / DAIF) and Figure 11 of the paper need
full trips — origin, destination, length and fare — rather than bare pick-up
events.  :class:`TripLengthModel` draws trip lengths from a log-normal
distribution calibrated per city and :func:`sample_destinations` places the
drop-off point at that distance in a random direction, clipped to the city.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TripLengthModel:
    """Log-normal trip-length distribution (kilometres) with an upper cap.

    Attributes
    ----------
    median_km:
        Median trip length.
    sigma:
        Log-space standard deviation; larger values give heavier tails
        (Chengdu has a noticeable share of >45 km trips in the paper).
    max_km:
        Hard cap; real datasets clip at the city extent.
    base_fare, per_km_fare:
        Linear fare model used to attach revenue to each trip.
    """

    median_km: float = 3.0
    sigma: float = 0.6
    max_km: float = 40.0
    base_fare: float = 2.5
    per_km_fare: float = 1.8

    def __post_init__(self) -> None:
        if self.median_km <= 0 or self.sigma <= 0 or self.max_km <= 0:
            raise ValueError("trip-length parameters must be positive")
        if self.max_km < self.median_km:
            raise ValueError("max_km must be at least median_km")
        if self.base_fare < 0 or self.per_km_fare < 0:
            raise ValueError("fares must be non-negative")

    def sample_lengths(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` trip lengths in kilometres."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return np.empty(0)
        lengths = rng.lognormal(mean=np.log(self.median_km), sigma=self.sigma, size=count)
        return np.minimum(lengths, self.max_km)

    def fares(self, lengths_km: np.ndarray) -> np.ndarray:
        """Fare (revenue) for trips of the given lengths."""
        lengths_km = np.asarray(lengths_km, dtype=float)
        if np.any(lengths_km < 0):
            raise ValueError("trip lengths must be non-negative")
        return self.base_fare + self.per_km_fare * lengths_km


def sample_destinations(
    origin_x: np.ndarray,
    origin_y: np.ndarray,
    lengths_km: np.ndarray,
    width_km: float,
    height_km: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Place drop-off points ``lengths_km`` away from each origin in a random direction.

    Coordinates are normalised to the unit square; ``width_km`` / ``height_km``
    convert the trip length into normalised displacements.  Destinations are
    clipped to stay inside the city, which mildly shortens trips that would
    leave it — matching how real trip records are truncated at the study area.
    """
    origin_x = np.asarray(origin_x, dtype=float)
    origin_y = np.asarray(origin_y, dtype=float)
    lengths_km = np.asarray(lengths_km, dtype=float)
    if width_km <= 0 or height_km <= 0:
        raise ValueError("city extent must be positive")
    if not (len(origin_x) == len(origin_y) == len(lengths_km)):
        raise ValueError("origin and length arrays must have equal length")
    angles = rng.uniform(0.0, 2.0 * np.pi, size=len(origin_x))
    return displace(origin_x, origin_y, lengths_km, angles, width_km, height_km)


def displace(
    origin_x: np.ndarray,
    origin_y: np.ndarray,
    lengths_km: np.ndarray,
    angles: np.ndarray,
    width_km: float,
    height_km: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Drop-off points ``lengths_km`` away from each origin at the given ``angles``.

    The deterministic half of :func:`sample_destinations`: it takes the drawn
    directions (radians) instead of drawing them, and clips to the city the
    same way.  Every step is elementwise.
    """
    dx = lengths_km * np.cos(angles) / width_km
    dy = lengths_km * np.sin(angles) / height_km
    dest_x = np.clip(origin_x + dx, 0.0, np.nextafter(1.0, 0.0))
    dest_y = np.clip(origin_y + dy, 0.0, np.nextafter(1.0, 0.0))
    return dest_x, dest_y


def trip_lengths_km(
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    width_km: float,
    height_km: float,
) -> np.ndarray:
    """Euclidean trip length in kilometres between normalised coordinates."""
    if width_km <= 0 or height_km <= 0:
        raise ValueError("city extent must be positive")
    dx = (np.asarray(x1, dtype=float) - np.asarray(x0, dtype=float)) * width_km
    dy = (np.asarray(y1, dtype=float) - np.asarray(y0, dtype=float)) * height_km
    return np.sqrt(dx * dx + dy * dy)
