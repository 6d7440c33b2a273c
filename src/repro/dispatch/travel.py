"""Travel model: distances and travel times on the normalised city plane."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TravelModel:
    """Converts normalised coordinates into kilometres and minutes.

    Attributes
    ----------
    width_km, height_km:
        Physical extent of the study area.
    speed_kmh:
        Average driving speed (the paper's cities are dense urban areas, so a
        conservative 24 km/h default is used).
    metric:
        ``"euclidean"`` or ``"manhattan"`` street distance.
    """

    width_km: float
    height_km: float
    speed_kmh: float = 24.0
    metric: str = "manhattan"

    def __post_init__(self) -> None:
        if self.width_km <= 0 or self.height_km <= 0:
            raise ValueError("city extent must be positive")
        if self.speed_kmh <= 0:
            raise ValueError("speed must be positive")
        if self.metric not in ("euclidean", "manhattan"):
            raise ValueError("metric must be 'euclidean' or 'manhattan'")

    def distance_km(
        self,
        x0: np.ndarray | float,
        y0: np.ndarray | float,
        x1: np.ndarray | float,
        y1: np.ndarray | float,
    ) -> np.ndarray | float:
        """Street distance in kilometres between two normalised points."""
        dx = (np.asarray(x1, dtype=float) - np.asarray(x0, dtype=float)) * self.width_km
        dy = (np.asarray(y1, dtype=float) - np.asarray(y0, dtype=float)) * self.height_km
        if self.metric == "euclidean":
            result = np.sqrt(dx * dx + dy * dy)
        else:
            result = np.abs(dx) + np.abs(dy)
        if np.isscalar(x0) and np.isscalar(x1):
            return float(result)
        return result

    def minutes(self, distance_km: np.ndarray | float) -> np.ndarray | float:
        """Travel time in minutes for a distance in kilometres."""
        distance_km = np.asarray(distance_km, dtype=float)
        result = distance_km / self.speed_kmh * 60.0
        if result.ndim == 0:
            return float(result)
        return result

    def pairwise_km(
        self,
        origin_x: np.ndarray,
        origin_y: np.ndarray,
        dest_x: np.ndarray,
        dest_y: np.ndarray,
    ) -> np.ndarray:
        """Batched candidate distances: an ``(origins, destinations)`` matrix.

        Row ``i`` holds the street distance from origin ``i`` to every
        destination.  Elementwise this is exactly :meth:`distance_km` applied
        to each (origin, destination) pair, so the matrix entries are
        bit-identical to the scalar calls the per-entity loop would make.
        """
        origin_x = np.asarray(origin_x, dtype=float)
        origin_y = np.asarray(origin_y, dtype=float)
        dest_x = np.asarray(dest_x, dtype=float)
        dest_y = np.asarray(dest_y, dtype=float)
        # Inlined distance_km(dest, origin) without the scalar-path checks;
        # the operand order matches the policies' broadcast calls.
        dx = (origin_x[:, None] - dest_x[None, :]) * self.width_km
        dy = (origin_y[:, None] - dest_y[None, :]) * self.height_km
        if self.metric == "euclidean":
            return np.sqrt(dx * dx + dy * dy)
        return np.abs(dx) + np.abs(dy)

    def travel_minutes(
        self,
        x0: np.ndarray | float,
        y0: np.ndarray | float,
        x1: np.ndarray | float,
        y1: np.ndarray | float,
    ) -> np.ndarray | float:
        """Travel time in minutes between two normalised points."""
        return self.minutes(self.distance_km(x0, y0, x1, y1))

    @staticmethod
    def for_city(city) -> "TravelModel":
        """Travel model matching a :class:`~repro.data.city.CityConfig`."""
        return TravelModel(width_km=city.width_km, height_km=city.height_km)
