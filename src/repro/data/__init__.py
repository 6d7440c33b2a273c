"""Synthetic spatiotemporal event substrate.

The original paper evaluates on the NYC TLC taxi dataset and the DiDi GAIA
Chengdu / Xi'an datasets, none of which can be redistributed or downloaded in
this environment.  This package provides the substitute substrate documented
in ``docs/architecture.md`` §0: parameterised synthetic cities whose event
streams are drawn from inhomogeneous Poisson processes with realistic spatial
hot-spots, road corridors and time-of-day profiles.  Every downstream quantity
used by GridTuner (per-grid event counts, trip lengths, revenues) is derived
from these event streams exactly as it would be from the real trip records.
"""

from repro.data.events import EventLog, TimeSlotConfig
from repro.data.intensity import (
    GaussianHotspot,
    Corridor,
    IntensitySurface,
    UniformBackground,
)
from repro.data.temporal import TemporalProfile
from repro.data.city import CityConfig, CityModel
from repro.data.presets import (
    CITY_PRESETS,
    city_preset,
    nyc_like,
    chengdu_like,
    xian_like,
)
from repro.data.dataset import DatasetSplit, EventDataset
from repro.data.trips import TripLengthModel, sample_destinations

__all__ = [
    "EventLog",
    "TimeSlotConfig",
    "GaussianHotspot",
    "Corridor",
    "UniformBackground",
    "IntensitySurface",
    "TemporalProfile",
    "CityConfig",
    "CityModel",
    "CITY_PRESETS",
    "city_preset",
    "nyc_like",
    "chengdu_like",
    "xian_like",
    "DatasetSplit",
    "EventDataset",
    "TripLengthModel",
    "sample_destinations",
]
