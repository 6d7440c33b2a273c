"""Tests for repro.data.city."""

from dataclasses import replace

import numpy as np
import pytest

from repro.data.city import CityConfig, CityModel
from repro.data.events import EventLog, TimeSlotConfig
from repro.data.intensity import GaussianHotspot, IntensitySurface, UniformBackground
from repro.data.presets import xian_like


@pytest.fixture(scope="module")
def small_city():
    surface = IntensitySurface(
        [GaussianHotspot(0.4, 0.5, 0.1, 0.1, weight=2.0), UniformBackground(0.5)]
    )
    return CityConfig(
        name="small",
        width_km=10.0,
        height_km=10.0,
        daily_volume=400.0,
        surface=surface,
        raster_resolution=64,
    )


class TestCityConfig:
    def test_invalid_extent_rejected(self, small_city):
        with pytest.raises(ValueError):
            CityConfig(
                name="bad",
                width_km=0,
                height_km=10,
                daily_volume=100,
                surface=small_city.surface,
            )

    def test_invalid_volume_rejected(self, small_city):
        with pytest.raises(ValueError):
            CityConfig(
                name="bad",
                width_km=10,
                height_km=10,
                daily_volume=0,
                surface=small_city.surface,
            )

    def test_scaled_copy(self, small_city):
        scaled = small_city.scaled(0.5)
        assert scaled.daily_volume == pytest.approx(200.0)
        assert scaled.width_km == small_city.width_km
        assert scaled.name != small_city.name

    def test_scaled_invalid_factor(self, small_city):
        with pytest.raises(ValueError):
            small_city.scaled(0)


class TestCityModel:
    def test_generate_days_is_reproducible(self, small_city):
        log_a = CityModel(small_city, seed=5).generate_days(3)
        log_b = CityModel(small_city, seed=5).generate_days(3)
        assert len(log_a) == len(log_b)
        np.testing.assert_allclose(log_a.x, log_b.x)

    def test_generate_days_day_indices(self, small_city):
        log = CityModel(small_city, seed=1).generate_days(4)
        assert log.num_days == 4
        assert set(np.unique(log.day)) == {0, 1, 2, 3}

    def test_volume_close_to_configuration(self, small_city):
        log = CityModel(small_city, seed=2).generate_days(6)
        per_day = len(log) / 6
        # weekend factor pulls the average slightly below the workday volume
        assert 0.6 * small_city.daily_volume < per_day < 1.4 * small_city.daily_volume

    def test_invalid_num_days(self, small_city):
        with pytest.raises(ValueError):
            CityModel(small_city, seed=1).generate_days(0)

    def test_generate_slot_shapes(self, small_city):
        log = CityModel(small_city, seed=3).generate_days(1).select_slot(16)
        assert len(log) > 0
        assert np.all(log.slot == 16)
        assert np.all(log.day == 0)
        assert np.all(log.revenue > 0)

    def test_expected_counts_sum_to_slot_volume(self, small_city):
        model = CityModel(small_city, seed=4)
        expected = model.expected_counts(8, day=0, slot=16)
        slot_volume = small_city.profile.expected_slot_volume(
            0, 16, small_city.daily_volume, small_city.slots
        )
        assert expected.sum() == pytest.approx(slot_volume)

    def test_expected_counts_follow_surface(self, small_city):
        model = CityModel(small_city, seed=4)
        expected = model.expected_counts(16, day=0, slot=16)
        # The hotspot is at (0.4, 0.5): the corresponding cell should exceed a corner.
        hot_value = expected[8, 6]
        corner = expected[15, 15]
        assert hot_value > corner

    def test_events_concentrate_like_surface(self, small_city):
        log = CityModel(small_city, seed=6).generate_days(5)
        counts = log.counts(4).sum(axis=(0, 1))
        hot_quadrant = counts[2, 1]  # around (0.4, 0.5+)
        far_corner = counts[3, 3]
        assert hot_quadrant > far_corner


COLUMNS = ("x", "y", "day", "slot", "dropoff_x", "dropoff_y", "revenue")


def _reference_generate_days(config, seed, num_days, start_day=0):
    """Frozen per-slot generation recipe: the oracle for ``CityModel.generate_days``.

    Every (day, slot) draws its Poisson count, its pick-up cells with
    ``Generator.choice(p=...)``, the x and y jitter, the trip lengths and the
    trip directions, in that order, and builds its own ``EventLog``; the
    slot logs are concatenated at the end.  Returns the log and the generator.
    """
    rng = np.random.default_rng(seed)
    resolution = config.raster_resolution
    probabilities = config.surface.rasterize(resolution).ravel()
    below_one = np.nextafter(1.0, 0.0)
    model = config.trip_model
    logs = []
    for offset in range(num_days):
        day = start_day + offset
        day_factor = float(rng.lognormal(mean=0.0, sigma=config.day_noise_sigma))
        for slot in range(config.slots.slots_per_day):
            mean_volume = config.profile.expected_slot_volume(
                day, slot, config.daily_volume, config.slots
            )
            count = int(rng.poisson(mean_volume * day_factor))
            if count == 0:
                xs = ys = lengths = np.empty(0)
            else:
                cells = rng.choice(probabilities.size, size=count, p=probabilities)
                rows, cols = np.divmod(cells, resolution)
                xs = np.clip((cols + rng.random(count)) / resolution, 0.0, below_one)
                ys = np.clip((rows + rng.random(count)) / resolution, 0.0, below_one)
                lengths = np.minimum(
                    rng.lognormal(mean=np.log(model.median_km), sigma=model.sigma, size=count),
                    model.max_km,
                )
            angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
            dest_x = np.clip(xs + lengths * np.cos(angles) / config.width_km, 0.0, below_one)
            dest_y = np.clip(ys + lengths * np.sin(angles) / config.height_km, 0.0, below_one)
            dx = (dest_x - xs) * config.width_km
            dy = (dest_y - ys) * config.height_km
            logs.append(
                EventLog(
                    x=xs,
                    y=ys,
                    day=np.full(count, offset, dtype=int),
                    slot=np.full(count, slot, dtype=int),
                    dropoff_x=dest_x,
                    dropoff_y=dest_y,
                    revenue=model.base_fare + model.per_km_fare * np.sqrt(dx * dx + dy * dy),
                    slots=config.slots,
                )
            )
    return EventLog.concatenate(logs), rng


def _assert_matches_reference(config, seed, num_days, start_day=0):
    model = CityModel(config, seed=seed)
    log = model.generate_days(num_days, start_day=start_day)
    expected, reference_rng = _reference_generate_days(config, seed, num_days, start_day)
    for column in COLUMNS:
        got, want = getattr(log, column), getattr(expected, column)
        assert got.dtype == want.dtype, column
        assert np.array_equal(got, want), column
    assert model.rng.bit_generator.state == reference_rng.bit_generator.state
    return log


class TestLocationSampling:
    """``generate_days`` (draws per slot, arithmetic per day) equals the per-slot recipe."""

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_matches_generator_choice_draws_and_stream(self, small_city, seed):
        log = _assert_matches_reference(small_city, seed, num_days=3)
        assert len(log) > 0

    def test_matches_generator_choice_on_a_preset_raster(self):
        _assert_matches_reference(xian_like(scale=0.004), seed=5, num_days=1)

    def test_matches_with_zero_count_slots(self, small_city):
        city = replace(small_city, daily_volume=3.0)
        log = _assert_matches_reference(city, seed=2, num_days=4)
        per_slot = np.bincount(log.day * city.slots.slots_per_day + log.slot, minlength=4 * 48)
        assert 0 < len(log) and np.any(per_slot == 0)

    def test_matches_from_a_weekend_phase(self, small_city):
        _assert_matches_reference(small_city, seed=4, num_days=3, start_day=5)

    def test_matches_with_hour_long_slots(self, small_city):
        city = replace(small_city, slots=TimeSlotConfig(minutes_per_slot=60))
        log = _assert_matches_reference(city, seed=8, num_days=2)
        assert log.slot.max() < 24
