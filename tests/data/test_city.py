"""Tests for repro.data.city."""

import numpy as np
import pytest

from repro.data.city import CityConfig, CityModel
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
        model = CityModel(small_city, seed=3)
        log = model.generate_slot(0, 16)
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


class _ChoiceSampledCity(CityModel):
    """Draws pick-up cells with ``Generator.choice(p=...)``, rebuilding its CDF per call."""

    def _sample_locations(self, count):
        if count == 0:
            return np.empty(0), np.empty(0)
        resolution = self.config.raster_resolution
        probabilities = self.config.surface.rasterize(resolution).ravel()
        cells = self.rng.choice(probabilities.size, size=count, p=probabilities)
        rows, cols = np.divmod(cells, resolution)
        xs = (cols + self.rng.random(count)) / resolution
        ys = (rows + self.rng.random(count)) / resolution
        xs = np.clip(xs, 0.0, np.nextafter(1.0, 0.0))
        ys = np.clip(ys, 0.0, np.nextafter(1.0, 0.0))
        return xs, ys


class TestLocationSampling:
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_matches_generator_choice_draws_and_stream(self, small_city, seed):
        model = CityModel(small_city, seed=seed)
        reference = _ChoiceSampledCity(small_city, seed=seed)
        log = model.generate_days(3)
        expected = reference.generate_days(3)
        for column in ("x", "y", "day", "slot", "dropoff_x", "dropoff_y", "revenue"):
            assert np.array_equal(getattr(log, column), getattr(expected, column)), column
        assert model.rng.bit_generator.state == reference.rng.bit_generator.state

    def test_matches_generator_choice_on_a_preset_raster(self):
        city = xian_like(scale=0.004)
        model = CityModel(city, seed=5)
        reference = _ChoiceSampledCity(city, seed=5)
        assert np.array_equal(model.generate_days(1).x, reference.generate_days(1).x)
        assert model.rng.bit_generator.state == reference.rng.bit_generator.state
