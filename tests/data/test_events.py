"""Tests for repro.data.events."""

import numpy as np
import pytest

from repro.data.events import EventLog, TimeSlotConfig


def make_log(n=10, days=2, slots=TimeSlotConfig(), seed=0):
    rng = np.random.default_rng(seed)
    return EventLog(
        x=rng.random(n),
        y=rng.random(n),
        day=rng.integers(0, days, n),
        slot=rng.integers(0, slots.slots_per_day, n),
        dropoff_x=rng.random(n),
        dropoff_y=rng.random(n),
        revenue=rng.uniform(2, 20, n),
        slots=slots,
    )


class TestTimeSlotConfig:
    def test_default_is_30_minutes(self):
        assert TimeSlotConfig().slots_per_day == 48

    @pytest.mark.parametrize("minutes,slots", [(60, 24), (15, 96), (1440, 1)])
    def test_slots_per_day(self, minutes, slots):
        assert TimeSlotConfig(minutes).slots_per_day == slots

    @pytest.mark.parametrize("minutes", [0, -30, 7, 100])
    def test_invalid_slot_lengths_rejected(self, minutes):
        with pytest.raises(ValueError):
            TimeSlotConfig(minutes)

    def test_slot_of_minute(self):
        config = TimeSlotConfig(30)
        assert config.slot_of_minute(0) == 0
        assert config.slot_of_minute(29.9) == 0
        assert config.slot_of_minute(30) == 1
        assert config.slot_of_minute(8 * 60) == 16

    def test_slot_of_minute_out_of_range(self):
        with pytest.raises(ValueError):
            TimeSlotConfig().slot_of_minute(1440)

    def test_slot_label(self):
        assert TimeSlotConfig().slot_label(16) == "08:00-08:30"

    def test_slot_label_out_of_range(self):
        with pytest.raises(ValueError):
            TimeSlotConfig().slot_label(48)


class TestEventLogValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            EventLog(
                x=np.array([0.1, 0.2]),
                y=np.array([0.1]),
                day=np.array([0]),
                slot=np.array([0]),
                dropoff_x=np.array([0.1]),
                dropoff_y=np.array([0.1]),
                revenue=np.array([1.0]),
            )

    def test_out_of_range_coordinates_rejected(self):
        with pytest.raises(ValueError):
            EventLog(
                x=np.array([1.2]),
                y=np.array([0.1]),
                day=np.array([0]),
                slot=np.array([0]),
                dropoff_x=np.array([0.1]),
                dropoff_y=np.array([0.1]),
                revenue=np.array([1.0]),
            )

    def test_out_of_range_slot_rejected(self):
        with pytest.raises(ValueError):
            EventLog(
                x=np.array([0.2]),
                y=np.array([0.1]),
                day=np.array([0]),
                slot=np.array([99]),
                dropoff_x=np.array([0.1]),
                dropoff_y=np.array([0.1]),
                revenue=np.array([1.0]),
            )

    @pytest.mark.parametrize("column", ["x", "y"])
    def test_nan_coordinate_rejected(self, column):
        # Every comparison with NaN is False, so a range check written as
        # "reject if x < 0 or x >= 1" would let it through to counts().
        columns = dict(
            x=np.array([0.2, 0.3]),
            y=np.array([0.1, 0.4]),
            day=np.array([0, 0]),
            slot=np.array([0, 1]),
            dropoff_x=np.array([0.1, 0.1]),
            dropoff_y=np.array([0.1, 0.1]),
            revenue=np.array([1.0, 1.0]),
        )
        columns[column][1] = np.nan
        with pytest.raises(ValueError, match="pick-up coordinates"):
            EventLog(**columns)

    def test_negative_day_rejected(self):
        # counts() would otherwise size its tensor from max(day) + 1 and
        # silently drop every event.
        with pytest.raises(ValueError, match="day indices"):
            EventLog(
                x=np.array([0.2]),
                y=np.array([0.1]),
                day=np.array([-1]),
                slot=np.array([0]),
                dropoff_x=np.array([0.1]),
                dropoff_y=np.array([0.1]),
                revenue=np.array([1.0]),
            )

    def test_empty_log_is_valid(self):
        log = EventLog(
            x=np.array([]),
            y=np.array([]),
            day=np.array([]),
            slot=np.array([]),
            dropoff_x=np.array([]),
            dropoff_y=np.array([]),
            revenue=np.array([]),
        )
        assert len(log) == 0
        assert log.num_days == 0


class TestEventLogCounts:
    def test_counts_shape(self):
        log = make_log(50, days=3)
        counts = log.counts(8)
        assert counts.shape == (3, 48, 8, 8)

    def test_counts_total_matches_events(self):
        log = make_log(200, days=2)
        assert log.counts(16).sum() == 200

    def test_counts_cell_placement(self):
        log = EventLog(
            x=np.array([0.05, 0.95]),
            y=np.array([0.05, 0.95]),
            day=np.array([0, 0]),
            slot=np.array([0, 0]),
            dropoff_x=np.array([0.5, 0.5]),
            dropoff_y=np.array([0.5, 0.5]),
            revenue=np.array([1.0, 1.0]),
        )
        counts = log.counts(2)
        assert counts[0, 0, 0, 0] == 1  # bottom-left cell
        assert counts[0, 0, 1, 1] == 1  # top-right cell

    def test_counts_num_days_override(self):
        log = make_log(30, days=2)
        assert log.counts(4, num_days=5).shape[0] == 5

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            make_log().counts(0)

    def test_revenue_totals_match(self):
        log = make_log(100, days=2)
        assert log.revenue_totals(8).sum() == pytest.approx(log.revenue.sum())


class TestEventLogSelection:
    def test_select_days_reindexes(self):
        log = make_log(200, days=4)
        selected = log.select_days([2, 3])
        assert selected.num_days <= 2
        assert set(np.unique(selected.day)).issubset({0, 1})

    def test_select_days_preserves_count(self):
        log = make_log(200, days=4)
        total = sum(len(log.select_days([d])) for d in range(4))
        assert total == len(log)

    @pytest.mark.parametrize("days", [[3, 1], [2, 0, 2, 3, 0], [1, 1], [5, 3]])
    def test_select_days_matches_a_lookup_remap(self, days):
        # Unsorted and duplicated day lists; day 5 is absent from the log.
        log = make_log(300, days=4, seed=3)
        selected = log.select_days(days)
        kept = sorted(set(days))
        remap = {d: i for i, d in enumerate(kept)}
        mask = np.isin(log.day, kept)
        expected = np.array([remap[int(d)] for d in log.day[mask]], dtype=int)
        assert selected.day.dtype == expected.dtype
        assert np.array_equal(selected.day, expected)
        assert np.array_equal(selected.x, log.x[mask])

    def test_select_slot(self):
        log = make_log(300, days=2)
        slot_log = log.select_slot(5)
        assert np.all(slot_log.slot == 5)

    def test_concatenate_roundtrip(self):
        log = make_log(100, days=2)
        parts = [log.select_slot(s) for s in range(48)]
        merged = EventLog.concatenate(parts)
        assert len(merged) == len(log)

    def test_concatenate_empty_list_rejected(self):
        with pytest.raises(ValueError):
            EventLog.concatenate([])

    def test_concatenate_mixed_slot_config_rejected(self):
        log_a = make_log(10, slots=TimeSlotConfig(30))
        log_b = make_log(10, slots=TimeSlotConfig(60))
        with pytest.raises(ValueError):
            EventLog.concatenate([log_a, log_b])
