"""Tests for repro.data.dataset."""

import numpy as np
import pytest

from repro.data.dataset import DatasetSplit, EventDataset


class TestDatasetSplit:
    def test_chronological_split(self):
        split = DatasetSplit.chronological(10, val_days=2, test_days=1)
        assert split.train_days == tuple(range(7))
        assert split.val_days == (7, 8)
        assert split.test_days == (9,)

    def test_chronological_too_few_days(self):
        with pytest.raises(ValueError):
            DatasetSplit.chronological(3, val_days=2, test_days=1)

    def test_overlapping_days_rejected(self):
        with pytest.raises(ValueError):
            DatasetSplit(train_days=(0, 1), val_days=(1,), test_days=(2,))

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            DatasetSplit(train_days=(), val_days=(0,), test_days=(1,))

    def test_empty_test_rejected(self):
        with pytest.raises(ValueError):
            DatasetSplit(train_days=(0,), val_days=(1,), test_days=())


class TestEventDataset:
    def test_from_city_builds_split(self, tiny_dataset):
        assert tiny_dataset.num_days == 12
        assert len(tiny_dataset.split.train_days) == 9
        assert len(tiny_dataset.split.test_days) == 1

    def test_counts_shape_and_caching(self, tiny_dataset):
        counts = tiny_dataset.counts(8)
        assert counts.shape == (12, 48, 8, 8)
        assert tiny_dataset.counts(8) is counts  # cached object

    def test_counts_total_equals_events(self, tiny_dataset):
        assert tiny_dataset.counts(16).sum() == len(tiny_dataset.events)

    def test_revenue_cached(self, tiny_dataset):
        revenue = tiny_dataset.revenue(8)
        assert revenue.shape == (12, 48, 8, 8)
        assert tiny_dataset.revenue(8) is revenue

    def test_alpha_shape_and_nonnegativity(self, tiny_dataset):
        alpha = tiny_dataset.alpha(8, slot=16)
        assert alpha.shape == (8, 8)
        assert np.all(alpha >= 0)

    def test_alpha_uses_training_days_only(self, tiny_dataset):
        alpha_train = tiny_dataset.alpha(4, slot=16)
        alpha_all = tiny_dataset.alpha(4, slot=16, days=range(12), workdays_only=False)
        # Different day sets should generally give different estimates.
        assert alpha_train.shape == alpha_all.shape

    def test_alpha_invalid_slot(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.alpha(8, slot=99)

    def test_alpha_scales_with_resolution(self, tiny_dataset):
        coarse = tiny_dataset.alpha(4, slot=16).sum()
        fine = tiny_dataset.alpha(16, slot=16).sum()
        assert coarse == pytest.approx(fine, rel=1e-9)

    def test_test_counts_slice(self, tiny_dataset):
        full = tiny_dataset.test_counts(8)
        assert full.shape == (1, 48, 8, 8)
        one_slot = tiny_dataset.test_counts(8, slot=16)
        assert one_slot.shape == (1, 8, 8)

    def test_test_events_rebased(self, tiny_dataset):
        events = tiny_dataset.test_events()
        assert events.num_days <= 1

    def test_split_day_out_of_range_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            EventDataset(
                tiny_dataset.events,
                DatasetSplit(train_days=(0,), val_days=(1,), test_days=(99,)),
            )

    def test_workdays_filtering(self, tiny_dataset):
        workdays = tiny_dataset.workdays(range(7))
        assert 5 not in workdays and 6 not in workdays


def _alpha_from_count_tensor(dataset, resolution, slot, days=None, workdays_only=True):
    """``alpha`` as the mean of the full ``(days, slots, g, g)`` count tensor."""
    days = list(dataset.split.train_days) if days is None else list(days)
    if workdays_only:
        days = dataset.workdays(days) or days
    return dataset.counts(resolution)[np.asarray(days, dtype=int), slot].mean(axis=0)


class TestAlphaHistogram:
    @pytest.mark.parametrize("resolution", [1, 4, 13, 32])
    @pytest.mark.parametrize("slot", [0, 16, 47])
    @pytest.mark.parametrize(
        "days, workdays_only",
        [
            (None, True),
            (None, False),
            ([0, 3, 3, 5, 0, 11], False),
            ([0, 3, 3, 5, 0, 11], True),
            ([5, 6], True),  # a weekend only: the filter falls back to both days
            ([11], True),
        ],
    )
    def test_equals_count_tensor_mean_bit_for_bit(
        self, tiny_dataset, resolution, slot, days, workdays_only
    ):
        alpha = tiny_dataset.alpha(resolution, slot=slot, days=days, workdays_only=workdays_only)
        expected = _alpha_from_count_tensor(tiny_dataset, resolution, slot, days, workdays_only)
        assert alpha.dtype == expected.dtype
        assert np.array_equal(alpha, expected)

    def test_builds_no_count_tensor(self, tiny_dataset):
        fresh = EventDataset(tiny_dataset.events, tiny_dataset.split, city=tiny_dataset.city)
        for resolution in (64, 90, 126):
            fresh.alpha(resolution, slot=16)
        assert fresh._count_cache == {}

    @pytest.mark.parametrize("days", [[], [-1], [99], [0, 12]])
    def test_rejects_days_outside_the_log(self, tiny_dataset, days):
        with pytest.raises(ValueError):
            tiny_dataset.alpha(8, slot=16, days=days)

    def test_rejects_non_positive_resolution(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.alpha(0, slot=16)


class TestSupervisedSamples:
    def test_closeness_only_shapes(self, tiny_dataset):
        views, targets = tiny_dataset.supervised_samples(
            4, days=[5, 6], closeness=8
        )
        assert set(views) == {"closeness"}
        assert views["closeness"].shape[1:] == (8, 4, 4)
        assert targets.shape[1:] == (4, 4)
        assert views["closeness"].shape[0] == targets.shape[0] == 2 * 48

    def test_period_and_trend_views(self, tiny_dataset):
        views, targets = tiny_dataset.supervised_samples(
            4, days=[8, 9], closeness=4, period=2, trend=1
        )
        assert set(views) == {"closeness", "period", "trend"}
        assert views["period"].shape[1] == 2
        assert views["trend"].shape[1] == 1

    def test_history_alignment(self, tiny_dataset):
        """The last closeness frame must be the slot immediately before the target."""
        views, targets = tiny_dataset.supervised_samples(4, days=[5], closeness=3)
        counts = tiny_dataset.counts(4).reshape(-1, 4, 4)
        first_target_index = 5 * 48
        np.testing.assert_allclose(views["closeness"][0, -1], counts[first_target_index - 1])
        np.testing.assert_allclose(targets[0], counts[first_target_index])

    def test_insufficient_history_raises(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.supervised_samples(4, days=[0], closeness=8, trend=8)

    def test_invalid_closeness(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.supervised_samples(4, days=[5], closeness=0)


class TestTrainingWeeks:
    def test_truncates_training_days(self, tiny_dataset):
        truncated = tiny_dataset.with_training_weeks(1)
        assert len(truncated.split.train_days) == 7
        assert truncated.split.test_days == tiny_dataset.split.test_days

    def test_longer_than_available_keeps_everything(self, tiny_dataset):
        same = tiny_dataset.with_training_weeks(10)
        assert same.split.train_days == tiny_dataset.split.train_days

    def test_invalid_weeks(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.with_training_weeks(0)

    def test_shares_count_cache(self, tiny_dataset):
        truncated = tiny_dataset.with_training_weeks(1)
        assert truncated.counts(8) is tiny_dataset.counts(8)
