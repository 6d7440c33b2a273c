"""Admission scheduler: validation, micro-batch splitting, drain semantics."""

import threading

import pytest

from repro.service.scheduler import (
    AdmissionError,
    AdmissionScheduler,
    validate_order,
)


def order_payload(slot=16, arrival=None, **overrides):
    payload = {
        "slot": slot,
        "arrival_minute": slot * 30.0 + 5.0 if arrival is None else arrival,
        "x": 0.4,
        "y": 0.5,
        "dropoff_x": 0.6,
        "dropoff_y": 0.7,
        "revenue": 9.5,
        "max_wait_minutes": 10.0,
    }
    payload.update(overrides)
    return payload


class TestValidateOrder:
    def test_valid_order_normalises_types(self):
        order = validate_order(order_payload(slot=16))
        assert order["slot"] == 16 and isinstance(order["slot"], int)
        assert isinstance(order["revenue"], float)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ("not a mapping", "JSON object"),
            ({}, "missing required field"),
            (order_payload(revenue="12"), "must be a number"),
            (order_payload(revenue=True), "must be a number"),
            (order_payload(revenue=float("nan")), "must be finite"),
            (order_payload(revenue=-1.0), "non-negative"),
            (order_payload(max_wait_minutes=0.0), "positive"),
            (order_payload(slot=-1), "non-negative integer"),
            (order_payload(slot=16.5), "non-negative integer"),
            (order_payload(x=1.5), "unit square"),
            (order_payload(arrival=479.0), "outside slot"),
            (order_payload(arrival=510.0), "outside slot"),
        ],
    )
    def test_rejections(self, payload, message):
        with pytest.raises(AdmissionError, match=message):
            validate_order(payload)

    def test_window_respects_minutes_per_slot(self):
        # Slot 2 at 15-minute slots covers [30, 45): 35 is in, 25 is out.
        validate_order(order_payload(slot=2, arrival=35.0), minutes_per_slot=15.0)
        with pytest.raises(AdmissionError, match="outside slot"):
            validate_order(order_payload(slot=2, arrival=25.0), minutes_per_slot=15.0)


class TestAdmissionScheduler:
    def test_burst_larger_than_cap_splits_without_reordering(self):
        scheduler = AdmissionScheduler(max_batch=4)
        ids = [
            scheduler.submit(order_payload(arrival=480.0 + 0.01 * i))
            for i in range(10)
        ]
        assert ids == list(range(10))
        batches = [scheduler.take(), scheduler.take(), scheduler.take()]
        assert [len(batch) for batch in batches] == [4, 4, 2]
        taken = [order["order_id"] for batch in batches for order in batch]
        assert taken == ids  # strict admission order across the split
        assert scheduler.max_staged == 10

    def test_submit_wakes_blocked_take_immediately(self):
        scheduler = AdmissionScheduler()
        result = {}

        def taker():
            result["batch"] = scheduler.take()

        thread = threading.Thread(target=taker, daemon=True)
        thread.start()
        scheduler.submit(order_payload())
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(result["batch"]) == 1

    def test_watermark_violation_rejected_and_counted(self):
        scheduler = AdmissionScheduler()
        scheduler.submit(order_payload(arrival=490.0))
        with pytest.raises(AdmissionError, match="watermark"):
            scheduler.submit(order_payload(arrival=485.0))
        assert scheduler.rejected == 1
        assert scheduler.submitted == 1

    def test_slot_regression_rejected(self):
        # Window containment means any earlier-slot order is also behind the
        # watermark, so the monotone contract rejects it either way.
        scheduler = AdmissionScheduler()
        scheduler.submit(order_payload(slot=17, arrival=515.0))
        with pytest.raises(AdmissionError):
            scheduler.submit(order_payload(slot=16, arrival=509.0))

    def test_close_drains_then_signals_none(self):
        scheduler = AdmissionScheduler(max_batch=2)
        for i in range(3):
            scheduler.submit(order_payload(arrival=480.0 + i))
        scheduler.close()
        with pytest.raises(AdmissionError, match="draining"):
            scheduler.submit(order_payload(arrival=484.0))
        assert len(scheduler.take()) == 2
        assert len(scheduler.take()) == 1
        assert scheduler.take() is None

    def test_close_wakes_blocked_take(self):
        scheduler = AdmissionScheduler()
        result = {}

        def taker():
            result["batch"] = scheduler.take()

        thread = threading.Thread(target=taker, daemon=True)
        thread.start()
        scheduler.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert result["batch"] is None


class TestBackpressureAndResume:
    def test_shed_once_pool_reaches_cap(self):
        from repro.service.scheduler import RETRY_AFTER_SECONDS, BackpressureError

        scheduler = AdmissionScheduler(max_pending=2)
        scheduler.submit(order_payload(arrival=480.0))
        scheduler.submit(order_payload(arrival=481.0))
        with pytest.raises(BackpressureError, match="pending pool is full") as info:
            scheduler.submit(order_payload(arrival=482.0))
        assert info.value.retry_after == RETRY_AFTER_SECONDS
        assert scheduler.shed == 1
        # A resolution frees one slot and admission resumes.
        scheduler.set_resolved(1)
        scheduler.submit(order_payload(arrival=482.0))
        assert scheduler.submitted == 3

    def test_shed_orders_are_not_counted_as_rejected(self):
        from repro.service.scheduler import BackpressureError

        scheduler = AdmissionScheduler(max_pending=1)
        scheduler.set_resolved(0)
        scheduler.submit(order_payload(arrival=480.0))
        with pytest.raises(BackpressureError):
            scheduler.submit(order_payload(arrival=481.0))
        assert scheduler.rejected == 0
        assert scheduler.shed == 1

    def test_shedding_flag_clears_on_next_admission(self):
        from repro.service.scheduler import BackpressureError

        scheduler = AdmissionScheduler(max_pending=1)
        scheduler.submit(order_payload(arrival=480.0))
        assert not scheduler.shedding
        with pytest.raises(BackpressureError):
            scheduler.submit(order_payload(arrival=481.0))
        assert scheduler.shedding
        scheduler.set_resolved(1)
        scheduler.submit(order_payload(arrival=481.0))
        assert not scheduler.shedding

    def test_resume_seeds_ids_watermark_and_slot(self):
        scheduler = AdmissionScheduler(
            start_id=7, start_watermark=503.0, start_slot=16
        )
        with pytest.raises(AdmissionError, match="behind the admitted watermark"):
            scheduler.submit(order_payload(arrival=490.0))
        order_id = scheduler.submit(order_payload(arrival=503.0))
        assert order_id == 7  # equal arrival is admissible; ids continue

    def test_close_reason_customises_rejection_message(self):
        scheduler = AdmissionScheduler()
        scheduler.close(reason="service failed: boom")
        with pytest.raises(AdmissionError, match="service failed: boom"):
            scheduler.submit(order_payload())

    def test_validation(self):
        with pytest.raises(ValueError, match="max_pending"):
            AdmissionScheduler(max_pending=0)
        with pytest.raises(ValueError, match="start_id"):
            AdmissionScheduler(start_id=-1)


class TestCloseSubmitRace:
    def test_concurrent_submits_during_close_never_lose_or_deadlock(self):
        # Satellite regression: a submit racing close() must either be
        # admitted before the close or raise AdmissionError — every order
        # is accounted for and nothing hangs.
        for trial in range(20):
            scheduler = AdmissionScheduler(max_batch=1024)
            submitters = 8
            barrier = threading.Barrier(submitters + 1)
            outcomes = []
            lock = threading.Lock()

            def submit_one(index):
                barrier.wait()
                try:
                    scheduler.submit(order_payload(arrival=480.0 + trial))
                    with lock:
                        outcomes.append("admitted")
                except AdmissionError:
                    with lock:
                        outcomes.append("rejected")

            threads = [
                threading.Thread(target=submit_one, args=(i,))
                for i in range(submitters)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            scheduler.close()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive(), "submit deadlocked against close"
            assert len(outcomes) == submitters
            admitted = outcomes.count("admitted")
            assert admitted == scheduler.submitted
            # Every admitted order is takeable exactly once after the close.
            drained = 0
            while True:
                batch = scheduler.take()
                if not batch:
                    break
                drained += len(batch)
            assert drained == admitted
