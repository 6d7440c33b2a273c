"""Crash recovery: WAL truncation tolerance and the bit-identity contract."""

import json

import numpy as np
import pytest

from repro.service import (
    DispatchService,
    FaultPlan,
    ServiceConfig,
    ServiceFailedError,
    order_payloads,
    read_ingest_log,
    replay_ingest_log,
)
from repro.service.ingest import IngestLogWriter


@pytest.fixture()
def payloads(bundle):
    return order_payloads(bundle, max_orders=60)


def crash_service(scenario, bundle, payloads, log_path, crash_batch, mid_append=False):
    """Run a held-start service into an injected crash; returns the corpse."""
    plan = FaultPlan(
        crash_on_batch=crash_batch, crash_mid_append=mid_append, hold_start=True
    )
    config = ServiceConfig(
        scenario=scenario,
        ingest_log=str(log_path),
        max_batch=8,
        fault_plan=plan,
    )
    service = DispatchService(config, bundle=bundle).start()
    for payload in payloads:
        service.submit(payload)
    service.faults.release()
    assert service.terminal.wait(timeout=30.0)
    assert service.state == "failed"
    return service


def fleet_state(service):
    fleet = service.session.fleet
    return (
        fleet.x.copy(),
        fleet.y.copy(),
        fleet.available_at.copy(),
        fleet.served_orders.copy(),
        fleet.earned_revenue.copy(),
    )


class TestKillMidRunBitIdentity:
    @pytest.mark.parametrize("mid_append", [False, True])
    def test_recovered_run_equals_uninterrupted_run(
        self, scenario, bundle, payloads, tmp_path, mid_append
    ):
        # Uninterrupted oracle run over the same stream and batching.
        oracle_log = tmp_path / "oracle.jsonl"
        oracle = DispatchService(
            ServiceConfig(
                scenario=scenario,
                ingest_log=str(oracle_log),
                max_batch=8,
            ),
            bundle=bundle,
        ).start()
        for payload in payloads:
            oracle.submit(payload)
        oracle_report = oracle.drain()

        # Crashed run: dies before (or mid-append of) batch 3.
        log = tmp_path / "crashed.jsonl"
        crash_service(scenario, bundle, payloads, log, crash_batch=3, mid_append=mid_append)
        contents = read_ingest_log(log)
        assert contents.truncated == mid_append
        assert len(contents.records) == 3 * 8  # exact batch-aligned prefix

        recovered = DispatchService.recover(
            log, bundle=bundle, max_batch=8
        )
        assert recovered.recovered_orders == 24
        assert recovered.recovered_truncated == mid_append
        # At-least-once clients re-submit everything the WAL never saw.
        for payload in payloads[recovered.recovered_orders :]:
            recovered.submit(payload)
        report = recovered.drain()

        # Metrics, fleet arrays, and RNG stream position: all bit-identical.
        assert report.metrics == oracle_report.metrics
        for mine, theirs in zip(fleet_state(recovered), fleet_state(oracle)):
            np.testing.assert_array_equal(mine, theirs)
        assert (
            recovered.session.rng.bit_generator.state
            == oracle.session.rng.bit_generator.state
        )
        # The stitched WAL is byte-identical to the uninterrupted run's.
        assert log.read_bytes() == oracle_log.read_bytes()
        assert replay_ingest_log(log, bundle=bundle).metrics == report.metrics
        assert report.recovered_orders == 24
        assert report.orders_admitted == len(payloads)

    def test_crash_before_first_batch_recovers_from_header_only_log(
        self, scenario, bundle, payloads, tmp_path
    ):
        log = tmp_path / "early.jsonl"
        crash_service(scenario, bundle, payloads, log, crash_batch=0)
        recovered = DispatchService.recover(log, bundle=bundle)
        assert recovered.recovered_orders == 0
        for payload in payloads:
            recovered.submit(payload)
        report = recovered.drain()
        assert report.orders_admitted == len(payloads)
        assert replay_ingest_log(log, bundle=bundle).metrics == report.metrics

    def test_resumed_scheduler_reissues_identical_admission_ids(
        self, scenario, bundle, payloads, tmp_path
    ):
        log = tmp_path / "ids.jsonl"
        crash_service(scenario, bundle, payloads, log, crash_batch=2)
        recovered = DispatchService.recover(log, bundle=bundle)
        first = recovered.submit(payloads[recovered.recovered_orders])
        assert first == {"order_id": recovered.recovered_orders}
        recovered.drain()

    def test_recovered_service_does_not_shed_on_its_first_submit(
        self, scenario, bundle, payloads, tmp_path
    ):
        # The replayed resolutions must reach the scheduler before the loop
        # starts; otherwise every recovered order counts as pending.
        log = tmp_path / "bp.jsonl"
        crash_service(scenario, bundle, payloads, log, crash_batch=3)
        cap = len(read_ingest_log(log).records)
        recovered = DispatchService.recover(
            log, bundle=bundle, max_pending=cap
        )
        assert recovered.recovered_orders == cap
        assert recovered.stats()["pending"] < cap
        first = recovered.submit(payloads[cap])
        assert first == {"order_id": cap}
        assert recovered.state == "serving"
        recovered.drain()

    def test_recovered_service_rejects_arrivals_behind_wal_watermark(
        self, scenario, bundle, payloads, tmp_path
    ):
        log = tmp_path / "wm.jsonl"
        crash_service(scenario, bundle, payloads, log, crash_batch=2)
        recovered = DispatchService.recover(log, bundle=bundle)
        from repro.service import AdmissionError

        with pytest.raises(AdmissionError, match="behind the admitted watermark"):
            recovered.submit(payloads[0])
        recovered.drain()

    def test_dead_service_drain_raises_with_traceback(
        self, scenario, bundle, payloads, tmp_path
    ):
        log = tmp_path / "dead.jsonl"
        service = crash_service(scenario, bundle, payloads, log, crash_batch=1)
        with pytest.raises(ServiceFailedError, match="InjectedCrash") as excinfo:
            service.drain()
        assert "Traceback" in str(excinfo.value)
        with pytest.raises(ServiceFailedError):
            service.submit(payloads[0])


class TestTruncatedLogReader:
    def write_log(self, scenario, bundle, payloads, log_path):
        config = ServiceConfig(
            scenario=scenario,
            ingest_log=str(log_path),
            max_batch=8,
        )
        service = DispatchService(config, bundle=bundle).start()
        for payload in payloads:
            service.submit(payload)
        service.drain()
        return log_path.read_bytes()

    def test_every_byte_level_truncation_point_is_tolerated(
        self, scenario, bundle, payloads, tmp_path
    ):
        log = tmp_path / "full.jsonl"
        raw = self.write_log(scenario, bundle, payloads[:10], log)
        header_end = raw.index(b"\n") + 1
        newlines = [i for i, b in enumerate(raw) if b == 0x0A]
        target = tmp_path / "cut.jsonl"
        # Every cut inside the record region: the reader must never raise,
        # report exactly the complete records, and flag any partial tail.
        for cut in range(header_end, len(raw) + 1):
            target.write_bytes(raw[:cut])
            contents = read_ingest_log(target)
            complete = sum(1 for pos in newlines[1:] if pos < cut)
            assert len(contents.records) == complete
            clean = cut == header_end or raw[cut - 1 : cut] == b"\n"
            assert contents.truncated == (not clean)
            assert contents.complete_bytes == (
                newlines[complete] + 1 if complete else header_end
            )

    def test_truncation_before_header_completes_raises(
        self, scenario, bundle, payloads, tmp_path
    ):
        log = tmp_path / "full.jsonl"
        raw = self.write_log(scenario, bundle, payloads[:5], log)
        header_end = raw.index(b"\n") + 1
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(raw[: header_end - 2])
        with pytest.raises(ValueError, match="truncated before the header"):
            read_ingest_log(cut)

    def test_mid_file_corruption_still_raises(
        self, scenario, bundle, payloads, tmp_path
    ):
        log = tmp_path / "full.jsonl"
        self.write_log(scenario, bundle, payloads[:5], log)
        lines = log.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # corrupt a middle record
        doctored = tmp_path / "doctored.jsonl"
        doctored.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt record"):
            read_ingest_log(doctored)

    def test_truncated_replay_covers_complete_records_only(
        self, scenario, bundle, payloads, tmp_path
    ):
        log = tmp_path / "full.jsonl"
        raw = self.write_log(scenario, bundle, payloads[:10], log)
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(raw[:-4])  # clip inside the final record
        result = replay_ingest_log(cut, bundle=bundle)
        assert result.truncated is True
        assert result.order_count == 9

    def test_resume_truncates_partial_tail_then_appends(
        self, scenario, bundle, payloads, tmp_path
    ):
        log = tmp_path / "full.jsonl"
        raw = self.write_log(scenario, bundle, payloads[:4], log)
        log.write_bytes(raw[:-6])
        contents = read_ingest_log(log)
        assert contents.truncated
        writer = IngestLogWriter.resume(log, complete_bytes=contents.complete_bytes)
        record = dict(payloads[4], order_id=3)
        writer.append([record])
        writer.close()
        reread = read_ingest_log(log)
        assert not reread.truncated
        assert len(reread.records) == 4
        assert reread.records[-1]["order_id"] == 3

    def test_fsync_writer_round_trips(self, scenario, bundle, payloads, tmp_path):
        log = tmp_path / "fsync.jsonl"
        config = ServiceConfig(
            scenario=scenario,
            ingest_log=str(log),
            fsync_ingest=True,
        )
        service = DispatchService(config, bundle=bundle).start()
        for payload in payloads[:6]:
            service.submit(payload)
        report = service.drain()
        assert replay_ingest_log(log, bundle=bundle).metrics == report.metrics

    def test_header_json_is_strict(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n")
        with pytest.raises(json.JSONDecodeError):
            read_ingest_log(bad)
