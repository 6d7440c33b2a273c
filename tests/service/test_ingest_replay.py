"""Ingest log: byte determinism and the bit-identical offline replay bridge."""

import json

import pytest

from repro.service import (
    DispatchService,
    ServiceConfig,
    order_payloads,
    read_ingest_log,
    replay_ingest_log,
)
from repro.service.ingest import ORDER_LOG_FIELDS


def run_service(scenario, bundle, log_path, count=60):
    config = ServiceConfig(
        scenario=scenario, ingest_log=str(log_path)
    )
    service = DispatchService(config, bundle=bundle).start()
    for payload in order_payloads(bundle, max_orders=count):
        service.submit(payload)
    return service.drain()


class TestReplayBridge:
    def test_replay_reproduces_live_metrics_bit_for_bit(
        self, scenario, bundle, tmp_path
    ):
        log = tmp_path / "ingest.jsonl"
        report = run_service(scenario, bundle, log)
        result = replay_ingest_log(log, bundle=bundle)
        assert result.order_count == report.orders_admitted
        # Dataclass equality is exact float equality: the bridge's contract.
        assert result.metrics == report.metrics

    def test_two_runs_write_byte_identical_logs(self, scenario, bundle, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_service(scenario, bundle, first)
        run_service(scenario, bundle, second)
        assert first.read_bytes() == second.read_bytes()

    def test_log_carries_no_wall_clock_keys(self, scenario, bundle, tmp_path):
        log = tmp_path / "ingest.jsonl"
        run_service(scenario, bundle, log, count=10)
        contents = read_ingest_log(log)
        header, records = contents.header, contents.records
        assert not contents.truncated
        assert header["kind"] == "repro-service-ingest"
        assert len(records) == 10
        for record in records:
            assert set(record) == set(ORDER_LOG_FIELDS)
            assert not any(key.startswith("_") for key in record)


class TestLogValidation:
    def test_empty_file_rejected(self, tmp_path):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_ingest_log(log)

    def test_wrong_kind_rejected(self, tmp_path):
        log = tmp_path / "other.jsonl"
        log.write_text(json.dumps({"kind": "something-else", "schema": 1}) + "\n")
        with pytest.raises(ValueError, match="not a service ingest log"):
            read_ingest_log(log)

    def test_unsupported_schema_rejected(self, scenario, bundle, tmp_path):
        log = tmp_path / "ingest.jsonl"
        run_service(scenario, bundle, log, count=5)
        header = dict(read_ingest_log(log).header)
        header["schema"] = 99
        doctored = tmp_path / "doctored.jsonl"
        lines = log.read_text().splitlines()
        lines[0] = json.dumps(header)
        doctored.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="unsupported ingest schema"):
            read_ingest_log(doctored)

    def test_schema_1_log_with_a_sparse_mode_rejected(self, scenario, bundle, tmp_path):
        # Schema 1 recorded a user-set matching mode; replaying one now
        # would silently ignore it, so such logs fail loudly instead.
        log = tmp_path / "ingest.jsonl"
        run_service(scenario, bundle, log, count=5)
        header = dict(read_ingest_log(log).header)
        assert "sparse" not in header
        header.update(schema=1, sparse="never")
        lines = log.read_text().splitlines()
        lines[0] = json.dumps(header)
        log.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="unsupported ingest schema 1"):
            replay_ingest_log(log, bundle=bundle)

    def test_bundle_mismatch_rejected(self, scenario, bundle, tmp_path):
        import dataclasses

        from repro.dispatch.scenarios import build_scenario_bundle

        log = tmp_path / "ingest.jsonl"
        run_service(scenario, bundle, log, count=5)
        other = build_scenario_bundle(
            dataclasses.replace(scenario, fleet_size=scenario.fleet_size + 1)
        )
        with pytest.raises(ValueError, match="does not match"):
            replay_ingest_log(log, bundle=other)

    def test_header_only_log_replays_to_zero_metrics(
        self, scenario, bundle, tmp_path
    ):
        log = tmp_path / "ingest.jsonl"
        # A drained run that admitted nothing still writes the header.
        config = ServiceConfig(
            scenario=scenario, ingest_log=str(log)
        )
        DispatchService(config, bundle=bundle).start().drain()
        result = replay_ingest_log(log, bundle=bundle)
        assert result.order_count == 0
        assert result.metrics.total_orders == 0
        assert result.metrics.served_orders == 0
