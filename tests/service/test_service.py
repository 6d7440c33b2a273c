"""DispatchService lifecycle: idle wakeup, drain semantics, HTTP API."""

import dataclasses
import threading
import time

import pytest

from repro.service import (
    AdmissionError,
    DispatchService,
    HttpClient,
    ServiceConfig,
    order_payloads,
    serve_http,
)


@pytest.fixture()
def payloads(bundle):
    return order_payloads(bundle)


def make_service(scenario, bundle, **overrides):
    config = ServiceConfig(scenario=scenario, **overrides)
    return DispatchService(config, bundle=bundle)


class TestServiceLifecycle:
    def test_drain_exactly_once_under_concurrency(self, scenario, bundle, payloads):
        service = make_service(scenario, bundle).start()
        for payload in payloads[:50]:
            service.submit(payload)
        reports = []
        barrier = threading.Barrier(4)

        def drainer():
            barrier.wait()
            reports.append(service.drain())

        threads = [threading.Thread(target=drainer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every concurrent drain resolves to the same report object.
        assert all(report is reports[0] for report in reports)
        report = reports[0]
        assert report.orders_admitted == 50
        assert report.assigned + report.cancelled + report.unserved == 50
        assert report.metrics.total_orders == 50
        assert service.drained.is_set()
        with pytest.raises(AdmissionError, match="draining"):
            service.submit(payloads[50])

    def test_arrival_wakes_an_idle_loop(self, scenario, bundle, payloads):
        # The idle loop blocks in take() with no timeout: only the
        # condition-variable wakeup on submit can process the arrival.
        service = make_service(scenario, bundle).start()
        time.sleep(0.2)  # let the loop reach its idle wait
        service.submit(payloads[0])
        deadline = time.perf_counter() + 2.0
        while time.perf_counter() < deadline:
            if service.stats()["admitted"] == 1:
                break
            time.sleep(0.01)
        assert service.stats()["admitted"] == 1
        service.drain()

    def test_cancellation_fires_for_order_expiring_while_queued(
        self, scenario, bundle, payloads
    ):
        service = make_service(scenario, bundle).start()
        session = service.session
        events = []

        def recording(method):
            def wrapper(*args, **kwargs):
                fired = method(*args, **kwargs)
                events.extend(fired)
                return fired

            return wrapper

        session.admit = recording(session.admit)
        session.advance = recording(session.advance)
        impatient = dict(payloads[0], max_wait_minutes=1e-3)
        service.submit(impatient)
        for payload in payloads[1:30]:
            service.submit(payload)
        report = service.drain()
        # The impatient order expired before its first batch boundary.
        assert [event.kind for event in events if event.order == 0] == ["cancelled"]
        assert report.cancelled >= 1
        assert report.assigned + report.cancelled + report.unserved == 30

    def test_stats_counters(self, scenario, bundle, payloads):
        service = make_service(scenario, bundle).start()
        service.submit(payloads[0])
        with pytest.raises(AdmissionError):
            service.submit({"nope": 1})
        report = service.drain()
        stats = service.stats()
        assert stats["submitted"] == 1
        assert stats["rejected"] == 1
        assert stats["drained"] is True
        assert report.orders_rejected == 1

    def test_unstarted_service_raises(self, scenario, bundle, payloads):
        service = make_service(scenario, bundle)
        with pytest.raises(RuntimeError, match="not started"):
            service.submit(payloads[0])
        with pytest.raises(RuntimeError, match="not started"):
            service.stats()
        with pytest.raises(RuntimeError, match="not started"):
            service.drain()

    def test_bundle_scenario_mismatch_rejected(self, scenario, bundle):
        other = dataclasses.replace(scenario, fleet_size=scenario.fleet_size + 1)
        service = DispatchService(
            ServiceConfig(scenario=other), bundle=bundle
        )
        with pytest.raises(ValueError, match="does not match"):
            service.start()

    def test_config_validation(self, scenario):
        with pytest.raises(ValueError, match="max_batch"):
            ServiceConfig(scenario=scenario, max_batch=0)

    def test_double_start_rejected(self, scenario, bundle):
        service = make_service(scenario, bundle).start()
        with pytest.raises(RuntimeError, match="already started"):
            service.start()
        service.drain()


class TestBoundedOrderState:
    def test_per_order_state_covers_only_orders_the_session_holds(
        self, scenario, bundle, payloads
    ):
        # 80 patient orders at the very end of slot 16 outnumber the
        # 40-driver fleet; the first slot-17 arrival closes slot 16, so
        # half of them leave the session unresolved (unserved).
        crowd = [
            dict(payloads[0], arrival_minute=509.5, max_wait_minutes=600.0)
            for _ in range(80)
        ]
        late = next(payload for payload in payloads if payload["slot"] == 17)
        service = make_service(scenario, bundle).start()
        for payload in crowd + [late]:
            service.submit(payload)
        deadline = time.perf_counter() + 10.0
        while service.stats()["admitted"] < 81 and time.perf_counter() < deadline:
            time.sleep(0.01)
        stats = service.stats()
        assert stats["admitted"] == 81 and stats["staged"] == 0
        unserved = service._stats.unserved
        assert unserved > 0
        # The loop keeps per-order state only for what the session still
        # holds; orders its closed slot dropped are a counter, and the
        # published pending pool still counts them.
        assert len(service._unresolved) == service.session.pending_orders
        assert stats["pending"] - stats["staged"] == len(service._unresolved) + unserved
        report = service.drain()
        stats = service.stats()
        assert not service._unresolved
        assert report.unserved == stats["pending"] - stats["staged"] >= unserved
        assert report.assigned + report.cancelled + report.unserved == 81


class TestHttpApi:
    def test_round_trip_on_ephemeral_port(self, scenario, bundle, payloads):
        service = make_service(scenario, bundle).start()
        server = serve_http(service, port=0)
        try:
            port = server.server_address[1]
            client = HttpClient(f"http://127.0.0.1:{port}")
            assert client.healthz() == {"status": "serving"}
            assert client.submit(payloads[0]) == {"order_id": 0}
            assert client.submit(payloads[1]) == {"order_id": 1}
            with pytest.raises(AdmissionError, match="must be a number"):
                client.submit({field: "x" for field in payloads[0]})
            stats = client.stats()
            assert stats["submitted"] == 2
            assert stats["rejected"] == 1
            with pytest.raises(RuntimeError, match="404"):
                client._request("GET", "/nope")
            first = client.drain()
            second = client.drain()  # idempotent: same drained report
            assert first == second
            assert first["orders_admitted"] == 2
        finally:
            server.shutdown()

    def test_port_conflict_raises_oserror(self, scenario, bundle):
        service = make_service(scenario, bundle).start()
        server = serve_http(service, port=0)
        try:
            port = server.server_address[1]
            with pytest.raises(OSError):
                serve_http(service, port=port)
        finally:
            server.shutdown()
            service.drain()
