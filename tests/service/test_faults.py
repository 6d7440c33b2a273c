"""FaultPlan/FaultController units and the supervised match loop."""

import pytest

from repro.service import (
    DispatchService,
    FaultController,
    FaultPlan,
    HttpClient,
    InjectedCrash,
    ServiceConfig,
    ServiceFailedError,
    ServiceUnavailableError,
    order_payloads,
    serve_http,
)
from repro.service.faults import INJECT_SLEEP_ENV


@pytest.fixture()
def payloads(bundle):
    return order_payloads(bundle, max_orders=30)


def make_service(scenario, bundle, **overrides):
    config = ServiceConfig(scenario=scenario, **overrides)
    return DispatchService(config, bundle=bundle)


class TestFaultPlan:
    def test_default_plan_is_empty(self):
        assert FaultPlan().empty
        assert not FaultPlan(stall_ms=1.0).empty

    def test_payload_round_trip(self):
        plan = FaultPlan(
            stall_ms=2.0,
            stall_on_batch=1,
            crash_on_batch=3,
            crash_mid_append=True,
            slow_append_ms=0.5,
            drop_first_requests=2,
            hold_start=True,
        )
        assert FaultPlan.from_payload(plan.to_payload()) == plan

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(stall_ms=-1.0)
        with pytest.raises(ValueError, match="crash_on_batch"):
            FaultPlan(crash_on_batch=-1)
        with pytest.raises(ValueError, match="requires crash_on_batch"):
            FaultPlan(crash_mid_append=True)
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(drop_first_requests=-1)

    def test_from_env_maps_legacy_sleep_hook(self, monkeypatch):
        monkeypatch.delenv(INJECT_SLEEP_ENV, raising=False)
        assert FaultPlan.from_env().empty
        monkeypatch.setenv(INJECT_SLEEP_ENV, "25")
        assert FaultPlan.from_env() == FaultPlan(stall_ms=25.0)

    def test_service_config_reads_env_when_plan_omitted(
        self, scenario, monkeypatch
    ):
        monkeypatch.setenv(INJECT_SLEEP_ENV, "7")
        service = DispatchService(ServiceConfig(scenario=scenario))
        assert service.faults.plan == FaultPlan(stall_ms=7.0)
        explicit = DispatchService(
            ServiceConfig(scenario=scenario, fault_plan=FaultPlan())
        )
        assert explicit.faults.plan.empty


class TestFaultController:
    def test_crash_fires_only_on_target_batch(self):
        controller = FaultController(FaultPlan(crash_on_batch=2))
        controller.before_batch(0)
        controller.before_batch(1)
        with pytest.raises(InjectedCrash, match="batch 2"):
            controller.before_batch(2)

    def test_mid_append_crash_is_deferred_to_the_writer_seam(self):
        controller = FaultController(
            FaultPlan(crash_on_batch=1, crash_mid_append=True)
        )
        controller.before_batch(1)  # must NOT raise; the writer does

        class Sink:
            def __init__(self):
                self.data = ""

            def write(self, text):
                self.data += text

            def flush(self):
                pass

        sink = Sink()
        line = '{"order_id": 12345}\n'
        assert controller.on_append_line(line, sink, batch_index=0) is False
        assert controller.on_append_line(line, sink, batch_index=1) is True
        assert sink.data == line[: len(line) // 2]

    def test_drop_counter_is_bounded_and_path_scoped(self):
        controller = FaultController(FaultPlan(drop_first_requests=2))
        assert controller.on_http_request("/stats") is False
        assert controller.on_http_request("/orders") is True
        assert controller.on_http_request("/orders") is True
        assert controller.on_http_request("/orders") is False

    def test_hold_start_gate(self):
        controller = FaultController(FaultPlan(hold_start=True))
        controller.release()
        controller.wait_start(timeout=0.1)  # released: returns immediately


class TestSupervisedLoop:
    def test_poison_batch_fails_fast_instead_of_hanging(
        self, scenario, bundle, payloads
    ):
        # Regression: a _process exception used to kill the thread silently
        # while submit() kept accepting and drain() hung forever.
        service = make_service(scenario, bundle).start()

        def poison(chunk):
            raise RuntimeError("poison batch")

        service.session.admit = poison
        service.submit(payloads[0])
        assert service.terminal.wait(timeout=10.0)
        assert service.state == "failed"
        code, payload = service.health()
        assert code == 503
        assert payload["status"] == "failed"
        assert "poison batch" in payload["error"]
        with pytest.raises(ServiceFailedError, match="poison batch"):
            service.drain()
        with pytest.raises(ServiceFailedError, match="service failed"):
            service.submit(payloads[1])
        stats = service.stats()
        assert stats["state"] == "failed"
        assert "poison batch" in stats["failure"]
        assert not service.drained.is_set()

    def test_submit_racing_the_loop_death_gets_service_failed(
        self, scenario, bundle, payloads, monkeypatch
    ):
        # Regression: a submit that passed the failure check just before the
        # loop died used to surface the closed scheduler's AdmissionError
        # (HTTP 400, not retried) instead of ServiceFailedError (HTTP 503).
        import threading

        service = make_service(scenario, bundle).start()
        release = threading.Event()

        def poison(chunk):
            release.wait(timeout=10.0)
            raise RuntimeError("poison batch")

        service.session.admit = poison
        service.submit(payloads[0])
        scheduler = service._scheduler
        original = scheduler.submit

        def racing(payload):
            # Past the service's failure check: let the loop die now.
            release.set()
            assert service.terminal.wait(timeout=10.0)
            return original(payload)

        monkeypatch.setattr(scheduler, "submit", racing)
        with pytest.raises(ServiceFailedError, match="poison batch"):
            service.submit(payloads[1])
        assert service.state == "failed"

    def test_injected_crash_surfaces_over_http(self, scenario, bundle, payloads):
        plan = FaultPlan(crash_on_batch=0)
        service = make_service(scenario, bundle, fault_plan=plan).start()
        server = serve_http(service, port=0)
        try:
            client = HttpClient(f"http://127.0.0.1:{server.server_address[1]}")
            assert client.healthz() == {"status": "serving"}
            client.submit(payloads[0])
            assert service.terminal.wait(timeout=10.0)
            with pytest.raises(ServiceUnavailableError, match="InjectedCrash"):
                client.healthz()
            with pytest.raises(ServiceUnavailableError, match="InjectedCrash"):
                client.drain()
            with pytest.raises(ServiceUnavailableError, match="service failed"):
                client.submit(payloads[1])
        finally:
            server.shutdown()

    def test_stall_plan_slows_but_does_not_break_the_run(
        self, scenario, bundle, payloads
    ):
        plan = FaultPlan(stall_ms=1.0)
        service = make_service(scenario, bundle, fault_plan=plan).start()
        for payload in payloads[:10]:
            service.submit(payload)
        report = service.drain()
        assert report.state == "stopped"
        assert report.orders_admitted == 10

    def test_clean_run_walks_health_states(self, scenario, bundle, payloads):
        service = make_service(scenario, bundle)
        assert service.state == "starting"
        service.start()
        assert service.state in ("serving", "degraded")
        service.submit(payloads[0])
        report = service.drain()
        assert service.state == "stopped"
        assert report.state == "stopped"
        assert service.terminal.is_set()
