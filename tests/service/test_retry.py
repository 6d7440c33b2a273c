"""HttpClient retries: typed connection errors, seeded backoff, drops."""

import random
import socket

import pytest

from repro.service import (
    DispatchService,
    FaultPlan,
    HttpClient,
    RetryPolicy,
    ServiceConfig,
    ServiceUnavailableError,
    order_payloads,
    replay_ingest_log,
    serve_http,
)


@pytest.fixture()
def payloads(bundle):
    return order_payloads(bundle, max_orders=20)


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestTypedConnectionErrors:
    def test_dead_port_raises_service_unavailable(self):
        client = HttpClient(f"http://127.0.0.1:{free_port()}", timeout=0.5)
        with pytest.raises(ServiceUnavailableError, match="cannot reach"):
            client.stats()

    def test_service_unavailable_is_oserror(self):
        # The CLI's `except (ValueError, OSError)` → exit 2 path relies on it.
        assert issubclass(ServiceUnavailableError, ConnectionError)
        assert issubclass(ServiceUnavailableError, OSError)

    def test_dead_port_retries_then_raises(self):
        naps = []
        client = HttpClient(
            f"http://127.0.0.1:{free_port()}",
            timeout=0.5,
            retry=RetryPolicy(max_retries=3, base_delay=0.01, seed=5),
            sleep=naps.append,
        )
        with pytest.raises(ServiceUnavailableError):
            client.stats()
        assert client.retries == 3
        assert len(naps) == 3


class TestRetryPolicy:
    def test_backoff_is_capped_exponential_with_jitter(self):
        policy = RetryPolicy(max_retries=5, base_delay=0.1, max_delay=0.4, seed=3)
        rng = random.Random(3)
        delays = [policy.backoff(k, rng) for k in range(5)]
        # Envelope: delay_k in [0.5, 1.0] * min(max, base * 2**k).
        for k, delay in enumerate(delays):
            ceiling = min(0.4, 0.1 * 2**k)
            assert 0.5 * ceiling <= delay <= ceiling

    def test_schedule_is_deterministic_from_the_seed(self):
        first = [
            RetryPolicy(seed=42, base_delay=0.1).backoff(k, random.Random(42))
            for k in range(3)
        ]
        second = [
            RetryPolicy(seed=42, base_delay=0.1).backoff(k, random.Random(42))
            for k in range(3)
        ]
        assert first == second

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(base_delay=-0.1)


class TestDroppedConnections:
    def test_seeded_retries_heal_dropped_connections(
        self, scenario, bundle, payloads, tmp_path
    ):
        log = tmp_path / "drop.jsonl"
        plan = FaultPlan(drop_first_requests=2, hold_start=True)
        config = ServiceConfig(
            scenario=scenario,
            ingest_log=str(log),
            fault_plan=plan,
        )
        service = DispatchService(config, bundle=bundle).start()
        server = serve_http(service, port=0)
        try:
            client = HttpClient(
                f"http://127.0.0.1:{server.server_address[1]}",
                retry=RetryPolicy(max_retries=4, base_delay=0.001, seed=7),
            )
            for payload in payloads:
                client.submit(payload)
            # Both drops landed on the first order's attempts; every order
            # was still admitted exactly once (drops happen before staging).
            assert client.retries == 2
            service.faults.release()
            report = client.drain()
            assert report["orders_admitted"] == len(payloads)
            assert replay_ingest_log(log, bundle=bundle).order_count == len(payloads)
        finally:
            server.shutdown()

    def test_unretried_client_surfaces_the_drop(self, scenario, bundle, payloads):
        plan = FaultPlan(drop_first_requests=1, hold_start=True)
        config = ServiceConfig(
            scenario=scenario, fault_plan=plan
        )
        service = DispatchService(config, bundle=bundle).start()
        server = serve_http(service, port=0)
        try:
            client = HttpClient(f"http://127.0.0.1:{server.server_address[1]}")
            with pytest.raises(ServiceUnavailableError, match="dropped"):
                client.submit(payloads[0])
            client.submit(payloads[0])  # next attempt goes through
            service.faults.release()
            client.drain()
        finally:
            server.shutdown()
