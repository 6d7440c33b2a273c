"""HTTP/1.1 front end: persistent connections, exact framing, idle timeout."""

import http.client
import json
import socket
import time

import pytest

from repro.service import DispatchService, HttpClient, ServiceConfig, order_payloads
from repro.service.server import MAX_BODY_BYTES, _ServiceHandler, serve_http
from repro.utils.cache import canonical_json


@pytest.fixture()
def payloads(bundle):
    return order_payloads(bundle)


@pytest.fixture()
def port(scenario, bundle):
    service = DispatchService(ServiceConfig(scenario=scenario), bundle=bundle).start()
    server = serve_http(service, port=0)
    yield server.server_address[1]
    server.shutdown()
    server.server_close()
    service.drain()


class _CountingConnection(http.client.HTTPConnection):
    def __init__(self, port):
        super().__init__("127.0.0.1", port, timeout=10)
        self.connects = 0

    def connect(self):
        self.connects += 1
        super().connect()


def raw_socket(port):
    return socket.create_connection(("127.0.0.1", port), timeout=5)


def exchange(sock, raw):
    """Send one raw request and read exactly one response from the socket."""
    sock.sendall(raw)
    response = http.client.HTTPResponse(sock)
    response.begin()
    body = json.loads(response.read())
    return response, body


def post(path, body=b"", length=None):
    """A raw POST; ``length`` overrides the declared length (``False``: none)."""
    declared = len(body) if length is None else length
    header = b"" if declared is False else b"Content-Length: %s\r\n" % str(declared).encode()
    return b"POST %s HTTP/1.1\r\nHost: x\r\n%s\r\n%s" % (path.encode(), header, body)


def peer_closed(sock):
    return sock.recv(1) == b""


class TestPersistentConnections:
    def test_orders_share_one_connection(self, port, payloads):
        connection = _CountingConnection(port)
        try:
            for payload in payloads[:60]:
                connection.request(
                    "POST",
                    "/orders",
                    canonical_json(payload).encode("utf-8"),
                    {"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                response.read()
                assert response.status == 200
                assert response.version == 11
                assert not response.will_close
        finally:
            connection.close()
        assert connection.connects == 1

    def test_http_client_reuses_its_connection(self, port, payloads):
        client = HttpClient(f"http://127.0.0.1:{port}")
        try:
            client.healthz()
            sock = client._connection.sock
            for payload in payloads[:20]:
                client.submit(payload)
            assert client._connection.sock is sock
            assert client.stats()["submitted"] == 20
        finally:
            client.close()

    def test_connection_close_is_honoured(self, port):
        with raw_socket(port) as sock:
            response, body = exchange(
                sock, b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            )
            assert response.status == 200 and body == {"status": "serving"}
            assert peer_closed(sock)


class TestFraming:
    def test_unknown_path_body_is_consumed(self, port):
        with raw_socket(port) as sock:
            response, _ = exchange(sock, post("/nope", b"{}"))
            assert response.status == 404
            response, body = exchange(sock, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert response.status == 200 and body == {"status": "serving"}

    def test_drain_body_is_consumed(self, port):
        with raw_socket(port) as sock:
            response, _ = exchange(sock, post("/drain", b'{"ignored": true}'))
            assert response.status == 200
            response, body = exchange(sock, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert response.status == 200 and body == {"status": "stopped"}

    @pytest.mark.parametrize(
        "length, code",
        [(False, 411), ("abc", 400), ("-1", 400), ("1.5", 400), (MAX_BODY_BYTES + 1, 413)],
        ids=["missing", "non-integer", "negative", "fractional", "too-large"],
    )
    def test_bad_content_length_is_refused_and_closed(self, port, length, code):
        with raw_socket(port) as sock:
            # No body bytes follow: the server never reads them, and unread
            # bytes would make its close a reset instead of an orderly FIN.
            response, body = exchange(sock, post("/orders", length=length))
            assert response.status == code
            assert response.getheader("Connection") == "close"
            assert "error" in body
            assert peer_closed(sock)
        # The service is unharmed: a fresh connection still works.
        with raw_socket(port) as fresh:
            response, body = exchange(fresh, b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
            assert response.status == 200 and body["submitted"] == 0

    def test_largest_allowed_body_is_read(self, port):
        with raw_socket(port) as sock:
            response, body = exchange(sock, post("/orders", b" " * MAX_BODY_BYTES))
            assert response.status == 400 and "invalid JSON" in body["error"]
            response, _ = exchange(sock, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert response.status == 200

    def test_invalid_utf8_body_is_a_400(self, port):
        with raw_socket(port) as sock:
            response, body = exchange(sock, post("/orders", b"\xff\xfe\xfd"))
            assert response.status == 400 and "invalid JSON" in body["error"]


class TestIdleTimeout:
    def test_server_closes_idle_connection(self, port, monkeypatch):
        monkeypatch.setattr(_ServiceHandler, "timeout", 0.2)
        with raw_socket(port) as sock:
            response, _ = exchange(sock, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert response.status == 200
            started = time.perf_counter()
            assert peer_closed(sock)
            assert time.perf_counter() - started < 4.0
        with raw_socket(port) as fresh:
            response, _ = exchange(fresh, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert response.status == 200

    def test_http_client_reconnects_after_idle_close(self, port, payloads, monkeypatch):
        monkeypatch.setattr(_ServiceHandler, "timeout", 0.2)
        client = HttpClient(f"http://127.0.0.1:{port}")
        try:
            client.submit(payloads[0])
            time.sleep(0.6)  # the server hangs up the idle connection
            # No retry policy: the client notices the closed socket itself.
            assert client.submit(payloads[1]) == {"order_id": 1}
            assert client.retries == 0
        finally:
            client.close()
