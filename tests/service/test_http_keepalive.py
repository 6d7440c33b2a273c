"""HTTP/1.1 front end: persistent connections, exact framing, idle timeout,
request parsing, and the seams the repository benchmark traces."""

import http.client
import json
import socket
import sys
import time
from pathlib import Path

import pytest

from repro.service import DispatchService, HttpClient, ServiceConfig, order_payloads
from repro.service.server import (
    MAX_BODY_BYTES,
    MAX_HEADERS,
    MAX_LINE_BYTES,
    _ServiceHandler,
    serve_http,
)
from repro.utils.cache import canonical_json

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"
HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


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


def read_response(reader):
    """``(status, headers, body)`` of the next response on a shared reader."""
    status = int(reader.readline().split()[1])
    headers = {}
    for line in iter(reader.readline, b"\r\n"):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(reader.read(int(headers["content-length"])))


class TestRequestParsing:
    def test_http10_request_closes(self, port):
        with raw_socket(port) as sock:
            response, body = exchange(sock, b"GET /healthz HTTP/1.0\r\n\r\n")
            assert response.status == 200 and body == {"status": "serving"}
            assert peer_closed(sock)

    def test_http10_keep_alive_is_honoured(self, port):
        with raw_socket(port) as sock:
            request = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
            response, _ = exchange(sock, request)
            assert response.status == 200
            response, body = exchange(sock, request)
            assert response.status == 200 and body == {"status": "serving"}

    @pytest.mark.parametrize(
        "line",
        [b"GARBAGE", b"GET /healthz", b"GET /healthz FOO/1.1", b"GET /healthz HTTP/2.0"],
        ids=["one-word", "no-version", "not-http", "http2"],
    )
    def test_malformed_request_line_is_refused_and_closed(self, port, line):
        with raw_socket(port) as sock:
            response, body = exchange(sock, line + b"\r\n\r\n")
            assert response.status == 400 and "error" in body
            assert response.getheader("Connection") == "close"
            assert peer_closed(sock)

    @pytest.mark.parametrize("method", [b"PUT", b"DELETE", b"HEAD"])
    def test_unsupported_method_is_501(self, port, method):
        with raw_socket(port) as sock:
            response, body = exchange(
                sock, method + b" /orders HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
            )
            assert response.status == 501 and "error" in body
            assert peer_closed(sock)

    # The oversized lines below stop right past the limit, unterminated: the
    # server must answer without waiting for the rest, and it reads every
    # byte sent, so its close is an orderly FIN rather than a reset.

    def test_request_line_over_the_limit_is_414(self, port):
        line = b"GET /" + b"a" * (MAX_LINE_BYTES + 1 - len(b"GET /"))
        with raw_socket(port) as sock:
            response, _ = exchange(sock, line)
            assert response.status == 414
            assert peer_closed(sock)

    def test_header_line_over_the_limit_is_431(self, port):
        header = b"X-Big: " + b"a" * (MAX_LINE_BYTES + 1 - len(b"X-Big: "))
        with raw_socket(port) as sock:
            response, _ = exchange(sock, b"GET /healthz HTTP/1.1\r\n" + header)
            assert response.status == 431
            assert peer_closed(sock)

    def test_too_many_headers_is_431(self, port):
        headers = b"".join(b"X-%d: 1\r\n" % i for i in range(MAX_HEADERS + 1))
        with raw_socket(port) as sock:
            response, body = exchange(sock, b"GET /healthz HTTP/1.1\r\n" + headers)
            assert response.status == 431 and "headers" in body["error"]
            assert peer_closed(sock)

    def test_the_most_headers_allowed_are_read(self, port):
        headers = b"".join(b"X-%d: 1\r\n" % i for i in range(MAX_HEADERS - 1))
        with raw_socket(port) as sock:
            response, _ = exchange(
                sock, b"GET /healthz HTTP/1.1\r\nHost: x\r\n" + headers + b"\r\n"
            )
            assert response.status == 200

    def test_lower_case_content_length(self, port, payloads):
        request = post("/orders", canonical_json(payloads[0]).encode("utf-8"))
        request = request.replace(b"Content-Length:", b"content-length:")
        with raw_socket(port) as sock:
            response, reply = exchange(sock, request)
            assert response.status == 200 and reply == {"order_id": 0}
            response, _ = exchange(sock, HEALTHZ)
            assert response.status == 200

    def test_pipelined_requests_are_answered_in_order(self, port, payloads):
        body = canonical_json(payloads[0]).encode("utf-8")
        with raw_socket(port) as sock:
            sock.sendall(post("/orders", body) + b"GET /stats HTTP/1.1\r\n\r\n" + HEALTHZ)
            reader = sock.makefile("rb")
            assert read_response(reader)[::2] == (200, {"order_id": 0})
            status, _, stats = read_response(reader)
            assert status == 200 and stats["submitted"] == 1
            assert read_response(reader)[::2] == (200, {"status": "serving"})

    def test_get_body_is_read_before_the_next_request(self, port):
        get_with_body = b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}"
        with raw_socket(port) as sock:
            sock.sendall(get_with_body + HEALTHZ)
            reader = sock.makefile("rb")
            assert read_response(reader)[::2] == (200, {"status": "serving"})
            assert read_response(reader)[::2] == (200, {"status": "serving"})

    def test_get_with_bad_content_length_is_refused_and_closed(self, port):
        with raw_socket(port) as sock:
            response, body = exchange(
                sock, b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n"
            )
            assert response.status == 400 and "Content-Length" in body["error"]
            assert peer_closed(sock)

    def test_expect_100_continue_is_answered_before_the_body(self, port, payloads):
        body = canonical_json(payloads[0]).encode("utf-8")
        head = b"POST /orders HTTP/1.1\r\nContent-Length: %d\r\nExpect: 100-continue\r\n\r\n"
        with raw_socket(port) as sock:
            sock.sendall(head % len(body))
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                chunk = sock.recv(1)
                assert chunk, "closed before 100 Continue"
                interim += chunk
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            response, reply = exchange(sock, body)
            assert response.status == 200 and reply == {"order_id": 0}


@pytest.fixture()
def traced(monkeypatch):
    """The repository benchmark's layer shims, installed for one test."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    names = ("shims", "tracer")
    saved = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    import shims
    from tracer import Patcher, Tracer

    tracer, patcher = Tracer(), Patcher()
    shims.install(tracer, patcher)
    try:
        yield tracer, shims
    finally:
        patcher.restore()
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


class TestBenchmarkSeams:
    """``perfbench`` traces ``ServiceHTTPServer.finish_request`` (one call per
    connection) and ``_ServiceHandler.do_POST`` (one call per POST, with
    ``path`` set), and its CI keep-alive check is negative-tested by setting
    ``_ServiceHandler.protocol_version`` to ``HTTP/1.0``."""

    def test_shims_count_every_connection_and_order(self, traced, scenario, bundle, payloads):
        tracer, shims = traced
        service = DispatchService(ServiceConfig(scenario=scenario), bundle=bundle).start()
        server = serve_http(service, port=0)
        try:
            for orders in (payloads[:3], payloads[3:5]):
                connection = _CountingConnection(server.server_address[1])
                for payload in orders:
                    connection.request("POST", "/orders", canonical_json(payload).encode())
                    response = connection.getresponse()
                    assert response.status == 200 and response.read()
                connection.request("POST", "/nope", b"{}")
                assert connection.getresponse().status == 404
                connection.close()
            # A connection's span ends once its handler sees the hang-up.
            deadline = time.monotonic() + 10.0
            while len(tracer.durations("http.connection")) < 2:
                assert time.monotonic() < deadline, "handlers never finished"
                time.sleep(0.01)
        finally:
            server.shutdown()
            server.server_close()
            service.drain()
        layers = shims.layer_metrics(tracer)
        assert layers["http.connections"] == 2
        assert len(tracer.durations("http.request")) == 5  # POST /orders only
        assert layers["http.handler_s"] > 0 and layers["http.request_ms"] > 0

    def test_http10_protocol_version_closes_after_every_response(self, port, payloads, monkeypatch):
        monkeypatch.setattr(_ServiceHandler, "protocol_version", "HTTP/1.0")
        with raw_socket(port) as sock:
            response, _ = exchange(sock, b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
            assert response.status == 200 and response.version == 10
            assert peer_closed(sock)
        connection = _CountingConnection(port)
        try:
            for payload in payloads[:3]:
                connection.request("POST", "/orders", canonical_json(payload).encode())
                response = connection.getresponse()
                response.read()
                assert response.status == 200 and response.will_close
        finally:
            connection.close()
        assert connection.connects == 3
