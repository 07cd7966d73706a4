"""Lifecycle, keep-alive, and overload behavior of ``sst serve``.

Four robustness properties pinned at the HTTP level:

* **keep-alive** — one connection serves many requests with the exact
  bytes of fresh-connection requests, bounded by
  ``max_requests_per_connection`` and the connection cap;
* **slow-client defense** — a stalled request gets a typed 408 and its
  connection closed, a quietly idle keep-alive connection is closed
  cleanly, and fast clients are never affected;
* **readiness vs liveness** — ``/readyz`` is 200 only in READY;
  draining and degraded states flip it to 503 while ``/healthz``
  stays alive;
* **admission control** — overload sheds with typed 429 +
  ``Retry-After`` *before* queueing, never a 500, and the service
  recovers to READY when the backlog clears.
"""

from __future__ import annotations

import json
import socket
import threading
import time

from repro.core import telemetry
from repro.core.lifecycle import DEGRADED, DRAINING, READY
from repro.core.registry import Measure
from repro.core.resilience import injected_faults
from repro.core.server import ServerConfig, serve_in_thread
from tests.server.conftest import (client_for, counter, dag_toolkit,
                                   error_code, raw_request)

DAG = {
    "thing": [],
    "agent": ["thing"], "artifact": ["thing"],
    "person": ["agent"], "robot": ["agent", "artifact"],
    "tool": ["artifact"], "hammer": ["tool"],
}


def toolkit():
    return dag_toolkit({"life": DAG})


PAIR = {"first": ["life", "person"], "second": ["life", "robot"],
        "measure": int(Measure.SHORTEST_PATH)}


def pair_request(keep_alive: bool = True) -> bytes:
    body = json.dumps(PAIR).encode("utf-8")
    connection = "keep-alive" if keep_alive else "close"
    return (b"POST /v1/similarity HTTP/1.1\r\n"
            b"Host: t\r\n"
            b"Content-Type: application/json\r\n"
            b"Connection: " + connection.encode() + b"\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n" + body)


def read_response(sock: socket.socket) -> tuple[int, dict, bytes]:
    """Read exactly one framed HTTP response off a live socket."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError(f"peer closed mid-headers: {data!r}")
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = rest
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("peer closed mid-body")
        body += chunk
    return status, headers, body[:length]


class TestKeepAlive:
    def test_one_connection_serves_many_identical_requests(self):
        config = ServerConfig(port=0)
        with serve_in_thread(toolkit(), config) as handle:
            # Baseline: the same request over a fresh connection.
            status, _, baseline = client_for(handle).post_json(
                "/v1/similarity", PAIR)
            assert status == 200
            reuse = counter("server.keepalive.reuse")
            with socket.create_connection((handle.host, handle.port),
                                          timeout=10.0) as sock:
                for _ in range(5):
                    sock.sendall(pair_request())
                    status, headers, body = read_response(sock)
                    assert status == 200
                    assert headers["connection"] == "keep-alive"
                    assert body == baseline
            assert counter("server.keepalive.reuse") == reuse + 4

    def test_client_connection_close_is_honored(self):
        with serve_in_thread(toolkit(), ServerConfig(port=0)) as handle:
            with socket.create_connection((handle.host, handle.port),
                                          timeout=10.0) as sock:
                sock.sendall(pair_request(keep_alive=False))
                status, headers, _ = read_response(sock)
                assert status == 200
                assert headers["connection"] == "close"
                assert sock.recv(65536) == b""  # server closed

    def test_max_requests_per_connection_closes_at_the_cap(self):
        config = ServerConfig(port=0, max_requests_per_connection=2)
        with serve_in_thread(toolkit(), config) as handle:
            with socket.create_connection((handle.host, handle.port),
                                          timeout=10.0) as sock:
                sock.sendall(pair_request())
                _, headers, _ = read_response(sock)
                assert headers["connection"] == "keep-alive"
                sock.sendall(pair_request())
                _, headers, _ = read_response(sock)
                assert headers["connection"] == "close"
                assert sock.recv(65536) == b""

    def test_keep_alive_disabled_closes_every_connection(self):
        config = ServerConfig(port=0, keep_alive=False)
        with serve_in_thread(toolkit(), config) as handle:
            with socket.create_connection((handle.host, handle.port),
                                          timeout=10.0) as sock:
                sock.sendall(pair_request())  # client asks keep-alive
                _, headers, _ = read_response(sock)
                assert headers["connection"] == "close"
                assert sock.recv(65536) == b""

    def test_error_responses_keep_framed_connections_alive(self):
        """A 422 consumed its body: the connection stays usable."""
        with serve_in_thread(toolkit(), ServerConfig(port=0)) as handle:
            with socket.create_connection((handle.host, handle.port),
                                          timeout=10.0) as sock:
                bad = json.dumps({"measure": "no-such"}).encode()
                sock.sendall(
                    b"POST /v1/similarity HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: " + str(len(bad)).encode()
                    + b"\r\n\r\n" + bad)
                status, headers, body = read_response(sock)
                assert status == 422
                assert error_code(body) == "unknown_measure"
                assert headers["connection"] == "keep-alive"
                sock.sendall(pair_request())
                status, _, _ = read_response(sock)
                assert status == 200

    def test_connection_cap_sheds_excess_connections(self):
        config = ServerConfig(port=0, max_connections=1)
        with serve_in_thread(toolkit(), config) as handle:
            with socket.create_connection((handle.host, handle.port),
                                          timeout=10.0) as first:
                first.sendall(pair_request())
                status, _, _ = read_response(first)
                assert status == 200
                # The cap counts live connections: a second one is
                # refused with a typed 503 before any parsing.
                raw = raw_request(handle.host, handle.port, b"")
                assert b"503" in raw.split(b"\r\n", 1)[0]
                assert error_code(raw.partition(b"\r\n\r\n")[2]) \
                    == "too_many_connections"
                # The first connection is untouched.
                first.sendall(pair_request())
                status, _, _ = read_response(first)
                assert status == 200
            assert counter("server.rejected.connections") >= 1


class TestSpanRetention:
    def test_tracer_roots_stay_bounded_over_thousands_of_requests(self):
        tracer = telemetry.get_tracer()
        tracer.clear()
        requests = 2 * telemetry.MAX_RETAINED_ROOTS + 500
        config = ServerConfig(port=0, max_requests_per_connection=requests)
        with serve_in_thread(toolkit(), config) as handle:
            with socket.create_connection((handle.host, handle.port),
                                          timeout=10.0) as sock:
                for _ in range(requests):
                    sock.sendall(pair_request())
                    status, _, _ = read_response(sock)
                    assert status == 200
        # Every request finished a root span; only the newest are kept.
        assert len(tracer.roots) == telemetry.MAX_RETAINED_ROOTS
        assert tracer.roots[-1].name == "server.request"


class TestSlowClientDefense:
    def test_slowloris_request_line_gets_typed_408(self):
        config = ServerConfig(port=0, header_timeout=0.3)
        with serve_in_thread(toolkit(), config) as handle:
            with socket.create_connection((handle.host, handle.port),
                                          timeout=10.0) as sock:
                sock.sendall(b"POST /v1/simi")  # ...and stall
                status, headers, body = read_response(sock)
                assert status == 408
                assert error_code(body) == "timeout"
                assert headers["connection"] == "close"
                assert sock.recv(65536) == b""

    def test_slow_header_trickle_gets_typed_408(self):
        config = ServerConfig(port=0, header_timeout=0.3)
        with serve_in_thread(toolkit(), config) as handle:
            with socket.create_connection((handle.host, handle.port),
                                          timeout=10.0) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                             b"X-Half")  # header never completes
                status, _, body = read_response(sock)
                assert status == 408
                assert error_code(body) == "timeout"

    def test_idle_keepalive_connection_closes_cleanly(self):
        """Idleness is not an offense: no 408 bytes, just EOF."""
        config = ServerConfig(port=0, idle_timeout=0.3)
        with serve_in_thread(toolkit(), config) as handle:
            with socket.create_connection((handle.host, handle.port),
                                          timeout=10.0) as sock:
                sock.sendall(pair_request())
                status, _, _ = read_response(sock)
                assert status == 200
                # Sit idle past the deadline: the server closes the
                # connection without writing anything.
                assert sock.recv(65536) == b""

    def test_fast_clients_unaffected_by_a_slowloris_peer(self):
        config = ServerConfig(port=0, header_timeout=1.0)
        with serve_in_thread(toolkit(), config) as handle:
            client = client_for(handle)
            status, _, baseline = client.post_json("/v1/similarity", PAIR)
            assert status == 200
            with socket.create_connection((handle.host, handle.port),
                                          timeout=10.0) as loris:
                loris.sendall(b"POST /v1/simi")  # stalls for 1s
                for _ in range(3):
                    status, _, body = client.post_json("/v1/similarity",
                                                       PAIR)
                    assert status == 200
                    assert body == baseline


class TestReadiness:
    def test_readyz_is_200_with_state_when_ready(self):
        with serve_in_thread(toolkit(), ServerConfig(port=0)) as handle:
            client = client_for(handle)
            payload = client.get_json("/readyz")
            assert payload["status"] == READY
            assert payload["ready"] is True
            assert payload["queue_depth"] == 0
            health = client.get_json("/healthz")
            assert health["status"] == "ok"
            assert health["state"] == READY

    def test_drain_refuses_new_work_with_typed_503(self):
        config = ServerConfig(port=0, deadline_seconds=10.0)
        with serve_in_thread(toolkit(), config) as handle:
            client = client_for(handle)
            with socket.create_connection((handle.host, handle.port),
                                          timeout=10.0) as sock:
                sock.sendall(pair_request())
                status, _, _ = read_response(sock)
                assert status == 200
                # Hold the drain window open with one slow in-flight
                # request, then ask for the drain.
                with injected_faults("server.slow=1@1.0"):
                    holder = threading.Thread(
                        target=lambda: client.post_json("/v1/similarity",
                                                        PAIR))
                    holder.start()
                    for _ in range(100):
                        if handle.server.admission.inflight() > 0:
                            break
                        time.sleep(0.01)
                    handle.server.request_drain()
                    for _ in range(100):
                        if handle.server.lifecycle.state == DRAINING:
                            break
                        time.sleep(0.01)
                    assert handle.server.lifecycle.state == DRAINING
                    # The established connection's next POST is
                    # refused with a typed 503 and the connection
                    # closes.
                    sock.sendall(pair_request())
                    status, headers, body = read_response(sock)
                    assert status == 503
                    assert error_code(body) == "draining"
                    assert int(headers["retry-after"]) >= 1
                    assert headers["connection"] == "close"
                    holder.join(10.0)
            report = handle.stop()
            assert report["completed"] == 1
            assert report["abandoned"] == 0

    def test_drain_report_counts_clean_completion(self):
        config = ServerConfig(port=0, deadline_seconds=10.0)
        with serve_in_thread(toolkit(), config) as handle:
            client = client_for(handle)
            results = []
            with injected_faults("server.slow=1@0.6"):
                worker = threading.Thread(
                    target=lambda: results.append(
                        client.post_json("/v1/similarity", PAIR)))
                worker.start()
                # Let the slow request get admitted, then drain.
                for _ in range(100):
                    if handle.server.admission.inflight() > 0:
                        break
                    time.sleep(0.01)
                report = handle.stop()
                worker.join(10.0)
            assert report["inflight_at_drain"] == 1
            assert report["completed"] == 1
            assert report["abandoned"] == 0
            # The admitted request was answered, not dropped.
            assert results and results[0][0] == 200

    def test_drain_deadline_abandons_overlong_work(self):
        config = ServerConfig(port=0, deadline_seconds=30.0,
                              drain_seconds=0.2)
        with serve_in_thread(toolkit(), config) as handle:
            client = ServiceClientSafe(handle)
            with injected_faults("server.slow=1@5.0"):
                worker = threading.Thread(target=client.fire)
                worker.start()
                for _ in range(100):
                    if handle.server.admission.inflight() > 0:
                        break
                    time.sleep(0.01)
                started = time.monotonic()
                report = handle.stop()
                elapsed = time.monotonic() - started
            assert report["abandoned"] == 1
            assert report["completed"] == 0
            # The drain gave up at its deadline, not after the 5s
            # sleep.
            assert elapsed < 4.0
            worker.join(10.0)


class ServiceClientSafe:
    """Fires one request and swallows the connection teardown."""

    def __init__(self, handle):
        self.client = client_for(handle)
        self.outcome = None

    def fire(self):
        try:
            self.outcome = self.client.post_json("/v1/similarity", PAIR)
        except OSError as error:
            self.outcome = error


class TestOverload:
    def test_saturation_sheds_typed_429_and_recovers(self):
        config = ServerConfig(port=0, workers=1, queue_limit=1,
                              max_queue_wait=0.0, deadline_seconds=10.0)
        with serve_in_thread(toolkit(), config) as handle:
            client = client_for(handle)
            status, _, baseline = client.post_json("/v1/similarity", PAIR)
            assert status == 200
            shed = counter("server.shed")
            results = []
            lock = threading.Lock()

            def fire():
                outcome = client.post_json("/v1/similarity", PAIR)
                with lock:
                    results.append(outcome)

            # One worker, one queue slot, every computation sleeps:
            # at most 2 of 6 requests fit, the rest must shed.
            with injected_faults("server.slow=6@0.5"):
                threads = [threading.Thread(target=fire)
                           for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(15.0)
            statuses = sorted(status for status, _, _ in results)
            assert len(statuses) == 6
            assert 500 not in statuses and 504 not in statuses
            accepted = [entry for entry in results if entry[0] == 200]
            rejected = [entry for entry in results if entry[0] == 429]
            assert len(accepted) + len(rejected) == 6
            assert rejected, "overload must shed"
            assert len(accepted) >= 2, "admitted work must complete"
            for _, headers, body in rejected:
                assert error_code(body) == "overloaded"
                assert int(headers["retry-after"]) >= 1
            assert counter("server.shed") >= shed + len(rejected)
            # Shedding degraded the service; once the backlog clears
            # it must restore and advertise readiness again.
            for _ in range(100):
                if handle.server.lifecycle.state == READY:
                    break
                time.sleep(0.05)
            payload = client.get_json("/readyz")
            assert payload["ready"] is True
            # And serve the exact same bytes as before the storm.
            status, _, body = client.post_json("/v1/similarity", PAIR)
            assert status == 200
            assert body == baseline

    def test_readyz_flips_to_degraded_during_shedding(self):
        config = ServerConfig(port=0, workers=1, queue_limit=1,
                              max_queue_wait=0.0, deadline_seconds=10.0)
        with serve_in_thread(toolkit(), config) as handle:
            client = client_for(handle)
            holders = []
            with injected_faults("server.slow=2@0.8"):
                for _ in range(2):
                    thread = threading.Thread(
                        target=lambda: client.post_json("/v1/similarity",
                                                        PAIR))
                    thread.start()
                    holders.append(thread)
                for _ in range(100):
                    if handle.server.admission.inflight() >= 2:
                        break
                    time.sleep(0.01)
                # Pool and queue are full: the next request sheds and
                # flips the lifecycle DEGRADED.
                status, _, body = client.post_json("/v1/similarity", PAIR)
                assert status == 429, body
                assert handle.server.lifecycle.state == DEGRADED
                ready_status, _, ready_body = client.get("/readyz")
                assert ready_status == 503
                payload = json.loads(ready_body)
                assert payload["ready"] is False
                assert payload["status"] == DEGRADED
                # Liveness is a different question: still 200.
                assert client.get_json("/healthz")["status"] == "ok"
                for thread in holders:
                    thread.join(15.0)
