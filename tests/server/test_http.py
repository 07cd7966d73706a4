"""HTTP robustness: hostile input can refuse, never wedge or traceback.

Every malformed request — bad JSON, oversized bodies, truncated
streams, garbage request lines, unknown everything — must come back as
a typed JSON error (``error.code`` / ``error.message`` /
``error.request_id``) with the right status, and the accept loop must
keep answering ``/healthz`` afterwards.  A hypothesis fuzzer drives
both the request parser (raw bytes over the socket) and the service
payload validator (arbitrary JSON-shaped objects) to pin the
"dict out or RequestError, nothing else" contract.
"""

from __future__ import annotations

import json
import socket
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.facade import SOQASimPackToolkit
from repro.core.registry import Measure
from repro.core.resilience import Deadline
from repro.core.server import RequestError, ServerConfig, serve_in_thread
from repro.errors import SSTCoreError
from repro.soqa.api import SOQA
from tests.conftest import MINI_OWL, MINI_PLOOM, MINI_WORDNET
from tests.server.conftest import (ServiceClient, client_for, error_code,
                                   raw_request)

#: Body cap for this battery's server: small enough to overflow easily.
MAX_BODY = 4096


@pytest.fixture(scope="module")
def server():
    soqa = SOQA()
    soqa.load_text(MINI_OWL, "univ", "OWL")
    soqa.load_text(MINI_PLOOM, "MINI", "PowerLoom")
    soqa.load_text(MINI_WORDNET, "wn", "WordNet")
    toolkit = SOQASimPackToolkit(soqa)
    config = ServerConfig(port=0, max_body_bytes=MAX_BODY,
                          idle_timeout=5.0)
    with serve_in_thread(toolkit, config) as handle:
        yield handle


@pytest.fixture(scope="module")
def client(server) -> ServiceClient:
    return client_for(server)


class TestHappyPaths:
    def test_healthz_reports_the_corpus_shape(self, client):
        health = client.get_json("/healthz")
        assert health["status"] == "ok"
        assert health["ontologies"] == 3
        assert health["concepts"] > 0

    def test_ontologies_lists_names_languages_and_sizes(self, client):
        listing = client.get_json("/v1/ontologies")
        by_name = {entry["name"]: entry
                   for entry in listing["ontologies"]}
        assert set(by_name) == {"univ", "MINI", "wn"}
        assert by_name["univ"]["language"] == "OWL"
        assert all(entry["concepts"] > 0 for entry in by_name.values())

    def test_pair_similarity_round_trip(self, client):
        response = client.post_ok("/v1/similarity", {
            "first": ["univ", "Professor"], "second": ["univ", "Student"],
            "measure": int(Measure.SHORTEST_PATH)})
        assert isinstance(response["similarity"], float)
        assert 0.0 <= response["similarity"] <= 1.0

    def test_stale_engine_field_is_ignored(self, client):
        # The engine is not a request setting: an old client's "engine"
        # field is ignored like any unknown key, and the kernel answers.
        payload = {"first": ["univ", "Professor"],
                   "second": ["univ", "Student"],
                   "measure": int(Measure.LIN)}
        expected = client.post_ok("/v1/similarity", payload)
        for engine in ("naive", "warp"):
            assert client.post_ok("/v1/similarity",
                                  {**payload, "engine": engine}) == expected

    def test_metrics_exposes_server_counters(self, client):
        client.get_json("/healthz")
        status, headers, body = client.get("/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert "sst_server_requests" in text
        assert "sst_server_request_seconds" in text

    def test_request_id_header_is_echoed(self, client):
        status, headers, _ = client.get(
            "/healthz", headers={"X-Request-Id": "trace-42"})
        assert status == 200
        assert headers["x-request-id"] == "trace-42"

    def test_unprintable_request_id_is_replaced(self, client):
        status, headers, _ = client.get(
            "/healthz", headers={"X-Request-Id": "a" * 400})
        assert status == 200
        assert headers["x-request-id"].startswith("req-")


class TestTypedRefusals:
    def test_unknown_path_is_404(self, client):
        status, _, body = client.get("/v2/nope")
        assert status == 404
        assert error_code(body) == "unknown_path"

    def test_wrong_method_is_405_with_allow(self, client):
        status, headers, body = client.post_json("/healthz", {})
        assert status == 405
        assert headers["allow"] == "GET"
        assert error_code(body) == "method_not_allowed"

    def test_get_on_similarity_is_405(self, client):
        status, headers, body = client.get("/v1/similarity")
        assert status == 405
        assert headers["allow"] == "POST"

    def test_malformed_json_is_400(self, client):
        status, _, body = client.request(
            "POST", "/v1/similarity", body=b"{not json",
            headers={"Content-Type": "application/json"})
        assert status == 400
        assert error_code(body) == "bad_json"

    def test_non_object_payload_is_422(self, client):
        status, _, body = client.post_json("/v1/similarity", [1, 2, 3])
        assert status == 422
        assert error_code(body) == "invalid_payload"

    def test_missing_fields_is_422(self, client):
        status, _, body = client.post_json("/v1/similarity", {})
        assert status == 422
        assert error_code(body) == "missing_field"

    def test_unknown_measure_is_422(self, client):
        status, _, body = client.post_json("/v1/similarity", {
            "first": ["univ", "Person"], "second": ["univ", "Student"],
            "measure": "no-such-measure"})
        assert status == 422
        assert error_code(body) == "unknown_measure"

    def test_unknown_ontology_is_404(self, client):
        status, _, body = client.post_json("/v1/similarity", {
            "first": ["nope", "Person"], "second": ["univ", "Student"]})
        assert status == 404
        assert error_code(body) == "unknown_ontology"

    def test_unknown_concept_is_404(self, client):
        status, _, body = client.post_json("/v1/similarity", {
            "first": ["univ", "Zork"], "second": ["univ", "Student"]})
        assert status == 404
        assert error_code(body) == "unknown_concept"

    def test_malformed_concept_reference_is_422(self, client):
        status, _, body = client.post_json("/v1/similarity", {
            "first": "univ:Person", "second": ["univ", "Student"]})
        assert status == 422
        assert error_code(body) == "invalid_concept"

    def test_malformed_pair_entry_is_422(self, client):
        status, _, body = client.post_json("/v1/similarity", {
            "pairs": [["univ", "Person", "univ"]]})
        assert status == 422
        assert error_code(body) == "invalid_pair"

    def test_empty_concept_set_is_422(self, client):
        status, _, body = client.post_json("/v1/similarity",
                                           {"concepts": []})
        assert status == 422
        assert error_code(body) == "invalid_field"

    @pytest.mark.parametrize("k", [0, -3, True, "many", 1.5])
    def test_invalid_k_is_422(self, client, k):
        status, _, body = client.post_json("/v1/ksim", {
            "ontology": "univ", "concept": "Person", "k": k})
        assert status == 422
        assert error_code(body) == "invalid_field"

    def test_malformed_subtree_is_422(self, client):
        status, _, body = client.post_json("/v1/ksim", {
            "ontology": "univ", "concept": "Person",
            "subtree": "no-colon"})
        assert status == 422
        assert error_code(body) == "invalid_field"

    def test_oversized_payload_is_413(self, client):
        padding = {"first": ["univ", "Person"],
                   "second": ["univ", "Student"],
                   "padding": "x" * (MAX_BODY * 2)}
        status, _, body = client.post_json("/v1/similarity", padding)
        assert status == 413
        assert error_code(body) == "payload_too_large"


class TestWireLevelRobustness:
    """Raw-socket abuse the high-level client cannot even express."""

    def test_missing_content_length_is_411(self, server):
        raw = (b"POST /v1/similarity HTTP/1.1\r\n"
               b"Host: x\r\n\r\n{}")
        response = raw_request(server.host, server.port, raw)
        assert b" 411 " in response
        assert b"length_required" in response

    def test_garbage_request_line_is_400(self, server):
        response = raw_request(server.host, server.port,
                               b"EHLO mail.example.com\r\n\r\n")
        assert b" 400 " in response
        assert b"bad_request" in response

    def test_header_without_colon_is_400(self, server):
        raw = (b"GET /healthz HTTP/1.1\r\n"
               b"this is not a header\r\n\r\n")
        response = raw_request(server.host, server.port, raw)
        assert b" 400 " in response

    def test_oversized_request_line_is_400(self, server):
        raw = b"GET /" + b"a" * 8192 + b" HTTP/1.1\r\n\r\n"
        response = raw_request(server.host, server.port, raw)
        assert b" 400 " in response

    def test_too_many_headers_is_431(self, server):
        headers = b"".join(b"X-H%d: v\r\n" % index
                           for index in range(200))
        raw = b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"
        response = raw_request(server.host, server.port, raw)
        assert b" 431 " in response
        assert b"headers_too_large" in response

    def test_truncated_body_is_400(self, server):
        raw = (b"POST /v1/similarity HTTP/1.1\r\n"
               b"Content-Length: 500\r\n\r\n{\"first\":")
        response = raw_request(server.host, server.port, raw)
        assert b" 400 " in response
        assert b"truncated_body" in response

    def test_negative_content_length_is_400(self, server):
        raw = (b"POST /v1/similarity HTTP/1.1\r\n"
               b"Content-Length: -5\r\n\r\n")
        response = raw_request(server.host, server.port, raw)
        assert b" 400 " in response

    def test_empty_connection_is_closed_quietly(self, server):
        assert raw_request(server.host, server.port, b"") == b""

    def test_no_response_ever_carries_a_traceback(self, server, client):
        probes = [
            client.post_json("/v1/similarity", {"measure": {}})[2],
            client.post_json("/v1/ksim", {"ontology": 7, "concept": 8})[2],
            raw_request(server.host, server.port,
                        b"POST /v1/ksim HTTP/1.1\r\n"
                        b"Content-Length: 2\r\n\r\n[]"),
        ]
        for body in probes:
            assert b"Traceback" not in body
            assert b".py" not in body

    def test_accept_loop_survives_the_whole_gauntlet(self, server,
                                                     client):
        """After all of the above abuse the server still answers."""
        health = client.get_json("/healthz")
        assert health["status"] == "ok"
        response = client.post_ok("/v1/similarity", {
            "first": ["univ", "Person"], "second": ["univ", "Employee"]})
        assert isinstance(response["similarity"], float)


#: JSON-shaped values, nested a couple of levels deep.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=12),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=12)

payloads = st.dictionaries(
    st.sampled_from(["measure", "engine", "first", "second", "pairs",
                     "concepts", "ontology", "concept", "k",
                     "dissimilar", "subtree", "junk"]),
    json_values, max_size=6)


class TestServiceFuzz:
    """The validator contract: a dict out, or RequestError — nothing
    else escapes, no matter what JSON shape comes in."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(payload=payloads)
    def test_similarity_validator_never_leaks(self, server, payload):
        try:
            result = server.service.similarity(payload, Deadline.never())
        except RequestError as error:
            assert 400 <= error.status < 500
        else:
            assert isinstance(result, dict)

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(payload=json_values)
    def test_ksim_validator_never_leaks(self, server, payload):
        try:
            result = server.service.ksim(payload, Deadline.never())
        except RequestError as error:
            assert 400 <= error.status < 500
        else:
            assert isinstance(result, dict)


class TestWireFuzz:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(garbage=st.binary(min_size=1, max_size=512))
    def test_random_bytes_never_wedge_the_server(self, server, garbage):
        response = raw_request(server.host, server.port, garbage,
                               timeout=10.0)
        if response:
            assert response.startswith(b"HTTP/1.1 ")
            assert b"Traceback" not in response
        health = ServiceClient(server.host, server.port).get_json(
            "/healthz")
        assert health["status"] == "ok"

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=st.binary(min_size=0, max_size=256))
    def test_random_bodies_get_typed_errors(self, server, body):
        raw = (b"POST /v1/similarity HTTP/1.1\r\n"
               b"Content-Length: %d\r\n\r\n" % len(body)) + body
        response = raw_request(server.host, server.port, raw,
                               timeout=10.0)
        assert response.startswith(b"HTTP/1.1 ")
        status = int(response.split(b" ", 2)[1])
        assert status in (200, 400, 404, 422)
        header_end = response.index(b"\r\n\r\n") + 4
        payload = json.loads(response[header_end:])
        assert isinstance(payload, dict)
        if status != 200:
            assert set(payload) == {"error"}


class TestLifecycle:
    def test_bind_failure_surfaces_the_real_error_fast(self):
        """Regression: a failed bind (port already taken) must raise
        promptly with the underlying OSError attached — not block 30s
        and mask it behind a generic startup-timeout message."""
        soqa = SOQA()
        soqa.load_text(MINI_OWL, "univ", "OWL")
        toolkit = SOQASimPackToolkit(soqa)
        with socket.socket() as occupier:
            occupier.bind(("127.0.0.1", 0))
            occupier.listen(1)
            port = occupier.getsockname()[1]
            config = ServerConfig(host="127.0.0.1", port=port)
            started = time.monotonic()
            with pytest.raises(SSTCoreError) as exc_info:
                serve_in_thread(toolkit, config)
            assert time.monotonic() - started < 10.0
            assert "failed to start" in str(exc_info.value)
            assert isinstance(exc_info.value.__cause__, OSError)
