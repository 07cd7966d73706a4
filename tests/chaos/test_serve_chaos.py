"""Chaos under traffic: a live ``sst serve`` absorbs injected faults.

The service-level counterpart of ``test_chaos.py``: faults are armed
via :func:`repro.core.resilience.injected_faults` against a **running**
server, and the bar is the same — responses bit-identical to a clean
run, failures typed (504 on deadline, 503 + Retry-After while the
breaker holds), recovery automatic (quarantined L2 files, self-healed
index artifacts, half-open probes), and everything visible in
``/metrics`` instead of a traceback.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core import telemetry
from repro.core.parallel import SERIAL
from repro.core.registry import Measure
from repro.core.resilience import CircuitBreaker, injected_faults
from repro.core.server import ServerConfig, serve_in_thread
from repro.ontologies.generator import generate_random_dag
from tests.server.conftest import client_for, counter, dag_toolkit

#: One fixed DAG per module so every boot serves the same corpus.
DAG = generate_random_dag(48, seed=11)
NAMES = sorted(DAG)

#: The matrix request every chaos scenario replays.
PAYLOAD = {"concepts": [["chaos", name] for name in NAMES[:8]],
           "measure": int(Measure.SHORTEST_PATH)}

#: The same matrix under a per-pair measure, which reads and writes the
#: L2 (the kernel's graph measures are never cached).
CACHED_PAYLOAD = dict(PAYLOAD, measure=int(Measure.NAME_LEVENSHTEIN))


@pytest.fixture(autouse=True)
def _own_cache_dir(tmp_path, monkeypatch):
    """Each chaos test gets a private L2 directory it may destroy."""
    monkeypatch.setenv("SST_CACHE_DIR", str(tmp_path / "l2"))
    monkeypatch.delenv("SST_FAULTS", raising=False)
    yield tmp_path / "l2"


def chaos_toolkit(cache: bool = False):
    return dag_toolkit({"chaos": DAG}, cache=cache)


def matrix(client, payload=PAYLOAD) -> tuple[int, dict, bytes]:
    return client.post_json("/v1/similarity", payload)


class TestSlowRequestChaos:
    def test_slow_fault_times_out_then_serves_identically(self):
        config = ServerConfig(port=0, deadline_seconds=0.3)
        with serve_in_thread(chaos_toolkit(), config) as handle:
            client = client_for(handle)
            status, _, clean = matrix(client)
            assert status == 200
            deadline_responses = counter("server.responses.deadline")
            fired = counter("faults.injected.server.slow")
            with injected_faults("server.slow=1@1.0"):
                status, _, body = matrix(client)
                assert status == 504, body
                assert json.loads(body)["error"]["code"] \
                    == "deadline_exceeded"
            assert counter("server.responses.deadline") \
                == deadline_responses + 1
            assert counter("faults.injected.server.slow") == fired + 1
            # The fault quota is spent: the very next response is 200
            # with the exact bytes of the clean run.
            status, _, body = matrix(client)
            assert status == 200
            assert body == clean


class TestBreakerChaos:
    def test_breaker_opens_rejects_then_half_open_recovers(self):
        config = ServerConfig(port=0, deadline_seconds=0.2,
                              breaker_threshold=2, breaker_reset=0.5)
        with serve_in_thread(chaos_toolkit(), config) as handle:
            client = client_for(handle)
            status, _, clean = matrix(client)
            assert status == 200
            rejected = counter("server.rejected.breaker")
            with injected_faults("server.slow=2@1.0"):
                for _ in range(2):
                    status, _, body = matrix(client)
                    assert status == 504, body
            assert handle.service.breaker.state == CircuitBreaker.OPEN
            # While the circuit holds, requests are refused up front
            # with a typed 503 and a Retry-After hint.
            status, headers, body = matrix(client)
            assert status == 503, body
            assert json.loads(body)["error"]["code"] == "unavailable"
            assert int(headers["retry-after"]) >= 1
            assert counter("server.rejected.breaker") == rejected + 1
            # After the reset window one probe is admitted; its success
            # closes the circuit and service resumes bit-identically.
            time.sleep(0.6)
            status, _, body = matrix(client)
            assert status == 200, body
            assert body == clean
            assert handle.service.breaker.state == CircuitBreaker.CLOSED

    def test_client_error_probe_resolves_instead_of_wedging(self):
        """Regression: a half-open probe that turns out to be a 422
        must close the circuit, not leave it HALF_OPEN forever (which
        would 503 every request until restart)."""
        config = ServerConfig(port=0, deadline_seconds=0.2,
                              breaker_threshold=2, breaker_reset=0.3)
        with serve_in_thread(chaos_toolkit(), config) as handle:
            client = client_for(handle)
            status, _, clean = matrix(client)
            assert status == 200
            with injected_faults("server.slow=2@1.0"):
                for _ in range(2):
                    status, _, _ = matrix(client)
                    assert status == 504
            assert handle.service.breaker.state == CircuitBreaker.OPEN
            time.sleep(0.4)
            # The admitted probe is a client error: backend healthy.
            status, _, body = client.post_json(
                "/v1/similarity", {"measure": "no-such-measure"})
            assert status == 422, body
            assert handle.service.breaker.state == CircuitBreaker.CLOSED
            # Traffic flows again immediately — no permanent 503.
            status, _, body = matrix(client)
            assert status == 200, body
            assert body == clean

    def test_unexpected_probe_failure_reopens_instead_of_wedging(self):
        """Regression: a half-open probe dying on a non-SST exception
        must re-open the circuit (failure recorded), never strand it
        HALF_OPEN with allow() refusing everything."""
        config = ServerConfig(port=0, deadline_seconds=0.2,
                              breaker_threshold=2, breaker_reset=0.3)
        with serve_in_thread(chaos_toolkit(), config) as handle:
            client = client_for(handle)
            status, _, clean = matrix(client)
            assert status == 200
            with injected_faults("server.slow=2@1.0"):
                for _ in range(2):
                    status, _, _ = matrix(client)
                    assert status == 504
            assert handle.service.breaker.state == CircuitBreaker.OPEN
            time.sleep(0.4)
            original = handle.service.similarity

            def _explode(payload, deadline):
                raise RuntimeError("probe dies unexpectedly")

            handle.service.similarity = _explode
            try:
                status, _, body = matrix(client)
                assert status == 500, body
            finally:
                handle.service.similarity = original
            # The failed probe re-opened the circuit — a resolved
            # outcome, not a leak: the next window admits a new probe.
            assert handle.service.breaker.state == CircuitBreaker.OPEN
            status, _, _ = matrix(client)
            assert status == 503
            time.sleep(0.4)
            status, _, body = matrix(client)
            assert status == 200, body
            assert body == clean
            assert handle.service.breaker.state == CircuitBreaker.CLOSED


def _spans(roots, name):
    for root in roots:
        if root.name == name:
            yield root
        yield from _spans(root.children, name)


class TestServeNeverForks:
    def test_stale_workers_variable_scores_in_process(self, monkeypatch):
        # Forking a pool from a request thread of a multi-threaded
        # server can deadlock; serve scores every request in-process
        # whatever the environment says.
        monkeypatch.setenv("SST_WORKERS", "2")
        pairs = [(("chaos", NAMES[index]), ("chaos", NAMES[index + 9]))
                 for index in range(12)]
        payload = {"pairs": [[*first, *second] for first, second in pairs],
                   # A per-pair measure: the kernel's never forked anyway.
                   "measure": int(Measure.LEVENSHTEIN)}
        toolkit = chaos_toolkit()
        expected = [toolkit.get_similarity(first[1], first[0], second[1],
                                           second[0], Measure.LEVENSHTEIN)
                    for first, second in pairs]
        telemetry.get_tracer().clear()
        before = {name: counter(name)
                  for name in telemetry.get_registry().names()
                  if name.startswith("resilience.")}
        with serve_in_thread(toolkit) as handle:
            status, _, body = client_for(handle).post_json("/v1/similarity",
                                                           payload)
        assert status == 200, body
        assert json.loads(body)["values"] == expected
        batches = list(_spans(telemetry.get_tracer().drain(),
                              "parallel.score_pairs"))
        assert batches
        assert {span.labels["strategy"] for span in batches} == {SERIAL}
        after = {name: counter(name)
                 for name in telemetry.get_registry().names()
                 if name.startswith("resilience.")}
        assert after == before


class TestCacheCorruptionChaos:
    def test_corrupt_l2_is_quarantined_between_boots(self,
                                                     _own_cache_dir):
        with serve_in_thread(chaos_toolkit(cache=True)) as handle:
            status, _, clean = matrix(client_for(handle), CACHED_PAYLOAD)
            assert status == 200
            # Flush and close, as the first boot's process would on
            # exit: a connection left for the garbage collector could
            # checkpoint its WAL over the scribbled header at any time.
            handle.service.toolkit.disk_cache.close()
        quarantined = counter("cache.l2.quarantined")
        with injected_faults("cache.corrupt=1"):
            # A fresh boot over the (scribbled-at-connect) store must
            # quarantine the L2 file and recompute the same bytes.
            with serve_in_thread(chaos_toolkit(cache=True)) as handle:
                status, _, body = matrix(client_for(handle), CACHED_PAYLOAD)
                assert status == 200, body
                assert body == clean
        assert counter("cache.l2.quarantined") == quarantined + 1
        assert len(list(_own_cache_dir.glob("*.corrupt-*"))) == 1


class TestIndexCorruptionChaos:
    def test_corrupt_index_artifact_self_heals(self, monkeypatch,
                                               _own_cache_dir):
        monkeypatch.setenv("SST_INDEX_PERSIST", "0")
        with serve_in_thread(chaos_toolkit(cache=True)) as handle:
            status, _, clean = matrix(client_for(handle))
            assert status == 200
        artifacts = list((_own_cache_dir / "index").glob("*.sstidx"))
        assert artifacts, "first boot must persist the compiled index"
        quarantined = counter("index.persist.quarantined")
        fired = counter("faults.injected.index.corrupt")
        with injected_faults("index.corrupt=1"):
            with serve_in_thread(chaos_toolkit(cache=True)) as handle:
                status, _, body = matrix(client_for(handle))
                assert status == 200, body
                assert body == clean
        assert counter("faults.injected.index.corrupt") == fired + 1
        assert counter("index.persist.quarantined") == quarantined + 1
        assert list((_own_cache_dir / "index").glob("*.corrupt-*"))


class TestChaosVisibility:
    def test_fault_and_outcome_counters_surface_in_metrics(self):
        config = ServerConfig(port=0, deadline_seconds=0.3)
        with serve_in_thread(chaos_toolkit(), config) as handle:
            client = client_for(handle)
            with injected_faults("server.slow=1@1.0"):
                status, _, _ = matrix(client)
                assert status == 504
            status, _, body = client.get("/metrics")
            assert status == 200
            text = body.decode("utf-8")
            assert "sst_faults_injected" in text
            assert "sst_server_responses_deadline" in text
            assert "sst_server_requests" in text

    def test_everything_at_once_under_traffic(self, _own_cache_dir):
        with serve_in_thread(chaos_toolkit(cache=True)) as handle:
            status, _, clean = matrix(client_for(handle), CACHED_PAYLOAD)
            assert status == 200
            # Flush and close, as the first boot's process would on
            # exit: a connection left for the garbage collector could
            # checkpoint its WAL over the scribbled header at any time.
            handle.service.toolkit.disk_cache.close()
        quarantined = counter("cache.l2.quarantined")
        config = ServerConfig(port=0, deadline_seconds=0.4)
        with injected_faults("server.slow=1@1.0,cache.corrupt=1"):
            with serve_in_thread(chaos_toolkit(cache=True),
                                 config) as handle:
                client = client_for(handle)
                status, _, body = matrix(client, CACHED_PAYLOAD)
                assert status == 504, body
                # Quotas spent, L2 quarantined: service recovers to
                # the exact clean bytes without a restart.
                for _ in range(50):
                    status, _, body = matrix(client, CACHED_PAYLOAD)
                    if status == 200:
                        break
                    time.sleep(0.1)
                assert status == 200, body
                assert body == clean
        assert counter("cache.l2.quarantined") == quarantined + 1
