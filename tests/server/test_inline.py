"""Where ``sst serve`` scores a request, and what a request leaves behind.

A single ``first``/``second`` pair on a kernel measure is scored on the
event loop, once the kernel and the measure's runner are built; every
other computation, and any request the ``server.slow`` fault stalls,
goes to the worker pool.  Each read phase of a request runs under one
timer, so a long keep-alive connection leaves no tasks or timers
behind.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.core import kernel as kernel_module
from repro.core.registry import Measure
from repro.core.resilience import injected_faults
from repro.core.server import ServerConfig, serve_in_thread
from tests.server.conftest import client_for, counter, dag_toolkit

DAG = {
    "thing": [],
    "agent": ["thing"], "artifact": ["thing"],
    "person": ["agent"], "robot": ["agent", "artifact"],
    "tool": ["artifact"], "hammer": ["tool"],
}


def pair(measure: int) -> dict:
    return {"first": ["life", "person"], "second": ["life", "robot"],
            "measure": measure}


class SubmitSpy:
    """Records every callable handed to the server's worker pool."""

    def __init__(self, handle, monkeypatch):
        self.calls: list = []
        executor = handle.server._executor
        submit = executor.submit

        def spy(function, *args, **kwargs):
            self.calls.append(function)
            return submit(function, *args, **kwargs)

        monkeypatch.setattr(executor, "submit", spy)


@pytest.fixture
def served():
    with serve_in_thread(dag_toolkit({"life": DAG})) as handle:
        yield handle


def loop_state(handle) -> tuple[int, int]:
    """Tasks and live (not cancelled) timers on the server's loop."""
    loop = handle.server._loop

    async def snapshot() -> tuple[int, int]:
        tasks = len(asyncio.all_tasks()) - 1  # not this snapshot's own
        timers = sum(1 for timer in loop._scheduled if not timer.cancelled())
        return tasks, timers

    return asyncio.run_coroutine_threadsafe(snapshot(), loop).result(10)


class TestRouting:
    def test_kernel_pair_never_reaches_the_pool(self, served, monkeypatch):
        client = client_for(served)
        # The first pair on a measure builds its runner on a worker.
        first = client.post_ok("/v1/similarity", pair(int(Measure.LIN)))
        spy = SubmitSpy(served, monkeypatch)
        inline = counter("server.requests.inline")
        again = client.post_ok("/v1/similarity", pair(int(Measure.LIN)))
        assert again == first
        assert spy.calls == []
        assert counter("server.requests.inline") == inline + 1
        metrics = client.get("/metrics")[2].decode()
        assert "server_requests_inline" in metrics

    @pytest.mark.parametrize("path, payload", [
        ("/v1/similarity", pair(int(Measure.TFIDF))),
        ("/v1/similarity", {"pairs": [["life", "person", "life", "robot"]],
                            "measure": int(Measure.LIN)}),
        ("/v1/similarity", {"concepts": [["life", "person"],
                                         ["life", "robot"]],
                            "measure": int(Measure.LIN)}),
        ("/v1/ksim", {"ontology": "life", "concept": "person", "k": 2,
                      "measure": int(Measure.LIN)}),
    ], ids=["tfidf-pair", "pairs", "concepts", "ksim"])
    def test_other_work_runs_on_the_pool(self, served, monkeypatch, path,
                                         payload):
        client = client_for(served)
        client.post_ok(path, payload)  # runners built
        client.post_ok("/v1/similarity", pair(int(Measure.LIN)))
        spy = SubmitSpy(served, monkeypatch)
        inline = counter("server.requests.inline")
        client.post_ok(path, payload)
        assert len(spy.calls) == 1
        assert counter("server.requests.inline") == inline

    def test_slow_fault_sends_a_kernel_pair_to_the_pool_and_504s(
            self, monkeypatch):
        config = ServerConfig(port=0, deadline_seconds=0.3)
        with serve_in_thread(dag_toolkit({"life": DAG}), config) as handle:
            client = client_for(handle)
            client.post_ok("/v1/similarity", pair(int(Measure.LIN)))
            spy = SubmitSpy(handle, monkeypatch)
            fired = counter("faults.injected.server.slow")
            with injected_faults("server.slow=1@1.0"):
                status, _, body = client.post_json("/v1/similarity",
                                                   pair(int(Measure.LIN)))
            assert status == 504, body
            assert json.loads(body)["error"]["code"] == "deadline_exceeded"
            assert counter("faults.injected.server.slow") == fired + 1
            assert len(spy.calls) == 1
            # The stalled worker finishes; the next pair is inline again.
            for _ in range(100):
                if handle.server.admission.inflight() == 0:
                    break
                time.sleep(0.05)
            inline = counter("server.requests.inline")
            client.post_ok("/v1/similarity", pair(int(Measure.LIN)))
            assert counter("server.requests.inline") == inline + 1

    def test_unwarmed_service_builds_the_kernel_on_a_worker(self,
                                                           monkeypatch):
        builders: list[str] = []
        build = kernel_module.SimilarityKernel.__init__

        def recording_build(self, wrapper):
            builders.append(threading.current_thread().name)
            build(self, wrapper)

        monkeypatch.setattr(kernel_module.SimilarityKernel, "__init__",
                            recording_build)
        with serve_in_thread(dag_toolkit({"life": DAG}),
                             warm=False) as handle:
            client = client_for(handle)
            inline = counter("server.requests.inline")
            first = client.post_ok("/v1/similarity",
                                   pair(int(Measure.SHORTEST_PATH)))
            assert counter("server.requests.inline") == inline
            assert len(builders) == 1
            assert builders[0].startswith("sst-serve_"), builders
            # Built now: the next pair is scored on the loop.
            again = client.post_ok("/v1/similarity",
                                   pair(int(Measure.SHORTEST_PATH)))
            assert again == first
            assert counter("server.requests.inline") == inline + 1
            assert len(builders) == 1


def test_keep_alive_requests_leave_no_tasks_or_timers():
    config = ServerConfig(port=0, max_requests_per_connection=1000)
    with serve_in_thread(dag_toolkit({"life": DAG}), config) as handle:
        before = loop_state(handle)
        connection = http.client.HTTPConnection(handle.host, handle.port,
                                                timeout=10)
        body = json.dumps(pair(int(Measure.SHORTEST_PATH)))
        try:
            for _ in range(500):
                connection.request("POST", "/v1/similarity", body=body)
                response = connection.getresponse()
                response.read()
                assert response.status == 200
                assert not response.will_close
            # Idle between requests: the connection's task, waiting
            # under the one request-line timer.
            tasks, timers = loop_state(handle)
            assert tasks == before[0] + 1
            assert timers == before[1] + 1
        finally:
            connection.close()
        for _ in range(100):
            if loop_state(handle) == before:
                break
            time.sleep(0.02)
        assert loop_state(handle) == before
