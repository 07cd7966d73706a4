"""Concurrency: duplicate in-flight pairs, shared-cache integrity,
deadline-bounded computations.

Parallel clients can never corrupt each other's responses.  The
deterministic tests drive a gated runner — each computation parks
inside the measure until the test releases it — and the hammer test
checks a storm of overlapping requests against single-threaded ground
truth, float for float.
"""

from __future__ import annotations

import json
import threading
import time
import zlib

import pytest

from repro.core.registry import Measure
from repro.core.results import QualifiedConcept
from repro.core.runners import MeasureRunner
from repro.core.server import ServerConfig, serve_in_thread
from repro.ontologies.generator import generate_random_dag
from tests.server.conftest import client_for, counter, dag_toolkit

#: A small fixed DAG for the gated-runner tests.
GATED_DAG = {"root": [], "a": ["root"], "b": ["root"], "c": ["a"],
             "d": ["a", "b"], "e": ["b"], "f": ["c", "d"]}


class GateController:
    """Hand-operated gate the test threads synchronize on."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls: list[tuple] = []
        self.lock = threading.Lock()


def gated_factory(controller: GateController):
    def factory(wrapper):
        class GatedRunner(MeasureRunner):
            name = "gated"
            description = "test-only runner that parks until released"

            def run(self, first: QualifiedConcept,
                    second: QualifiedConcept) -> float:
                with controller.lock:
                    controller.calls.append((first, second))
                controller.started.set()
                assert controller.release.wait(30), "gate never released"
                key = "|".join(sorted([
                    f"{first.ontology_name}:{first.concept_name}",
                    f"{second.ontology_name}:{second.concept_name}"]))
                return (zlib.crc32(key.encode("utf-8")) % 1000) / 1000.0

        return GatedRunner(wrapper)

    return factory


def wait_for_calls(controller: GateController, target: int,
                   timeout: float = 10.0):
    deadline = time.monotonic() + timeout
    while len(controller.calls) < target:
        if time.monotonic() > deadline:
            pytest.fail(f"the gated runner never reached {target} calls "
                        f"(at {len(controller.calls)})")
        time.sleep(0.01)


@pytest.fixture
def gated():
    controller = GateController()
    toolkit = dag_toolkit({"ont": GATED_DAG})
    measure_id = toolkit.register_measure_runner(
        "gated", gated_factory(controller))
    with serve_in_thread(toolkit) as handle:
        yield handle, controller, measure_id
        controller.release.set()  # never leave a worker parked


def post_in_thread(handle, payload, results: dict, key: str):
    def _post():
        results[key] = client_for(handle).post_json("/v1/similarity",
                                                    payload)

    thread = threading.Thread(target=_post, daemon=True)
    thread.start()
    return thread


class TestDuplicateInflightPairs:
    def test_each_request_computes_its_own_pair(self, gated):
        handle, controller, measure_id = gated
        payload = {"first": ["ont", "c"], "second": ["ont", "e"],
                   "measure": measure_id}
        results: dict = {}
        first = post_in_thread(handle, payload, results, "first")
        assert controller.started.wait(10), "first never reached the gate"
        second = post_in_thread(handle, payload, results, "second")
        wait_for_calls(controller, 2)
        controller.release.set()
        first.join(20)
        second.join(20)
        assert not first.is_alive() and not second.is_alive()
        first_status, _, first_body = results["first"]
        second_status, _, second_body = results["second"]
        assert first_status == second_status == 200
        assert first_body == second_body
        assert len(controller.calls) == 2


class TestDeadline:
    def test_parked_computation_is_cut_off_by_the_deadline(self):
        controller = GateController()
        toolkit = dag_toolkit({"ont": GATED_DAG})
        measure_id = toolkit.register_measure_runner(
            "gated", gated_factory(controller))
        config = ServerConfig(port=0, deadline_seconds=0.5)
        with serve_in_thread(toolkit, config) as handle:
            payload = {"first": ["ont", "a"], "second": ["ont", "b"],
                       "measure": measure_id}
            deadline_responses = counter("server.responses.deadline")
            results: dict = {}
            first = post_in_thread(handle, payload, results, "first")
            assert controller.started.wait(10)
            second = post_in_thread(handle, payload, results, "second")
            first.join(20)
            second.join(20)
            # Neither request can outwait its 0.5s deadline while the
            # computation is parked: both come back as typed 504s.
            for key in ("first", "second"):
                status, _, body = results[key]
                assert status == 504, body
                assert json.loads(body)["error"]["code"] \
                    == "deadline_exceeded"
            assert counter("server.responses.deadline") \
                >= deadline_responses + 2
            # Releasing the gate heals the service: the pair computes
            # and fresh requests answer inside the deadline again.
            controller.release.set()
            client = client_for(handle)
            for _ in range(100):
                status, _, body = client.post_json("/v1/similarity",
                                                   payload)
                if status == 200:
                    break
                time.sleep(0.05)
            assert status == 200, body
            assert client.get_json("/healthz")["status"] == "ok"


class TestHammer:
    """A storm of overlapping clients against ground truth."""

    MEASURE = Measure.SHORTEST_PATH
    THREADS = 12
    REQUESTS_PER_THREAD = 4

    @pytest.fixture(scope="class")
    def hammer_setup(self):
        dag = generate_random_dag(120, seed=3)
        toolkit = dag_toolkit({"dag": dag})
        names = sorted(dag)
        pairs = [("dag", names[index], "dag",
                  names[(index * 7 + 3) % len(names)])
                 for index in range(60)]
        qualified = [(QualifiedConcept(a, b), QualifiedConcept(c, d))
                     for a, b, c, d in pairs]
        expected = toolkit.engine(self.MEASURE).score_pairs(qualified)
        with serve_in_thread(toolkit) as handle:
            yield handle, pairs, expected

    def test_parallel_overlapping_clients_get_exact_values(
            self, hammer_setup):
        handle, pairs, expected = hammer_setup
        failures: list[str] = []

        def hammer(thread_index: int) -> None:
            client = client_for(handle)
            for round_index in range(self.REQUESTS_PER_THREAD):
                # Overlapping slices: every thread shares most of its
                # pairs with its neighbours.
                start = (thread_index * 5 + round_index * 3) % 30
                window = pairs[start:start + 25]
                truth = expected[start:start + 25]
                try:
                    response = client.post_ok("/v1/similarity", {
                        "pairs": [list(pair) for pair in window],
                        "measure": int(self.MEASURE)})
                except AssertionError as error:
                    failures.append(f"thread {thread_index}: {error}")
                    return
                if response["values"] != truth:
                    failures.append(
                        f"thread {thread_index} round {round_index}: "
                        "values diverged from ground truth")

        threads = [threading.Thread(target=hammer, args=(index,),
                                    daemon=True)
                   for index in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_state_stays_exact_after_the_storm(self, hammer_setup):
        handle, pairs, expected = hammer_setup
        response = client_for(handle).post_ok("/v1/similarity", {
            "pairs": [list(pair) for pair in pairs],
            "measure": int(self.MEASURE)})
        assert response["values"] == expected
        health = client_for(handle).get_json("/healthz")
        assert health["status"] == "ok"

    def test_distinct_measures_never_cross_talk(self, hammer_setup):
        handle, pairs, _ = hammer_setup
        window = [list(pair) for pair in pairs[:20]]
        toolkit = handle.service.toolkit
        qualified = [(QualifiedConcept(a, b), QualifiedConcept(c, d))
                     for a, b, c, d in pairs[:20]]
        truth = {int(measure): toolkit.engine(measure,
                                              ).score_pairs(qualified)
                 for measure in (Measure.LIN, Measure.EDGE)}
        results: dict = {}

        def score(measure_id: int) -> None:
            results[measure_id] = client_for(handle).post_ok(
                "/v1/similarity",
                {"pairs": window, "measure": measure_id})

        threads = [threading.Thread(target=score, args=(int(measure),),
                                    daemon=True)
                   for measure in (Measure.LIN, Measure.EDGE,
                                   Measure.LIN, Measure.EDGE)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        for measure_id, expected_values in truth.items():
            assert results[measure_id]["values"] == expected_values
