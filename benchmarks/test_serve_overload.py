"""Experiment SV2 — service throughput and overload posture.

Drives a live in-process ``sst serve`` two ways and records the
trajectory into the untracked ``benchmarks/results/BENCH_serve.json``
(schema ``sst/bench-serve/v1``):

* **keep-alive vs close throughput** — the same request stream over
  one persistent connection versus a fresh connection per request.
  The ratio is the measured value of PR 10's keep-alive support.
* **shed latency under 4x overload** — a burst of four times the
  server's admission capacity (workers + queue), with every admitted
  request slowed server-side so the burst genuinely saturates.  The
  p99 latency of a *shed* (typed 429) answers how quickly an
  overloaded server turns traffic away — load shedding only protects
  the service if rejection is much cheaper than service.

Unlike the kernel/scale benches this one is **non-gating**: raw HTTP
throughput on a shared CI runner is too noisy to band.  Correctness is
still asserted hard — byte-identical responses, typed 429s with
``Retry-After``, zero 500s — so the bench doubles as an overload
regression test; only the timings are informational.

Two modes: quick (``SST_BENCH_QUICK=1``, the CI mode) uses a smaller
ontology and stream; full (nightly) the larger ones.  Neither writes
outside the results directory, so a run leaves the tree clean.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

from benchmarks.conftest import record
from repro.core.facade import SOQASimPackToolkit
from repro.core.resilience import injected_faults
from repro.core.server import ServerConfig, serve_in_thread
from repro.ontologies.generator import generate_sumo_owl
from repro.soqa.api import SOQA

#: Bump when the BENCH_serve.json layout changes.
SCHEMA = "sst/bench-serve/v1"

QUICK = os.environ.get("SST_BENCH_QUICK", "").strip() not in ("", "0")
SIZE = 300 if QUICK else 1_000
STREAM = 150 if QUICK else 600

#: Overload shape: a burst of OVERLOAD_FACTOR x (workers + queue)
#: concurrent requests, each admitted one slowed by SLOW_SECONDS.
WORKERS = 2
QUEUE_LIMIT = 2
OVERLOAD_FACTOR = 4
SLOW_SECONDS = 0.25


def _toolkit() -> tuple[SOQASimPackToolkit, bytes]:
    soqa = SOQA()
    soqa.load_text(generate_sumo_owl(SIZE), "sumo", "OWL")
    names = [concept.name
             for concept in soqa.ontology("sumo").concepts()[:2]]
    body = json.dumps({"first": ["sumo", names[0]],
                       "second": ["sumo", names[1]]}).encode()
    return SOQASimPackToolkit(soqa, cache=False), body


def _post(host: str, port: int, body: bytes,
          close: bool = False) -> tuple[int, bytes, float, str | None]:
    headers = {"Connection": "close"} if close else {}
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        started = time.perf_counter()
        connection.request("POST", "/v1/similarity", body=body,
                           headers=headers)
        response = connection.getresponse()
        payload = response.read()
        return (response.status, payload, time.perf_counter() - started,
                response.getheader("Retry-After"))
    finally:
        connection.close()


def _stream_keep_alive(host: str, port: int, body: bytes) -> float:
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        started = time.perf_counter()
        for _ in range(STREAM):
            connection.request("POST", "/v1/similarity", body=body)
            response = connection.getresponse()
            assert response.status == 200
            response.read()
        return time.perf_counter() - started
    finally:
        connection.close()


def _stream_close(host: str, port: int, body: bytes) -> float:
    started = time.perf_counter()
    for _ in range(STREAM):
        status, _payload, _seconds, _retry = _post(host, port, body,
                                                   close=True)
        assert status == 200
    return time.perf_counter() - started


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1,
                       int(fraction * (len(ordered) - 1) + 0.5))]


def test_serve_throughput_and_overload(results_dir):
    toolkit, body = _toolkit()

    # -- keep-alive vs close throughput ---------------------------------
    config = ServerConfig(port=0, workers=WORKERS,
                          max_requests_per_connection=STREAM + 1)
    with serve_in_thread(toolkit, config) as handle:
        status, baseline, _, _ = _post(handle.host, handle.port, body)
        assert status == 200
        keep_seconds = _stream_keep_alive(handle.host, handle.port, body)
        close_seconds = _stream_close(handle.host, handle.port, body)
        status, replay, _, _ = _post(handle.host, handle.port, body)
        assert status == 200 and replay == baseline

    # -- shed latency under 4x overload ---------------------------------
    capacity = WORKERS + QUEUE_LIMIT
    burst = OVERLOAD_FACTOR * capacity
    overload_config = ServerConfig(port=0, workers=WORKERS,
                                   queue_limit=QUEUE_LIMIT)
    results: list[tuple[int, bytes, float, str | None]] = []
    lock = threading.Lock()

    def one_request(host: str, port: int) -> None:
        outcome = _post(host, port, body)
        with lock:
            results.append(outcome)

    with injected_faults(f"server.slow={burst}@{SLOW_SECONDS}"):
        with serve_in_thread(toolkit, overload_config) as handle:
            threads = [threading.Thread(target=one_request,
                                        args=(handle.host, handle.port))
                       for _ in range(burst)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)

    assert len(results) == burst
    statuses = sorted({outcome[0] for outcome in results})
    # Overload must answer with service or a typed shed — never a 500.
    assert set(statuses) <= {200, 429}, statuses
    completed = [r for r in results if r[0] == 200]
    shed = [r for r in results if r[0] == 429]
    assert completed and shed, statuses
    for _status, payload, _seconds, retry_after in shed:
        error = json.loads(payload)["error"]
        assert error["code"] == "overloaded"
        assert retry_after is not None and retry_after.isdigit()
    shed_latencies = [outcome[2] for outcome in shed]

    payload = {
        "schema": SCHEMA,
        "quick": QUICK,
        "size": SIZE,
        "stream": STREAM,
        "gate": {"enforced": False,
                 "note": "informational; correctness asserted, "
                         "timings never gate"},
        "keep_alive": {
            "seconds": round(keep_seconds, 6),
            "requests_per_second": round(STREAM / keep_seconds, 1),
        },
        "close": {
            "seconds": round(close_seconds, 6),
            "requests_per_second": round(STREAM / close_seconds, 1),
        },
        "keepalive_speedup": round(close_seconds / keep_seconds, 2),
        "overload": {
            "workers": WORKERS,
            "queue_limit": QUEUE_LIMIT,
            "burst": burst,
            "slow_seconds": SLOW_SECONDS,
            "completed": len(completed),
            "shed": len(shed),
            "server_errors": 0,
            "shed_p50_ms": round(_percentile(shed_latencies, 0.5) * 1e3,
                                 3),
            "shed_p99_ms": round(_percentile(shed_latencies, 0.99) * 1e3,
                                 3),
        },
    }
    record(results_dir, "BENCH_serve.json",
           json.dumps(payload, indent=2) + "\n")
