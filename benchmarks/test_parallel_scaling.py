"""Experiment P1 — serial vs parallel batch similarity scaling.

Times an uncached `get_similarity_matrix` over the largest bundled
ontology (``SUMO_owl_txt``, 789 concepts) serially (one worker) and in
the process pool of :mod:`repro.core.parallel` (one worker per CPU, at
least two), and records the wall-clock trajectory into
``benchmarks/results/BENCH_parallel.json`` (untracked; a CI artifact).
The run **fails if any parallel cell diverges from the serial
matrix** — parallelism must never change a result.

The measure is Tree Edit, a per-pair measure: the batch kernel's
measures are scored in the parent whatever the worker count, so only
per-pair measures reach the pool.

Two modes:

* full (default): a 32-concept matrix (528 symmetric pairs, ~6 ms/pair
  serial) — enough work for the pool to amortize; asserts the >= 2x
  speedup when the host has >= 4 CPUs.
* quick (``SST_BENCH_QUICK=1``, the CI smoke mode): a 12-concept
  matrix; serial-vs-process equality is still asserted cell by cell,
  timings are recorded but no speedup is demanded.
"""

from __future__ import annotations

import json
import os
import time

from benchmarks.conftest import record
from repro.core.facade import SOQASimPackToolkit
from repro.core.parallel import PROCESS, SERIAL
from repro.core.registry import Measure

#: Bump when the BENCH_parallel.json layout changes.
SCHEMA = "sst/bench-parallel/v2"

ONTOLOGY = "SUMO_owl_txt"  # the largest bundled ontology (789 concepts)
MEASURE = Measure.TREE_EDIT
#: One worker per CPU; at least two, so the pool always runs.
WORKERS = max(2, os.cpu_count() or 1)

QUICK = os.environ.get("SST_BENCH_QUICK", "").strip() not in ("", "0")
MATRIX_SIZE = 12 if QUICK else 32

#: Hosts with fewer cores than this record the speedup without
#: asserting it (a 1-core runner cannot physically go faster).
MIN_CPUS_FOR_ASSERT = 4
SPEEDUP_TARGET = 2.0


#: The worker count that selects each way of running the matrix.
STRATEGY_WORKERS = {SERIAL: 1, PROCESS: WORKERS}


def _timed_matrix(sst, concepts, workers):
    start = time.perf_counter()
    matrix = sst.get_similarity_matrix(concepts, MEASURE, workers=workers)
    return matrix, time.perf_counter() - start


def test_parallel_scaling(corpus_sst, results_dir):
    # Uncached, so both arms score every pair instead of timing hits.
    sst = SOQASimPackToolkit(corpus_sst.soqa, cache=False)
    concepts = [(ONTOLOGY, concept.name)
                for concept in sst.soqa.ontology(ONTOLOGY)]
    concepts = concepts[:MATRIX_SIZE]
    assert len(concepts) == MATRIX_SIZE

    # Warm the lazily built wrapper state (taxonomy, subtrees) outside
    # the timed region, so both arms time pure pair scoring.
    sst.get_similarity_matrix(concepts[:2], MEASURE)

    matrices, timings = {}, {}
    for strategy, workers in STRATEGY_WORKERS.items():
        matrices[strategy], timings[strategy] = _timed_matrix(
            sst, concepts, workers)

    # Hard gate: parallel output must be bit-identical to serial —
    # every cell.
    assert matrices[PROCESS] == matrices[SERIAL], (
        "process matrix diverged from serial")

    pair_count = MATRIX_SIZE * (MATRIX_SIZE + 1) // 2
    payload = {
        "schema": SCHEMA,
        "quick": QUICK,
        "ontology": ONTOLOGY,
        "measure": sst.runner(MEASURE).name,
        "matrix_size": MATRIX_SIZE,
        "pairs": pair_count,
        "workers": WORKERS,
        "cpu_count": os.cpu_count() or 1,
        "strategies": list(STRATEGY_WORKERS),
        "seconds": {strategy: round(timings[strategy], 6)
                    for strategy in STRATEGY_WORKERS},
        "speedup": {PROCESS: round(timings[SERIAL] / timings[PROCESS], 3)},
        "identical": True,
    }
    record(results_dir, "BENCH_parallel.json",
           json.dumps(payload, indent=2) + "\n")

    if not QUICK and payload["cpu_count"] >= MIN_CPUS_FOR_ASSERT:
        assert payload["speedup"][PROCESS] >= SPEEDUP_TARGET, (
            f"expected >= {SPEEDUP_TARGET}x process speedup with "
            f"{WORKERS} workers, measured {payload['speedup'][PROCESS]}x")
