"""Experiment G1 — persistent similarity cache warm start.

Two ``sst trace matrix`` subprocesses share one ``SST_CACHE_DIR``: the
warm run must report a >90% disk hit rate and print the byte-identical
matrix (stdout with the trace section cut off), and its numbers are
written to ``BENCH_graphindex.json``.  The matrix uses Tree Edit, a
per-pair measure: the graph measures are scored by the batch kernel and
never cached.

The speed comparison reads the ``facade.similarity_matrix`` span of
each run's trace, which covers the cache lookups and the scoring.  The
subprocess wall time is recorded too, but interpreter start-up and the
corpus load, which both runs pay alike, make up most of it.

Every taxonomy query is served by the compiled graph index, whose
answers are checked against networkx in the tier-1 suite
(``tests/soqa/test_graphindex_properties.py``, up to a 1.5k-node DAG).

Two modes:

* full (default): also asserts that the warm run's matrix span beats
  the cold one's and writes the committed artifact at the repo root.
* quick (``SST_BENCH_QUICK=1``, the CI smoke mode): the warm hit rate
  and byte-identical output are gated, timings are recorded only, and
  only the untracked ``benchmarks/results/`` copy is written.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

from benchmarks.conftest import REPO_ROOT, record, record_root
from repro.core.registry import Measure
from repro.ontologies.generator import generate_sumo_owl

#: Bump when the BENCH_graphindex.json layout changes.
SCHEMA = "sst/bench-graphindex/v3"

QUICK = os.environ.get("SST_BENCH_QUICK", "").strip() not in ("", "0")

MATRIX_ONTOLOGY_SIZE = 110  # minimum for the SUMO upper structure
MATRIX_LIMIT = 8 if QUICK else 12
MATRIX_MEASURE = str(int(Measure.TREE_EDIT))

_HIT_LINE = re.compile(r"disk cache: (\d+)/(\d+) hits \(([\d.]+)%\)")

#: The span that times the matrix service: cache tiers plus scoring.
_MATRIX_SPAN = re.compile(r"^\s*facade\.similarity_matrix\s+([\d.]+) ms",
                          re.MULTILINE)

#: ``sst trace`` prints its report after the command's own stdout.
_TRACE_SECTION = "\n── trace "


def _matrix_output(stdout: str) -> str:
    """The command's stdout with the trace section cut off."""
    assert _TRACE_SECTION in stdout, f"no trace section in {stdout!r}"
    return stdout.split(_TRACE_SECTION, 1)[0]


def _matrix_span_ms(stdout: str) -> float:
    match = _MATRIX_SPAN.search(stdout)
    assert match, f"no facade.similarity_matrix span in {stdout!r}"
    return float(match.group(1))


def _run_cli_matrix(owl_path, env) -> tuple[subprocess.CompletedProcess,
                                            float]:
    argv = [sys.executable, "-c",
            "import sys; from repro.cli import main; "
            "sys.exit(main(sys.argv[1:]))",
            "--ontology-file", str(owl_path),
            "trace", "matrix", "--from-ontology", "sumo",
            "--limit", str(MATRIX_LIMIT), "-m", MATRIX_MEASURE]
    start = time.perf_counter()
    process = subprocess.run(argv, capture_output=True, text=True, env=env)
    return process, time.perf_counter() - start


def test_disk_cache_warm_start(tmp_path, results_dir):
    owl_path = tmp_path / "sumo.owl"
    owl_path.write_text(generate_sumo_owl(MATRIX_ONTOLOGY_SIZE),
                        encoding="utf-8")
    env = dict(os.environ)
    env.pop("SST_TELEMETRY", None)  # the gate reads the trace's spans
    env["SST_CACHE_DIR"] = str(tmp_path / "cache")
    env["PYTHONPATH"] = (str(REPO_ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))

    cold, cold_seconds = _run_cli_matrix(owl_path, env)
    assert cold.returncode == 0, cold.stderr
    warm, warm_seconds = _run_cli_matrix(owl_path, env)
    assert warm.returncode == 0, warm.stderr

    cold_hits = _HIT_LINE.search(cold.stderr)
    warm_hits = _HIT_LINE.search(warm.stderr)
    assert cold_hits and warm_hits, (
        f"missing disk-cache report; cold={cold.stderr!r} "
        f"warm={warm.stderr!r}")
    warm_rate = float(warm_hits.group(3))
    # Hard gates, both modes: the second run must be served from disk
    # and print byte-identical results.
    assert warm_rate > 90.0, f"warm hit rate only {warm_rate}%"
    assert _matrix_output(warm.stdout) == _matrix_output(cold.stdout)
    cold_span_ms = _matrix_span_ms(cold.stdout)
    warm_span_ms = _matrix_span_ms(warm.stdout)

    report = {
        "ontology_size": MATRIX_ONTOLOGY_SIZE,
        "matrix_limit": MATRIX_LIMIT,
        "measure": int(MATRIX_MEASURE),
        "cold_span_ms": cold_span_ms,
        "warm_span_ms": warm_span_ms,
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "cold_hit_rate": float(cold_hits.group(3)),
        "warm_hit_rate": warm_rate,
        "warm_faster": warm_span_ms < cold_span_ms,
    }

    payload = {"schema": SCHEMA, "quick": QUICK, "disk_cache": report}
    text = json.dumps(payload, indent=2) + "\n"
    record(results_dir, "BENCH_graphindex.json", text)

    if not QUICK:
        assert warm_span_ms < cold_span_ms, (
            f"warm matrix span ({warm_span_ms:.3f} ms) not faster than "
            f"cold ({cold_span_ms:.3f} ms)")
        # Only a full-mode run that passed every gate replaces the
        # committed root copy, which CI checks.
        record_root("BENCH_graphindex.json", text)
