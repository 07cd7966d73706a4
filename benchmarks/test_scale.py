"""Experiment S1 — million-concept scale: warm-start vs recompile.

Walks a ladder of WordNet-shaped corpora (1k / 10k / 100k synsets) and
times, per size:

* the **cold** leg — compiling the graph index from the parent map and
  persisting the ``.sstidx`` artifact (what the first ``sst`` run over
  a new corpus pays), split into its compile and save components;
* the **warm** leg — memory-loading the persisted artifact through
  :func:`repro.soqa.indexstore.load_index`'s lazy mmap-backed columns
  (what every later run pays instead);
* the one-time ``sst import`` cost of streaming the corpus into a
  sqlite ontology store, and the resulting file sizes;
* the process peak RSS high-water mark after the size finished
  (``ru_maxrss`` is monotonic, so the ladder runs smallest first and
  each row reports the high-water *so far*).

Hard gates, **both modes**:

* the warm-loaded index must answer sampled queries bit-identically to
  the freshly compiled one, and
* at the ``GATE_SIZE`` rung (10k — present in quick and full ladders)
  the warm leg must run at least ``SPEEDUP_TARGET`` (5x) faster than
  the cold leg.

Results land in ``BENCH_scale.json`` (schema ``sst/bench-scale/v1``).
Two modes:

* quick (``SST_BENCH_QUICK=1``, the CI mode): 1k + 10k rungs only;
  records to the untracked ``benchmarks/results/`` and never touches
  the committed repo-root artifact.
* full (default, nightly): adds the 100k rung — the ROADMAP's
  WordNet-scale acceptance size — and refreshes the repo-root
  ``BENCH_scale.json``.
"""

from __future__ import annotations

import json
import os
import resource
import time

from benchmarks.conftest import record, record_root
from repro.ontologies.generator import generate_wordnet_taxonomy
from repro.soqa.indexstore import IndexStore
from repro.soqa.metamodel import Concept, Ontology, OntologyMetadata
from repro.soqa.sqlstore import SqliteOntologyStore

#: Bump when the BENCH_scale.json layout changes.
SCHEMA = "sst/bench-scale/v1"

QUICK = os.environ.get("SST_BENCH_QUICK", "").strip() not in ("", "0")
SIZES = (1_000, 10_000) if QUICK else (1_000, 10_000, 100_000)
WARM_REPEATS = 3

#: The acceptance gate: at this rung (present in both modes) the warm
#: artifact load must beat the cold compile+persist leg by this factor.
GATE_SIZE = 10_000
SPEEDUP_TARGET = 5.0

#: Query-parity sample: this many nodes, all pairs.
PARITY_NODES = 12


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _materialize(parents: dict[str, list[str]], name: str) -> Ontology:
    concepts = [Concept(name=node, superconcept_names=list(node_parents))
                for node, node_parents in parents.items()]
    return Ontology(OntologyMetadata(name=name, language="OWL"), concepts)


def _assert_parity(compiled, loaded, parents) -> None:
    nodes = sorted(parents)[:PARITY_NODES]
    assert loaded.nodes() == compiled.nodes()
    assert loaded.max_depth() == compiled.max_depth()
    for first in nodes:
        assert loaded.depth(first) == compiled.depth(first)
        assert loaded.descendant_count(first) \
            == compiled.descendant_count(first)
        assert loaded.ancestors_with_distance(first) \
            == compiled.ancestors_with_distance(first)
        for second in nodes:
            assert loaded.mrca(first, second) == compiled.mrca(first,
                                                               second)


def _bench_size(size: int, tmp_path) -> dict:
    parents = generate_wordnet_taxonomy(size, seed=0)
    fingerprint = _materialize(parents, f"wn{size}").content_digest()
    directory = tmp_path / f"idx-{size}"
    store = IndexStore(directory)

    # Cold: compile from the parent map and persist the artifact.
    started = time.perf_counter()
    compiled, provenance = store.load_or_compile(parents, fingerprint)
    cold_seconds = time.perf_counter() - started
    assert provenance["source"] == "compiled"
    compile_seconds = provenance["seconds"]
    artifact_bytes = store.artifact_path(fingerprint).stat().st_size

    # Warm: best-of-N artifact loads through fresh IndexStore instances.
    warm_seconds = None
    loaded = None
    for _ in range(WARM_REPEATS):
        started = time.perf_counter()
        loaded, provenance = IndexStore(directory).load_or_compile(
            parents, fingerprint)
        elapsed = time.perf_counter() - started
        assert provenance["source"] == "artifact"
        warm_seconds = elapsed if warm_seconds is None \
            else min(warm_seconds, elapsed)
    _assert_parity(compiled, loaded, parents)

    # One-time sqlite import of the same corpus.
    db_path = tmp_path / f"wn{size}.sstdb"
    started = time.perf_counter()
    sql_store = SqliteOntologyStore.create(db_path)
    summary = sql_store.import_ontology(_materialize(parents, f"wn{size}"))
    import_seconds = time.perf_counter() - started
    assert summary["concepts"] == size
    sql_store.close()

    return {
        "nodes": size,
        "cold_seconds": round(cold_seconds, 6),
        "compile_seconds": round(compile_seconds, 6),
        "save_seconds": round(cold_seconds - compile_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "speedup": round(cold_seconds / warm_seconds, 2)
        if warm_seconds else None,
        "artifact_bytes": artifact_bytes,
        "import_seconds": round(import_seconds, 6),
        "store_bytes": db_path.stat().st_size,
        "peak_rss_kb_after": _peak_rss_kb(),
    }


def test_warm_start_scale_ladder(results_dir, tmp_path):
    ladder = {str(size): _bench_size(size, tmp_path) for size in SIZES}

    gate_row = ladder[str(GATE_SIZE)]
    payload = {
        "schema": SCHEMA,
        "quick": QUICK,
        "sizes": list(SIZES),
        "warm_repeats": WARM_REPEATS,
        "gate": {"size": GATE_SIZE, "target": SPEEDUP_TARGET,
                 "enforced": True,
                 "measured_speedup": gate_row["speedup"]},
        "ladder": ladder,
        "identical": True,
    }
    text = json.dumps(payload, indent=2) + "\n"
    record(results_dir, "BENCH_scale.json", text)
    if not QUICK:
        # Only the full ladder — the one carrying the 100k WordNet-scale
        # rung — may refresh the committed repo-root artifact.
        record_root("BENCH_scale.json", text)

    # Hard gate, both modes: warm start must clear the absolute floor.
    assert gate_row["speedup"] is not None \
        and gate_row["speedup"] >= SPEEDUP_TARGET, (
            f"expected >= {SPEEDUP_TARGET}x warm-start speedup at "
            f"{GATE_SIZE} nodes, measured {gate_row['speedup']}x")
