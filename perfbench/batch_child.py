"""One batch-workload process: a facade user scoring a query sequence.

Run by ``run.py`` as a fresh interpreter per measurement, with the
program's ``src`` on ``PYTHONPATH``:

    python perfbench/batch_child.py JOB.json RESULT.json

``JOB.json`` names the ontology file, the cache directory and the
queries, which are called in order; the process loads the file through
SOQA, builds the facade at its defaults, forces the taxonomy index
(compiled and saved, or loaded from a saved artifact) and reports
"ready", then calls the facade services in order.  After the timed
part every returned score is hashed per query, and a seeded sample is
re-scored with the per-pair ``naive`` engine on the uncached runner
and must be bit-identical.  With ``"trace": true`` the layer hooks of
``tracing.py`` are installed before the corpus is loaded.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import time


def _digest(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    from repro.core import telemetry
    from repro.core.facade import SOQASimPackToolkit
    from repro.core.kernel import numpy_available
    from repro.core.parallel import BatchSimilarityEngine
    from repro.soqa.api import SOQA
    imported = time.monotonic()
    recorder = None
    if job["trace"]:
        import tracing
        recorder = tracing.Recorder()
        tracing.install(recorder)
    clock_offset = time.perf_counter() - time.monotonic()

    soqa = SOQA()
    soqa.load_file(job["corpus"])
    sst = SOQASimPackToolkit(soqa, cache_dir=job["cache_dir"])
    sst.tree
    sst.wrapper
    sst.tree.taxonomy.compile()
    ready = time.monotonic()

    queries = job["queries"]
    calls: list[list] = []
    answers: list[tuple[str, object]] = []
    errors: list[str] = []
    for query_id, query in queries.items():
        kind = query["kind"]
        started = time.perf_counter()
        try:
            if kind == "matrix":
                value = sst.get_similarity_matrix(
                    [tuple(concept) for concept in query["concepts"]],
                    query["measure"])
            elif kind == "ksim":
                value = sst.get_most_similar_concepts(
                    query["anchor"][1], query["anchor"][0], k=query["k"],
                    measure=query["measure"])
            else:
                value = sst.get_similarity(
                    query["first"][1], query["first"][0],
                    query["second"][1], query["second"][0],
                    query["measure"])
        except Exception as error:  # a failed operation, not a crash
            calls.append([kind, query_id, time.perf_counter() - started,
                          False])
            errors.append(f"{query_id}: {type(error).__name__}: {error}")
            continue
        calls.append([kind, query_id, time.perf_counter() - started, True])
        answers.append((query_id, value))
    sst.flush_caches()
    done = time.monotonic()

    digests: dict[str, str] = {}
    results: dict[str, object] = {}
    for query_id, value in answers:
        query = queries[query_id]
        if query["kind"] == "matrix":
            parts = [cell.hex() for row in value for cell in row]
        elif query["kind"] == "ksim":
            parts = [f"{entry.ontology_name}\t{entry.concept_name}\t"
                     f"{entry.similarity.hex()}" for entry in value]
            ranked = sorted(value, key=lambda entry: (
                -entry.similarity, entry.ontology_name, entry.concept_name))
            if len(value) != query["k"] or ranked != value:
                errors.append(f"{query_id}: not the k best, best first")
        else:
            parts = [value.hex()]
        digests[query_id] = _digest(parts)
        results[query_id] = value

    checked, mismatches = _naive_check(sst, queries, results, job["seed"],
                                       BatchSimilarityEngine)
    report = {
        "imported": imported,
        "ready": ready,
        "done": done,
        "calls": calls,
        "digests": digests,
        "errors": errors + mismatches,
        "naive_checked": checked,
        "cache": sst.cache_statistics(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy_available(),
        "concepts": sst.concept_count(),
        "index_source": (sst.tree.taxonomy.index_provenance or {}).get(
            "source"),
        "retained_spans": len(telemetry.get_tracer().roots),
    }
    if recorder is not None:
        import tracing
        # Only the timed part: the checks below call traced code too.
        cutoff = done + clock_offset
        spans = [span for span in recorder.spans if span[4] <= cutoff]
        table = tracing.SpanTable(spans)
        report["layers"] = tracing.layer_seconds(table)
        report["covered_s"] = table.covered(imported + clock_offset,
                                            done + clock_offset)
        report["missing_hooks"] = recorder.missing
        tables = sst.tree.taxonomy.compile().export_tables()
        report["ancestor_entries"] = sum(
            len(tables.ancestor_distances[index])
            for index in range(tables.size))
        tracing.write_spans(spans, job["spans_path"])
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


def _naive_check(sst, queries, results, seed, engine_type):
    """Re-score a seeded sample on the uncached runner, per pair."""
    rng = random.Random(f"naive-{seed}")
    by_measure: dict[object, list] = {}
    for query_id in sorted(results):
        query, value = queries[query_id], results[query_id]
        if query["kind"] == "matrix":
            concepts = query["concepts"]
            for _ in range(16):
                row, column = (rng.randrange(len(concepts)),
                               rng.randrange(len(concepts)))
                by_measure.setdefault(query["measure"], []).append(
                    (query_id, concepts[row], concepts[column],
                     value[row][column]))
        elif query["kind"] == "ksim":
            for entry in value[:4]:
                by_measure.setdefault(query["measure"], []).append(
                    (query_id, query["anchor"],
                     [entry.ontology_name, entry.concept_name],
                     entry.similarity))
        elif rng.random() < 0.1:
            by_measure.setdefault(query["measure"], []).append(
                (query_id, query["first"], query["second"], value))
    from repro.core.results import QualifiedConcept

    checked, mismatches = 0, []
    for measure, samples in by_measure.items():
        runner = sst.runner(measure)
        raw = getattr(runner, "inner", runner)
        pairs = [(QualifiedConcept(*first), QualifiedConcept(*second))
                 for _, first, second, _ in samples]
        fresh = engine_type(raw, engine="naive").score_pairs(pairs)
        for (query_id, first, second, served), value in zip(samples, fresh):
            checked += 1
            if value != served:
                mismatches.append(
                    f"{query_id}: {first} vs {second} served {served!r}, "
                    f"naive engine gives {value!r}")
    return checked, mismatches


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
