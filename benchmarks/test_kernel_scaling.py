"""Experiment K1 — batch kernel vs per-pair naive matrix scoring.

Times full similarity matrices over a synthetic SUMO-shaped ontology
for every batchable measure, ``engine="naive"`` (the per-pair runner
loop) versus ``engine="kernel"`` (:mod:`repro.core.kernel`), plus the
k-most-similar and similarity-to-set services, and records the
trajectory into ``BENCH_kernel.json`` (schema ``sst/bench-kernel/v1``).

Hard gates, **both modes**:

* every matrix cell must be bit-identical between the engines, and
* the batchable-measure sweep must run at least ``SPEEDUP_TARGET``
  (5x) faster through the kernel.

Regression gate: when the committed repo-root ``BENCH_kernel.json``
was produced under the same mode and sizes, the measured sweep speedup
must stay within ``SPEEDUP_BAND`` of it and the kernel throughput
within ``THROUGHPUT_BAND`` — so the CI ``bench-kernel`` job fails when
a change erodes the kernel's advantage, not only when it falls under
the absolute floor.  A run only writes the untracked
``benchmarks/results/BENCH_kernel.json``; the root baseline changes
only when someone copies that file over it on purpose.

Two modes:

* quick (``SST_BENCH_QUICK=1``, the CI mode): 1.5k-node ontology,
  120-concept panel.  This is the configuration of the committed
  artifact, so CI runs compare apples to apples.
* full (default, nightly): 6k nodes, 200-concept panel; no committed
  baseline matches it, so only the absolute gates apply.
"""

from __future__ import annotations

import json
import os
import time

from benchmarks.conftest import REPO_ROOT, record
from repro.core.facade import SOQASimPackToolkit
from repro.core.registry import Measure
from repro.ontologies.generator import generate_sumo_owl
from repro.soqa.api import SOQA

#: Bump when the BENCH_kernel.json layout changes.
SCHEMA = "sst/bench-kernel/v1"

QUICK = os.environ.get("SST_BENCH_QUICK", "").strip() not in ("", "0")
SIZE = 1_500 if QUICK else 6_000
PANEL = 120 if QUICK else 200
REPEATS = 3
K = 10

#: The acceptance gate: the all-measure matrix sweep must run at least
#: this much faster through the kernel, in both modes.
SPEEDUP_TARGET = 5.0

#: Regression bands against the committed artifact: the sweep speedup
#: may not drop below half the committed value, the kernel throughput
#: not below a quarter (throughput is machine-absolute, so the band is
#: wide; the speedup ratio is machine-relative and tighter).
SPEEDUP_BAND = 0.5
THROUGHPUT_BAND = 0.25

#: Every measure with a kernel batch form.
MEASURES = (
    Measure.CONCEPTUAL_SIMILARITY, Measure.SHORTEST_PATH, Measure.EDGE,
    Measure.LEACOCK_CHODOROW, Measure.LIN, Measure.RESNIK,
    Measure.RESNIK_NORMALIZED, Measure.JIANG_CONRATH,
    Measure.EXTENSIONAL,
)


def _toolkit() -> tuple[SOQASimPackToolkit, list[tuple[str, str]]]:
    soqa = SOQA()
    soqa.load_text(generate_sumo_owl(SIZE), "sumo", "OWL")
    sst = SOQASimPackToolkit(soqa, cache=False)
    names = [concept.name for concept in soqa.ontology("sumo").concepts()]
    # The panel is the first PANEL concepts — the upper, general part of
    # the taxonomy, i.e. the shape of the toolkit's browsing/alignment
    # matrices.  General concepts carry the large ancestor/descendant
    # sets that dominate per-pair naive cost, which is exactly the
    # regime the batch kernel exists for.
    panel = [("sumo", name) for name in names[:PANEL]]
    return sst, panel


def _best_of(callable_):
    best = result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = callable_()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _bench_matrices(sst, panel) -> tuple[dict, float, float]:
    measures: dict = {}
    naive_total = kernel_total = 0.0
    for measure in MEASURES:
        # Build lazy structures (compiled index, IC, kernel tables)
        # outside the timed region — both engines share them.
        sst.get_similarity_matrix(panel[:2], measure, engine="kernel")
        naive_best, naive_matrix = _best_of(
            lambda: sst.get_similarity_matrix(panel, measure,
                                              engine="naive"))
        kernel_best, kernel_matrix = _best_of(
            lambda: sst.get_similarity_matrix(panel, measure,
                                              engine="kernel"))
        # Hard gate, both modes: every cell bit-identical.
        assert kernel_matrix == naive_matrix, (
            f"{measure.name}: kernel matrix diverged from naive")
        naive_total += naive_best
        kernel_total += kernel_best
        measures[measure.name] = {
            "naive_seconds": round(naive_best, 6),
            "kernel_seconds": round(kernel_best, 6),
            "speedup": round(naive_best / kernel_best, 2)
            if kernel_best else None,
        }
    return measures, naive_total, kernel_total


def _bench_services(sst, panel) -> dict:
    anchor_ontology, anchor_name = panel[0]
    others = panel[1:]
    report: dict = {}

    naive_best, naive_ranked = _best_of(
        lambda: sst.get_most_similar_concepts(
            anchor_name, anchor_ontology, k=K, measure=Measure.LIN,
            engine="naive"))
    kernel_best, kernel_ranked = _best_of(
        lambda: sst.get_most_similar_concepts(
            anchor_name, anchor_ontology, k=K, measure=Measure.LIN,
            engine="kernel"))
    assert kernel_ranked == naive_ranked, "k-most rankings diverged"
    report["most_similar"] = {
        "k": K, "naive_seconds": round(naive_best, 6),
        "kernel_seconds": round(kernel_best, 6),
        "speedup": round(naive_best / kernel_best, 2)
        if kernel_best else None,
    }

    naive_best, naive_set = _best_of(
        lambda: sst.get_similarity_to_set(
            anchor_name, anchor_ontology, others,
            Measure.JIANG_CONRATH, engine="naive"))
    kernel_best, kernel_set = _best_of(
        lambda: sst.get_similarity_to_set(
            anchor_name, anchor_ontology, others,
            Measure.JIANG_CONRATH, engine="kernel"))
    assert kernel_set == naive_set, "set-similarity scores diverged"
    report["similarity_to_set"] = {
        "candidates": len(others), "naive_seconds": round(naive_best, 6),
        "kernel_seconds": round(kernel_best, 6),
        "speedup": round(naive_best / kernel_best, 2)
        if kernel_best else None,
    }
    return report


def _committed_baseline() -> dict | None:
    """The committed artifact, when comparable to this run's config."""
    root_artifact = REPO_ROOT / "BENCH_kernel.json"
    if not root_artifact.exists():
        return None
    try:
        committed = json.loads(root_artifact.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    comparable = (committed.get("schema") == SCHEMA
                  and committed.get("quick") == QUICK
                  and committed.get("size") == SIZE
                  and committed.get("panel") == PANEL)
    return committed if comparable else None


def test_kernel_matrix_speedup(results_dir):
    sst, panel = _toolkit()
    measures, naive_total, kernel_total = _bench_matrices(sst, panel)
    services = _bench_services(sst, panel)

    pair_count = len(panel) * (len(panel) + 1) // 2
    pairs_scored = pair_count * len(MEASURES)
    sweep_speedup = round(naive_total / kernel_total, 2) \
        if kernel_total else None
    throughput = round(pairs_scored / kernel_total, 1) \
        if kernel_total else None

    payload = {
        "schema": SCHEMA,
        "quick": QUICK,
        "size": SIZE,
        "panel": PANEL,
        "repeats": REPEATS,
        "gate": {"target": SPEEDUP_TARGET, "enforced": True,
                 "speedup_band": SPEEDUP_BAND,
                 "throughput_band": THROUGHPUT_BAND},
        "sweep": {
            "pairs_scored": pairs_scored,
            "naive_seconds": round(naive_total, 6),
            "kernel_seconds": round(kernel_total, 6),
            "speedup": sweep_speedup,
            "kernel_pairs_per_second": throughput,
        },
        "measures": measures,
        "services": services,
        "identical": True,
    }
    committed = _committed_baseline()
    text = json.dumps(payload, indent=2) + "\n"
    # The root copy is the regression baseline: a run never rewrites it.
    record(results_dir, "BENCH_kernel.json", text)

    # Hard gate, both modes: the kernel must clear the absolute floor.
    assert sweep_speedup is not None and sweep_speedup >= SPEEDUP_TARGET, (
        f"expected >= {SPEEDUP_TARGET}x kernel sweep speedup, measured "
        f"{sweep_speedup}x")

    # Regression gate against the committed artifact (same mode/sizes).
    if committed is not None:
        committed_sweep = committed.get("sweep", {})
        committed_speedup = committed_sweep.get("speedup")
        if committed_speedup:
            floor = max(SPEEDUP_TARGET, committed_speedup * SPEEDUP_BAND)
            assert sweep_speedup >= floor, (
                f"sweep speedup regressed: measured {sweep_speedup}x, "
                f"committed {committed_speedup}x, floor {floor:.2f}x")
        committed_throughput = committed_sweep.get("kernel_pairs_per_second")
        if committed_throughput and throughput is not None:
            floor = committed_throughput * THROUGHPUT_BAND
            assert throughput >= floor, (
                f"kernel throughput regressed: measured {throughput} "
                f"pairs/s, committed {committed_throughput}, floor "
                f"{floor:.1f}")
