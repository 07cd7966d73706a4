"""The batch similarity kernel: parity with the per-pair path, engine
selection, cache integration, fallbacks, and edge cases."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import kernel, parallel, telemetry
from repro.core.cache import CachedRunner
from repro.core.diskcache import DiskCache
from repro.core.facade import SOQASimPackToolkit
from repro.core.parallel import PROCESS, SERIAL, BatchSimilarityEngine
from repro.core.registry import Measure
from repro.core.results import QualifiedConcept
from repro.core.runners import (LinRunner, MeasureRunner,
                                ShortestPathRunner)
from repro.errors import SSTCoreError, UnknownConceptError
from repro.ontologies.generator import generate_wordnet_taxonomy

#: Every measure with a kernel batch form.
BATCHABLE_MEASURES = (
    Measure.CONCEPTUAL_SIMILARITY, Measure.SHORTEST_PATH, Measure.EDGE,
    Measure.LEACOCK_CHODOROW, Measure.LIN, Measure.RESNIK,
    Measure.RESNIK_NORMALIZED, Measure.JIANG_CONRATH,
    Measure.EXTENSIONAL,
)

#: A cross-language, cross-ontology concept panel over the mini corpus.
PANEL = [
    ("univ", "Professor"), ("univ", "Student"), ("univ", "Course"),
    ("MINI", "EMPLOYEE"), ("MINI", "COURSE"), ("wn", "person"),
]


class TestEngineResolution:
    def test_default_is_kernel(self):
        assert kernel.resolve_engine() == kernel.KERNEL

    def test_explicit_choice_wins(self):
        assert kernel.resolve_engine("naive") == kernel.NAIVE
        assert kernel.resolve_engine("kernel") == kernel.KERNEL

    def test_environment_is_ignored(self, monkeypatch):
        # The engine is not a user setting: a stale SST_ENGINE, valid
        # or not, leaves the kernel in charge.
        for value in ("naive", "gpu"):
            monkeypatch.setenv("SST_ENGINE", value)
            assert kernel.resolve_engine() == kernel.KERNEL

    def test_case_insensitive(self):
        assert kernel.resolve_engine("KERNEL") == kernel.KERNEL

    def test_unknown_engine_rejected(self):
        with pytest.raises(SSTCoreError, match="unknown batch engine"):
            kernel.resolve_engine("vectorized")

    def test_engine_object_ignores_environment(self, mini_sst,
                                               monkeypatch):
        monkeypatch.setenv("SST_ENGINE", "naive")
        engine = BatchSimilarityEngine(
            mini_sst.runner(Measure.SHORTEST_PATH))
        assert engine.engine == kernel.KERNEL


class TestNumpyProbe:
    def test_probe_matches_flag(self):
        assert kernel.numpy_available() is False

    def test_cli_and_server_import_no_numpy(self):
        code = ("import sys, repro.cli, repro.core.server; "
                "assert 'numpy' not in sys.modules, 'numpy was imported'")
        source = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": source},
                                timeout=120)
        assert result.returncode == 0, result.stderr


class TestBatchability:
    def test_batchable_measures(self, mini_sst):
        for measure in BATCHABLE_MEASURES:
            # The facade never caches a measure the kernel can batch.
            assert kernel.batchable(mini_sst.runner(measure)), measure

    def test_non_graph_measures_fall_back(self, mini_sst):
        for measure in (Measure.LEVENSHTEIN, Measure.TFIDF,
                        Measure.COSINE, Measure.TREE_EDIT,
                        Measure.NAME_LEVENSHTEIN):
            runner = mini_sst.runner(measure)
            inner = runner.inner if isinstance(runner, CachedRunner) \
                else runner
            assert not kernel.batchable(inner), measure

    def test_subclass_is_not_batchable(self, mini_sst):
        class CustomShortestPath(ShortestPathRunner):
            def run(self, first, second):
                return 0.5

        runner = CustomShortestPath(mini_sst.wrapper)
        assert not kernel.batchable(runner)
        assert kernel.try_batch(runner, [PANEL[0]]) is None

    def test_retargeted_ic_source_is_not_batchable(self, mini_sst):
        runner = LinRunner(mini_sst.wrapper)
        assert kernel.batchable(runner)
        runner.ic_source = "instances"
        assert not kernel.batchable(runner)


def _qualified_panel():
    return [QualifiedConcept(ontology, name) for ontology, name in PANEL]


class TestParity:
    @pytest.mark.parametrize("measure", BATCHABLE_MEASURES,
                             ids=[m.name for m in BATCHABLE_MEASURES])
    def test_matrix_bit_identical(self, mini_sst, measure):
        naive = mini_sst.get_similarity_matrix(PANEL, measure,
                                               engine="naive")
        batched = mini_sst.get_similarity_matrix(PANEL, measure,
                                                 engine="kernel")
        assert batched == naive

    @pytest.mark.parametrize("measure", BATCHABLE_MEASURES,
                             ids=[m.name for m in BATCHABLE_MEASURES])
    def test_uncached_direct_batch_bit_identical(self, mini_sst, measure):
        inner = mini_sst.runner(measure)
        concepts = _qualified_panel()
        pairs = [(a, b) for a in concepts for b in concepts]
        batched = kernel.try_batch(inner, pairs)
        assert batched is not None
        assert batched == [inner.run(a, b) for a, b in pairs]

    def test_most_similar_identical_across_engines(self, mini_sst):
        naive = mini_sst.get_most_similar_concepts(
            "Professor", "univ", k=5, measure=Measure.LIN,
            engine="naive")
        batched = mini_sst.get_most_similar_concepts(
            "Professor", "univ", k=5, measure=Measure.LIN,
            engine="kernel")
        assert batched == naive

    def test_similarity_to_set_identical_across_engines(self, mini_sst):
        others = PANEL[1:]
        naive = mini_sst.get_similarity_to_set(
            "Professor", "univ", others, Measure.JIANG_CONRATH,
            engine="naive")
        batched = mini_sst.get_similarity_to_set(
            "Professor", "univ", others, Measure.JIANG_CONRATH,
            engine="kernel")
        assert batched == naive

    def test_fallback_measure_identical_across_engines(self, mini_sst):
        naive = mini_sst.get_similarity_matrix(
            PANEL, Measure.NAME_LEVENSHTEIN, engine="naive")
        batched = mini_sst.get_similarity_matrix(
            PANEL, Measure.NAME_LEVENSHTEIN, engine="kernel")
        assert batched == naive


class TestEdgeCases:
    def test_empty_concept_set(self, mini_sst):
        assert mini_sst.get_similarity_matrix(
            [], Measure.SHORTEST_PATH, engine="kernel") == []

    def test_singleton_concept_set(self, mini_sst):
        matrix = mini_sst.get_similarity_matrix(
            [PANEL[0]], Measure.SHORTEST_PATH, engine="kernel")
        assert matrix == [[1.0]]

    def test_empty_pair_batch(self, mini_sst):
        runner = mini_sst.runner(Measure.SHORTEST_PATH)
        engine = BatchSimilarityEngine(runner, engine=kernel.KERNEL)
        assert engine.score_pairs([]) == []

    def test_cross_ontology_pairs(self, mini_sst):
        professor = QualifiedConcept("univ", "Professor")
        employee = QualifiedConcept("MINI", "EMPLOYEE")
        inner = mini_sst.runner(Measure.CONCEPTUAL_SIMILARITY)
        batched = kernel.try_batch(inner, [(professor, employee)])
        assert batched == [inner.run(professor, employee)]
        # Cross-ontology concepts only meet at Super Thing, but Wu &
        # Palmer's node-counted root distance still scores positively.
        assert batched[0] > 0.0

    def test_unknown_concept_raises_like_naive(self, mini_sst):
        ghost = ("univ", "Ghost")
        with pytest.raises(UnknownConceptError):
            mini_sst.get_similarity_matrix(
                [PANEL[0], ghost], Measure.SHORTEST_PATH, engine="naive")
        with pytest.raises(UnknownConceptError):
            mini_sst.get_similarity_matrix(
                [PANEL[0], ghost], Measure.SHORTEST_PATH, engine="kernel")

    def test_asymmetric_runner_in_asymmetric_matrix(self, mini_sst):
        class Directional(MeasureRunner):
            name = "Directional"

            def run(self, first, second):
                if first == second:
                    return 1.0
                forward = (first.ontology_name, first.concept_name) < (
                    second.ontology_name, second.concept_name)
                return 0.75 if forward else 0.25

        runner = Directional(mini_sst.wrapper)
        concepts = _qualified_panel()
        for engine_name in (kernel.NAIVE, kernel.KERNEL):
            engine = BatchSimilarityEngine(runner, engine=engine_name)
            matrix = engine.similarity_matrix(concepts, symmetric=False)
            assert matrix[0][1] == 0.75
            assert matrix[1][0] == 0.25
            assert all(matrix[i][i] == 1.0
                       for i in range(len(concepts)))


class TestWrapperIntegration:
    def test_kernel_is_cached_per_wrapper(self, mini_sst):
        assert mini_sst.wrapper.kernel() is mini_sst.wrapper.kernel()

    @pytest.fixture
    def pools(self, monkeypatch):
        """Counts the process pools batch scoring opens."""
        opened = []
        real = parallel.ProcessPoolExecutor

        def counting(*args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            return real(*args, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", counting)
        return opened

    def test_kernel_measure_with_workers_opens_no_pool(self, mini_sst,
                                                        pools):
        pairs = [(a, b) for a in _qualified_panel()
                 for b in _qualified_panel()]
        runner = mini_sst.runner(Measure.LIN)
        engine = BatchSimilarityEngine(runner, workers=2)
        assert engine.strategy == SERIAL
        assert engine.score_pairs(pairs) == BatchSimilarityEngine(
            runner, workers=1).score_pairs(pairs)
        assert pools == []

    def test_per_pair_measure_with_workers_uses_the_pool(self, mini_sst,
                                                         pools):
        pairs = [(a, b) for a in _qualified_panel()
                 for b in _qualified_panel()]
        runner = mini_sst.runner(Measure.TFIDF).inner
        engine = BatchSimilarityEngine(runner, workers=2)
        assert engine.strategy == PROCESS
        assert engine.score_pairs(pairs) == BatchSimilarityEngine(
            runner, workers=1).score_pairs(pairs)
        assert pools == [2]

    def test_tables_are_shared_with_compiled_index(self, mini_sst):
        built = mini_sst.wrapper.kernel()
        compiled = mini_sst.wrapper.taxonomy.compile()
        assert built.tables is compiled.export_tables()
        assert built.tables.size == len(mini_sst.wrapper.taxonomy)


class TestCachedBatches:
    @pytest.fixture
    def cached(self, mini_sst):
        return CachedRunner(mini_sst.runner(Measure.SHORTEST_PATH))

    def test_try_batch_bypasses_the_cache(self, cached, tmp_path):
        # The kernel outpaces both tiers, so a hand-built cache around a
        # batchable runner is scored by the kernel and left untouched.
        l2 = DiskCache(tmp_path / "l2")
        cached.l2, cached.fingerprint = l2, "fp"
        concepts = _qualified_panel()
        pairs = [(a, b) for a in concepts for b in concepts]
        built = cached.wrapper.kernel()
        handed: list = []
        original = built.batch

        def spy(runner, batch_pairs):
            handed.append(runner)
            return original(runner, batch_pairs)

        telemetry.reset()
        built.batch = spy
        try:
            values = kernel.try_batch(cached, pairs)
            again = kernel.try_batch(cached, pairs)
        finally:
            built.batch = original
        assert values == again == kernel.try_batch(cached.inner, pairs)
        assert handed == [cached.inner, cached.inner]
        assert len(cached) == 0
        assert (cached.hits, cached.misses) == (0, 0)
        assert (cached.l2_hits, cached.l2_misses) == (0, 0)
        cached.flush()
        assert l2.stats()["entries"] == 0
        registry = telemetry.get_registry()
        assert all(registry.value(name) == 0 for name in (
            "cache.l1.hits", "cache.l1.misses", "cache.l1.stores",
            "cache.l2.hits", "cache.l2.misses", "cache.l2.stores"))

    @pytest.mark.parametrize("measure", BATCHABLE_MEASURES,
                             ids=[m.name for m in BATCHABLE_MEASURES])
    def test_mirrored_pairs_in_one_batch(self, mini_sst, measure):
        inner = mini_sst.runner(measure)
        concepts = _qualified_panel()
        # Both orientations of every pair, plus self pairs, with the
        # non-canonical orientation first for half of them.
        pairs = [(a, b) for a in concepts for b in concepts]
        pairs += [(b, a) for a, b in pairs[::2]]
        batched = kernel.try_batch(CachedRunner(inner), pairs)
        per_pair = CachedRunner(inner)
        assert batched == [per_pair.run(a, b) for a, b in pairs]
        naive = BatchSimilarityEngine(inner, engine="naive")
        assert batched == naive.score_pairs(pairs)

    def test_cached_engine_matches_uncached(self, mini_sst, cached):
        concepts = _qualified_panel()
        pairs = [(a, b) for a in concepts for b in concepts]
        inner = cached.inner
        assert kernel.try_batch(cached, pairs) \
            == kernel.try_batch(inner, pairs)


class TestTelemetry:
    # Counter-exactness tests run uncached: the suite's session-scoped
    # L2 tier could otherwise satisfy pairs an earlier test already
    # scored, and cached pairs legitimately never reach the kernel.
    def test_batch_counters(self, mini_soqa):
        sst = SOQASimPackToolkit(mini_soqa, cache=False)
        telemetry.reset()
        sst.get_similarity_matrix(PANEL, Measure.SHORTEST_PATH,
                                  engine="kernel")
        registry = telemetry.get_registry()
        # One serial batch over the whole upper triangle (diagonal
        # included).
        pair_count = len(PANEL) * (len(PANEL) + 1) // 2
        assert registry.value("kernel.batches") == 1
        assert registry.value("kernel.pairs") == pair_count

    def test_fallback_counters(self, mini_soqa):
        sst = SOQASimPackToolkit(mini_soqa, cache=False)
        telemetry.reset()
        sst.get_similarity_matrix(PANEL[:3], Measure.NAME_LEVENSHTEIN,
                                  engine="kernel")
        registry = telemetry.get_registry()
        assert registry.value("kernel.fallback.batches") == 1
        assert registry.value("kernel.batches") == 0

    def test_naive_engine_emits_no_kernel_metrics(self, mini_soqa):
        sst = SOQASimPackToolkit(mini_soqa, cache=False)
        telemetry.reset()
        sst.get_similarity_matrix(PANEL[:3], Measure.SHORTEST_PATH,
                                  engine="naive")
        registry = telemetry.get_registry()
        assert registry.value("kernel.batches") == 0
        assert registry.value("kernel.fallback.batches") == 0

    def test_kernel_ksim_is_one_walk(self, mini_soqa):
        sst = SOQASimPackToolkit(mini_soqa, cache=False)
        telemetry.reset()
        sst.get_most_similar_concepts("Person", "univ", k=3,
                                      measure=Measure.LIN)
        registry = telemetry.get_registry()
        assert registry.value("kernel.walks") == 1
        assert registry.value("kernel.batches") == 0
        (root,) = [root for root in telemetry.get_tracer().drain()
                   if root.name == "facade.most_similar"]
        walk = root.find("kernel.walk")
        assert walk.labels == {"measure": "Lin",
                               "visited": registry.value("kernel.walk.nodes")}
        assert 0 < walk.labels["visited"] <= len(sst.tree.taxonomy)

    def test_per_pair_ksim_records_no_walk(self, mini_soqa):
        sst = SOQASimPackToolkit(mini_soqa, cache=False)
        telemetry.reset()
        sst.get_most_similar_concepts("Person", "univ", k=3,
                                      measure=Measure.TFIDF)
        assert telemetry.get_registry().value("kernel.walks") == 0

    def test_similar_walk_stops_early_dissimilar_visits_all(self):
        # Counts nodes, not time: a k=10 similar query from a leaf of a
        # 5 000-node WordNet-shaped taxonomy reaches a few of them; the
        # dissimilar query has to reach every one.
        from tests.core.test_sweep import facade_over

        parents = generate_wordnet_taxonomy(5000, seed=0)
        inner = {parent for row in parents.values() for parent in row}
        leaf = min(set(parents) - inner)
        sst = facade_over(parents)
        size = len(sst.tree.taxonomy)
        registry = telemetry.get_registry()
        for measure in (Measure.SHORTEST_PATH, Measure.EDGE,
                        Measure.LEACOCK_CHODOROW, Measure.EXTENSIONAL):
            telemetry.reset()
            sst.get_most_similar_concepts(leaf, "hyp", k=10,
                                          measure=measure)
            assert registry.value("kernel.walk.nodes") < 0.05 * size, \
                measure
        telemetry.reset()
        sst.get_most_dissimilar_concepts(leaf, "hyp", k=10,
                                         measure=Measure.SHORTEST_PATH)
        assert registry.value("kernel.walk.nodes") == size


class TestStandaloneCorpus:
    def test_cache_disabled_facade_parity(self):
        from repro.ontologies.generator import generate_sumo_owl
        from repro.soqa.api import SOQA

        soqa = SOQA()
        soqa.load_text(generate_sumo_owl(120), "sumo", "OWL")
        sst = SOQASimPackToolkit(soqa, cache=False)
        concepts = [("sumo", concept.name)
                    for concept in soqa.ontology("sumo").concepts()[:10]]
        for measure in BATCHABLE_MEASURES:
            naive = sst.get_similarity_matrix(concepts, measure,
                                              engine="naive")
            batched = sst.get_similarity_matrix(concepts, measure,
                                                engine="kernel")
            assert batched == naive, measure
