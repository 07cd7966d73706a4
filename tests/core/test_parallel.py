"""Unit tests for the parallel batch similarity engine."""

import pytest

from repro.core.cache import CachedRunner
from repro.core.parallel import (
    PROCESS,
    SERIAL,
    BatchSimilarityEngine,
    chunk_pairs,
)
from repro.core.registry import Measure
from repro.core.results import QualifiedConcept
from repro.errors import SSTCoreError

PERSON = QualifiedConcept("univ", "Person")
EMPLOYEE = QualifiedConcept("univ", "Employee")
PROFESSOR = QualifiedConcept("univ", "Professor")
STUDENT = QualifiedConcept("univ", "Student")
COURSE = QualifiedConcept("univ", "Course")

CONCEPTS = (PERSON, EMPLOYEE, PROFESSOR, STUDENT, COURSE)
PAIRS = [(first, second) for first in CONCEPTS for second in CONCEPTS]

#: The worker count that selects each way of running a batch.
STRATEGY_WORKERS = pytest.mark.parametrize("workers", [1, 2],
                                           ids=[SERIAL, PROCESS])


class TestChunking:
    def test_partitions_everything_in_order(self):
        chunks = chunk_pairs(PAIRS, 4)
        assert [pair for chunk in chunks for pair in chunk] == PAIRS

    def test_respects_chunk_count(self):
        assert len(chunk_pairs(PAIRS, 4)) == 4
        assert len(chunk_pairs(PAIRS, 100)) == len(PAIRS)
        assert len(chunk_pairs(PAIRS, 1)) == 1

    def test_balanced_sizes(self):
        sizes = [len(chunk) for chunk in chunk_pairs(PAIRS, 4)]
        assert max(sizes) - min(sizes) <= 1


class TestWorkerResolution:
    @pytest.fixture
    def runner(self, mini_sst):
        return mini_sst.runner(Measure.LEVENSHTEIN)

    def test_default_is_one(self, runner):
        assert BatchSimilarityEngine(runner).workers == 1

    def test_explicit_wins(self, monkeypatch, runner):
        # The worker count has one source: a stale variable is ignored.
        monkeypatch.setenv("SST_WORKERS", "8")
        assert BatchSimilarityEngine(runner, workers=2).workers == 2

    def test_nonpositive_rejected(self, runner):
        with pytest.raises(SSTCoreError):
            BatchSimilarityEngine(runner, workers=0)


class TestStrategyResolution:
    """The worker count picks serial (1) or process (more) for a
    per-pair runner; a kernel runner is always serial."""

    @pytest.fixture
    def runner(self, mini_sst):
        return mini_sst.runner(Measure.LEVENSHTEIN)

    def test_defaults_follow_worker_count(self, runner):
        assert BatchSimilarityEngine(runner).strategy == SERIAL
        assert BatchSimilarityEngine(runner, workers=1).strategy == SERIAL
        assert BatchSimilarityEngine(runner, workers=4).strategy == PROCESS

    def test_explicit_wins(self, monkeypatch, runner):
        monkeypatch.setenv("SST_WORKERS", "4")
        assert BatchSimilarityEngine(runner, workers=1).strategy == SERIAL

    def test_stale_strategy_variable_is_ignored(self, monkeypatch, runner):
        monkeypatch.setenv("SST_STRATEGY", "thread")
        assert BatchSimilarityEngine(runner, workers=1).strategy == SERIAL
        assert BatchSimilarityEngine(runner, workers=4).strategy == PROCESS

    def test_unknown_rejected(self, runner):
        with pytest.raises(SSTCoreError):
            BatchSimilarityEngine(runner, workers=0)


class TestBatchScoring:
    @pytest.fixture
    def runner(self, mini_sst):
        return mini_sst.runner(Measure.SHORTEST_PATH)

    def test_empty_batch(self, runner):
        assert BatchSimilarityEngine(runner).score_pairs([]) == []

    @STRATEGY_WORKERS
    def test_strategies_agree_with_serial_loop(self, runner, workers):
        expected = [runner.run(first, second) for first, second in PAIRS]
        engine = BatchSimilarityEngine(runner, workers=workers)
        assert engine.score_pairs(PAIRS) == expected

    def test_score_against(self, runner):
        expected = [runner.run(PERSON, other) for other in CONCEPTS]
        engine = BatchSimilarityEngine(runner, workers=2)
        assert engine.score_against(PERSON, CONCEPTS) == expected

    @STRATEGY_WORKERS
    def test_matrix_matches_facade(self, mini_sst, runner, workers):
        expected = mini_sst.get_similarity_matrix(
            [(c.ontology_name, c.concept_name) for c in CONCEPTS],
            Measure.SHORTEST_PATH)
        engine = BatchSimilarityEngine(runner, workers=workers)
        assert engine.similarity_matrix(list(CONCEPTS)) == expected

    def test_asymmetric_matrix(self, runner):
        symmetric = BatchSimilarityEngine(runner).similarity_matrix(
            list(CONCEPTS))
        full = BatchSimilarityEngine(runner, workers=2).similarity_matrix(
            list(CONCEPTS), symmetric=False)
        assert full == symmetric  # the measure really is symmetric

    def test_single_pair_short_circuits_to_serial(self, runner):
        engine = BatchSimilarityEngine(runner, workers=4)
        assert engine.score_pairs([(PERSON, STUDENT)]) == [
            runner.run(PERSON, STUDENT)]


class TestCacheComposition:
    # A per-pair measure: the kernel scores graph measures uncached.

    def test_process_workers_merge_cache_back(self, mini_sst):
        cached = CachedRunner(mini_sst.runner(Measure.NAME_LEVENSHTEIN))
        engine = BatchSimilarityEngine(cached, workers=2)
        values = engine.score_pairs(PAIRS)
        # All 15 unordered pairs of 5 concepts are now in the parent
        # cache, merged back from the workers.
        assert len(cached) == 15
        assert cached.hits + cached.misses == len(PAIRS)
        # A second batch is served entirely from the parent cache.
        hits_before = cached.hits
        assert engine.score_pairs(PAIRS) == values
        assert cached.hits >= hits_before + len(PAIRS) - 1


class TestFacadeIntegration:
    def test_facade_engine_factory(self, mini_sst):
        engine = mini_sst.engine(Measure.LEVENSHTEIN, workers=3)
        assert engine.workers == 3
        assert engine.strategy == PROCESS

    @STRATEGY_WORKERS
    def test_k_most_similar_parallel(self, mini_sst, workers):
        serial = mini_sst.get_most_similar_concepts("Person", "univ", k=5)
        parallel = mini_sst.get_most_similar_concepts(
            "Person", "univ", k=5, workers=workers)
        assert parallel == serial

    @STRATEGY_WORKERS
    def test_similarity_to_set_parallel(self, mini_sst, workers):
        references = [("univ", "Student"), ("univ", "Course"),
                      ("MINI", "EMPLOYEE")]
        serial = mini_sst.get_similarity_to_set(
            "Person", "univ", references, Measure.SHORTEST_PATH)
        parallel = mini_sst.get_similarity_to_set(
            "Person", "univ", references, Measure.SHORTEST_PATH,
            workers=workers)
        assert parallel == serial

    def test_matcher_parallel_matches_serial(self, mini_sst):
        from repro.align.matcher import OntologyMatcher

        serial = OntologyMatcher(mini_sst, measure="Jaro-Winkler",
                                 threshold=0.8).match("univ", "MINI")
        parallel = OntologyMatcher(mini_sst, measure="Jaro-Winkler",
                                   threshold=0.8,
                                   workers=2).match("univ", "MINI")
        assert parallel == serial

    def test_clusterer_parallel_matches_serial(self, mini_sst):
        from repro.cluster.agglomerative import ConceptClusterer

        references = [("univ", "Person"), ("univ", "Employee"),
                      ("univ", "Professor"), ("univ", "Course")]
        serial = ConceptClusterer(mini_sst, Measure.SHORTEST_PATH).cluster(
            references, threshold=0.3)
        parallel = ConceptClusterer(
            mini_sst, Measure.SHORTEST_PATH,
            workers=2).cluster(references, threshold=0.3)
        assert parallel == serial
