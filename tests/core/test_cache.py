"""Unit tests for the pairwise similarity cache."""

import pickle
import threading

import pytest

from repro.core.cache import CachedRunner
from repro.core.diskcache import DiskCache
from repro.core.registry import Measure
from repro.core.results import QualifiedConcept
from repro.errors import SSTCoreError

PROFESSOR = QualifiedConcept("univ", "Professor")
STUDENT = QualifiedConcept("univ", "Student")
EMPLOYEE = QualifiedConcept("univ", "Employee")
COURSE = QualifiedConcept("univ", "Course")


@pytest.fixture
def cached(mini_sst) -> CachedRunner:
    return CachedRunner(mini_sst.runner(Measure.SHORTEST_PATH))


class TestCaching:
    def test_same_value_as_inner(self, cached, mini_sst):
        direct = mini_sst.runner(Measure.SHORTEST_PATH).run(PROFESSOR,
                                                            STUDENT)
        assert cached.run(PROFESSOR, STUDENT) == direct

    def test_second_lookup_hits(self, cached):
        cached.run(PROFESSOR, STUDENT)
        assert cached.misses == 1
        cached.run(PROFESSOR, STUDENT)
        assert cached.hits == 1

    def test_symmetric_pairs_share_entry(self, cached):
        cached.run(PROFESSOR, STUDENT)
        cached.run(STUDENT, PROFESSOR)
        assert cached.hits == 1
        assert cached.misses == 1

    def test_asymmetric_mode_keeps_both_orders(self, mini_sst):
        cached = CachedRunner(mini_sst.runner(Measure.SHORTEST_PATH),
                              symmetric=False)
        cached.run(PROFESSOR, STUDENT)
        cached.run(STUDENT, PROFESSOR)
        assert cached.misses == 2

    def test_hit_rate(self, cached):
        assert cached.hit_rate == 0.0
        cached.run(PROFESSOR, STUDENT)
        cached.run(PROFESSOR, STUDENT)
        cached.run(PROFESSOR, STUDENT)
        assert cached.hit_rate == pytest.approx(2 / 3)

    def test_lru_eviction(self, mini_sst):
        cached = CachedRunner(mini_sst.runner(Measure.SHORTEST_PATH),
                              capacity=2)
        cached.run(PROFESSOR, STUDENT)
        cached.run(PROFESSOR, EMPLOYEE)
        cached.run(STUDENT, EMPLOYEE)   # evicts (PROFESSOR, STUDENT)
        cached.run(PROFESSOR, STUDENT)
        assert cached.misses == 4
        assert cached.hits == 0

    def test_clear_resets(self, cached):
        cached.run(PROFESSOR, STUDENT)
        cached.clear()
        assert cached.hits == 0
        assert cached.misses == 0
        cached.run(PROFESSOR, STUDENT)
        assert cached.misses == 1

    def test_metadata_forwarded(self, cached, mini_sst):
        inner = mini_sst.runner(Measure.SHORTEST_PATH)
        assert cached.name == inner.name
        assert cached.is_normalized() == inner.is_normalized()

    def test_invalid_capacity_rejected(self, mini_sst):
        with pytest.raises(SSTCoreError):
            CachedRunner(mini_sst.runner(Measure.SHORTEST_PATH),
                         capacity=0)

    def test_merge_inserts_entries_and_statistics(self, cached):
        key = cached.cache_key(PROFESSOR, STUDENT)
        cached.merge([(key, 0.25)], hits=3, misses=2)
        assert cached.run(PROFESSOR, STUDENT) == 0.25
        assert cached.hits == 3 + 1
        assert cached.misses == 2

    def test_merge_respects_capacity(self, mini_sst):
        cached = CachedRunner(mini_sst.runner(Measure.SHORTEST_PATH),
                              capacity=2)
        entries = [(cached.cache_key(PROFESSOR, STUDENT), 0.1),
                   (cached.cache_key(PROFESSOR, EMPLOYEE), 0.2),
                   (cached.cache_key(STUDENT, EMPLOYEE), 0.3)]
        cached.merge(entries)
        assert len(cached) == 2

    def test_pickle_roundtrip_recreates_lock(self, cached):
        cached.run(PROFESSOR, STUDENT)
        clone = pickle.loads(pickle.dumps(cached))
        assert clone.hits == cached.hits
        assert clone.misses == cached.misses
        assert clone.run(PROFESSOR, STUDENT) == cached.run(PROFESSOR,
                                                           STUDENT)

    def test_registered_as_custom_measure(self, mini_sst):
        measure_id = mini_sst.register_measure_runner(
            "cached-path",
            lambda wrapper: CachedRunner(
                mini_sst.registry.create(Measure.SHORTEST_PATH, wrapper)))
        first = mini_sst.get_similarity("Professor", "univ", "Student",
                                        "univ", measure_id)
        second = mini_sst.get_similarity("Professor", "univ", "Student",
                                         "univ", "cached-path")
        assert first == second
        assert mini_sst.runner(measure_id).hits >= 1


class TestFlatKey:
    """One flat string key per pair, shared by the L1 and the L2."""

    def test_four_strings_in_canonical_order(self, cached):
        key = cached.cache_key(STUDENT, QualifiedConcept("MINI", "COURSE"))
        assert key == ("MINI", "COURSE", "univ", "Student")
        assert all(type(part) is str for part in key)

    def test_mirrored_pairs_share_one_key(self, cached):
        other = QualifiedConcept("wn", "person")
        assert cached.cache_key(PROFESSOR, other) \
            == cached.cache_key(other, PROFESSOR) \
            == ("univ", "Professor", "wn", "person")

    def test_same_ontology_pair_ordered_by_concept(self, cached):
        assert cached.cache_key(STUDENT, PROFESSOR) \
            == cached.cache_key(PROFESSOR, STUDENT) \
            == ("univ", "Professor", "univ", "Student")

    def test_self_pair_has_one_key(self, cached):
        assert cached.cache_key(PROFESSOR, PROFESSOR) \
            == ("univ", "Professor", "univ", "Professor")

    def test_asymmetric_runner_keeps_caller_order(self, mini_sst):
        cached = CachedRunner(mini_sst.runner(Measure.SHORTEST_PATH),
                              symmetric=False)
        assert cached.cache_key(STUDENT, PROFESSOR) \
            == ("univ", "Student", "univ", "Professor")

    def test_l1_key_is_the_l2_row(self, mini_sst, tmp_path):
        l2 = DiskCache(tmp_path)
        cached = CachedRunner(mini_sst.runner(Measure.SHORTEST_PATH),
                              l2=l2, fingerprint="fp")
        value = cached.run(STUDENT, PROFESSOR)
        cached.flush()
        (key,) = cached._table
        assert key == cached.cache_key(STUDENT, PROFESSOR)
        assert l2.get("fp", cached.name, *key) == value


class TestThreadSafety:
    """Hammering: one cache shared by many threads stays consistent."""

    THREADS = 8
    ROUNDS = 40

    def test_hammering_keeps_statistics_consistent(self, mini_sst):
        inner = mini_sst.runner(Measure.SHORTEST_PATH)
        cached = CachedRunner(inner)
        concepts = (PROFESSOR, STUDENT, EMPLOYEE,
                    QualifiedConcept("univ", "Person"),
                    QualifiedConcept("univ", "Course"))
        pairs = [(first, second) for first in concepts
                 for second in concepts]
        errors: list[BaseException] = []
        barrier = threading.Barrier(self.THREADS)

        def hammer() -> None:
            try:
                barrier.wait()
                for _ in range(self.ROUNDS):
                    for first, second in pairs:
                        value = cached.run(first, second)
                        assert value == inner.run(first, second)
            except BaseException as error:  # noqa: BLE001 - rethrown below
                errors.append(error)

        threads = [threading.Thread(target=hammer)
                   for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Every lookup incremented exactly one counter, none was lost.
        total = self.THREADS * self.ROUNDS * len(pairs)
        assert cached.hits + cached.misses == total
        assert len(cached) == 15  # unordered pairs of 5 concepts

    def test_hammering_under_eviction_pressure(self, mini_sst):
        # Capacity below the working set forces constant LRU mutation.
        cached = CachedRunner(mini_sst.runner(Measure.SHORTEST_PATH),
                              capacity=4)
        concepts = (PROFESSOR, STUDENT, EMPLOYEE,
                    QualifiedConcept("univ", "Person"),
                    QualifiedConcept("univ", "Course"))
        pairs = [(first, second) for first in concepts
                 for second in concepts]
        errors: list[BaseException] = []

        def hammer() -> None:
            try:
                for _ in range(self.ROUNDS):
                    for first, second in pairs:
                        cached.run(first, second)
            except BaseException as error:  # noqa: BLE001 - rethrown below
                errors.append(error)

        threads = [threading.Thread(target=hammer)
                   for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cached) <= 4
        total = self.THREADS * self.ROUNDS * len(pairs)
        assert cached.hits + cached.misses == total
