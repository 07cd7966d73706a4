"""Unit tests for the pairwise similarity cache."""

import pickle
import threading

import pytest

from repro.core import kernel, telemetry
from repro.core.cache import CachedRunner
from repro.core.diskcache import DiskCache
from repro.core.facade import SOQASimPackToolkit
from repro.core.registry import Measure
from repro.core.results import QualifiedConcept
from repro.errors import SSTCoreError

PROFESSOR = QualifiedConcept("univ", "Professor")
STUDENT = QualifiedConcept("univ", "Student")
EMPLOYEE = QualifiedConcept("univ", "Employee")
PERSON = QualifiedConcept("univ", "Person")
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


class TestBulkCounterParity:
    """The batch path books exactly what the per-pair ``run`` loop does."""

    COUNTERS = ("cache.l1.hits", "cache.l1.misses", "cache.l1.stores",
                "cache.l2.hits", "cache.l2.misses", "cache.l2.stores")

    def _runner(self, inner, directory) -> CachedRunner:
        l2 = DiskCache(directory)
        cached = CachedRunner(inner, l2=l2, fingerprint="fp")
        # L2-only rows: stored on disk but absent from the L1.
        l2.put_many(("fp", cached.name, *CachedRunner._l2_columns(key),
                     inner.run(*key))
                    for key in (cached.cache_key(PROFESSOR, EMPLOYEE),
                                cached.cache_key(STUDENT, COURSE)))
        l2.flush()
        # An L1-resident entry, seeded without touching any counter.
        key = cached.cache_key(PROFESSOR, STUDENT)
        with cached._lock:
            cached._table[key] = inner.run(*key)
        return cached

    def _books(self, cached) -> dict:
        registry = telemetry.get_registry()
        return {"hits": cached.hits, "misses": cached.misses,
                "l2_hits": cached.l2_hits, "l2_misses": cached.l2_misses,
                **{name: registry.value(name) for name in self.COUNTERS}}

    def test_mixed_batch_matches_per_pair_loop(self, mini_soqa, tmp_path):
        inner = SOQASimPackToolkit(mini_soqa, cache=False).runner(
            Measure.SHORTEST_PATH)
        pairs = [
            (PROFESSOR, STUDENT),    # L1 hit
            (EMPLOYEE, PROFESSOR),   # L2 hit (mirrored key)
            (PERSON, COURSE),        # miss
            (STUDENT, COURSE),       # L2 hit
            (COURSE, PERSON),        # duplicate of a miss, mirrored
            (PROFESSOR, EMPLOYEE),   # duplicate of an L2 hit
            (STUDENT, PROFESSOR),    # L1 hit again, mirrored
            (PERSON, EMPLOYEE),      # miss
            (PERSON, COURSE),        # duplicate of a miss
        ]

        sequential = self._runner(inner, tmp_path / "sequential")
        telemetry.reset()
        expected = [sequential.run(first, second) for first, second in pairs]
        per_pair = self._books(sequential)

        batched = self._runner(inner, tmp_path / "batched")
        telemetry.reset()
        assert kernel.try_batch(batched, pairs) == expected
        assert self._books(batched) == per_pair
        assert per_pair == {
            "hits": 5, "misses": 4, "l2_hits": 2, "l2_misses": 2,
            "cache.l1.hits": 5, "cache.l1.misses": 4,
            "cache.l1.stores": 4, "cache.l2.hits": 2,
            "cache.l2.misses": 2, "cache.l2.stores": 2}
        # Both paths leave the same L1 behind.
        assert dict(batched._table) == dict(sequential._table)


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
