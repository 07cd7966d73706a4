"""Regression battery for the facade/wrapper lazy-build races.

A resident server hands one facade to a pool of request threads, so
the cold-start path — first request ever, eight threads deep — used to
race every lazily built singleton: two threads could each build a
``CachedRunner`` for the same measure (splitting the L1 memo in half),
build the unified tree twice, or build the SimPack kernel twice.
These tests fail on the unlocked implementation (barrier-synchronized
threads observed distinct object identities) and pin the RLock fix.

The eviction hammer drives the CachedRunner's L1-evict-plus-L2-write
path from many threads at a capacity small enough that every request
evicts, checking values against ground truth and that the L2 tier
still warm-starts a fresh runner afterwards.
"""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.core.cache import CachedRunner
from repro.core.diskcache import DiskCache
from repro.core.registry import Measure
from repro.core.results import QualifiedConcept
from repro.ontologies.generator import generate_random_dag
from tests.server.conftest import dag_toolkit

THREADS = 8


def race(build):
    """Run ``build`` on barrier-synchronized threads; return results."""
    barrier = threading.Barrier(THREADS)
    results: list = [None] * THREADS
    errors: list = []

    def contender(index: int) -> None:
        barrier.wait(10)
        try:
            results[index] = build()
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=contender, args=(index,),
                                daemon=True)
               for index in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert errors == []
    assert all(result is not None for result in results)
    return results


class TestColdStartSingletons:
    """Every lazily built structure must come out once, not once per
    thread.

    The runner tests use TREE_EDIT: it has no kernel batch form, so the
    facade wraps it in a ``CachedRunner``.
    """

    def test_runner_is_built_once_across_threads(self):
        toolkit = dag_toolkit({"ont": generate_random_dag(30, seed=1)},
                              cache=True)
        results = race(lambda: toolkit.runner(Measure.TREE_EDIT))
        assert len({id(runner) for runner in results}) == 1
        assert isinstance(results[0], CachedRunner)

    def test_tree_is_built_once_across_threads(self):
        toolkit = dag_toolkit({"ont": generate_random_dag(30, seed=2)})
        results = race(lambda: toolkit.tree)
        assert len({id(tree) for tree in results}) == 1

    def test_wrapper_kernel_is_built_once_across_threads(self):
        toolkit = dag_toolkit({"ont": generate_random_dag(30, seed=3)})
        wrapper = toolkit.wrapper
        results = race(wrapper.kernel)
        assert len({id(kernel) for kernel in results}) == 1

    def test_disk_cache_is_built_once_across_threads(self):
        toolkit = dag_toolkit({"ont": generate_random_dag(30, seed=4)},
                              cache=True)
        results = race(lambda: toolkit.disk_cache)
        assert results[0] is not None
        assert len({id(cache) for cache in results}) == 1

    def test_wrapper_lock_survives_pickling(self):
        """The lazy-build lock must not break the process strategy.

        Cached runners travel to forked/spawned workers by pickle and
        reach the wrapper through their inner runner; the lock is
        dropped on the way out and each copy grows a fresh one.
        """
        dag = generate_random_dag(20, seed=7)
        toolkit = dag_toolkit({"ont": dag}, cache=True)
        names = sorted(dag)
        runner = toolkit.runner(Measure.TREE_EDIT)
        first = QualifiedConcept("ont", names[0])
        second = QualifiedConcept("ont", names[-1])
        expected = runner.run(first, second)
        clone = pickle.loads(pickle.dumps(runner))
        assert clone.run(first, second) == expected
        results = race(lambda: clone.inner.wrapper.kernel())
        assert len({id(kernel) for kernel in results}) == 1

    def test_cold_pair_scored_identically_by_all_threads(self):
        dag = generate_random_dag(40, seed=5)
        toolkit = dag_toolkit({"ont": dag}, cache=True)
        names = sorted(dag)
        first = QualifiedConcept("ont", names[3])
        second = QualifiedConcept("ont", names[-2])
        results = race(lambda: toolkit.runner(
            Measure.TREE_EDIT).run(first, second))
        assert len(set(results)) == 1


class TestEvictionUnderContention:
    """L1 eviction and L2 writes from many threads stay exact."""

    @pytest.fixture
    def setup(self, tmp_path):
        dag = generate_random_dag(16, seed=6)
        toolkit = dag_toolkit({"ont": dag})
        inner = toolkit.runner(Measure.SHORTEST_PATH)
        names = sorted(dag)
        pairs = [(QualifiedConcept("ont", a), QualifiedConcept("ont", b))
                 for position, a in enumerate(names)
                 for b in names[position + 1:]]
        truth = {CachedRunner(inner).cache_key(first, second):
                 inner.run(first, second) for first, second in pairs}
        return toolkit, inner, pairs, truth, tmp_path

    def test_hammer_with_constant_eviction_stays_exact(self, setup):
        toolkit, inner, pairs, truth, tmp_path = setup
        cached = CachedRunner(inner, capacity=4,
                              l2=DiskCache(tmp_path), fingerprint="race")
        failures: list[str] = []
        barrier = threading.Barrier(THREADS)

        def hammer(offset: int) -> None:
            barrier.wait(10)
            for round_index in range(3):
                for first, second in pairs[offset::2]:
                    value = cached.run(first, second)
                    expected = truth[cached.cache_key(first, second)]
                    if value != expected:
                        failures.append(
                            f"{first.concept_name}/{second.concept_name}"
                            f": {value} != {expected}")
                        return

        threads = [threading.Thread(target=hammer, args=(index % 2,),
                                    daemon=True)
                   for index in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        # Capacity is enforced even under contention.
        assert len(cached) <= 4

    def test_l2_written_during_eviction_warm_starts(self, setup):
        toolkit, inner, pairs, truth, tmp_path = setup
        store = DiskCache(tmp_path)
        cached = CachedRunner(inner, capacity=4, l2=store,
                              fingerprint="race")

        def fill(_: int) -> None:
            for first, second in pairs:
                cached.run(first, second)

        race(lambda: fill(0) or True)
        cached.flush()
        # A cold runner over the same store must find every pair in L2
        # with the exact scores, despite the L1 having evicted almost
        # everything while they were written.
        fresh = CachedRunner(inner, capacity=len(pairs) + 1, l2=store,
                             fingerprint="race")
        for first, second in pairs:
            assert fresh.run(first, second) \
                == truth[fresh.cache_key(first, second)]
        assert fresh.l2_hits == len(pairs)
        assert fresh.l2_misses == 0
