"""Tests for the persistent L2 similarity cache and its facade wiring."""

import json
import os
import pickle
import sqlite3

import pytest

from repro.core import diskcache, telemetry
from repro.core.cache import CachedRunner
from repro.core.diskcache import DiskCache, corpus_fingerprint
from repro.core.facade import SOQASimPackToolkit
from repro.core.registry import Measure
from repro.core.resilience import injected_faults
from repro.core.results import QualifiedConcept
from repro.core.runners import LinRunner

#: The measures the batch kernel scores; the facade never caches them.
KERNEL_MEASURES = (
    Measure.CONCEPTUAL_SIMILARITY, Measure.SHORTEST_PATH, Measure.EDGE,
    Measure.LEACOCK_CHODOROW, Measure.LIN, Measure.RESNIK,
    Measure.RESNIK_NORMALIZED, Measure.JIANG_CONRATH, Measure.EXTENSIONAL,
)

PROFESSOR = QualifiedConcept("univ", "Professor")
STUDENT = QualifiedConcept("univ", "Student")


@pytest.fixture
def cache(tmp_path) -> DiskCache:
    return DiskCache(tmp_path / "cache")


class TestDiskCache:
    def test_roundtrip(self, cache):
        assert cache.get("fp", "m", "o1", "a", "o2", "b") is None
        cache.put("fp", "m", "o1", "a", "o2", "b", 0.5)
        cache.flush()
        assert cache.get("fp", "m", "o1", "a", "o2", "b") == 0.5

    def test_pending_rows_not_visible_before_flush(self, cache):
        cache.put("fp", "m", "o1", "a", "o2", "b", 0.5)
        assert cache.stats()["pending"] == 1
        cache.flush()
        assert cache.stats()["pending"] == 0
        assert cache.stats()["entries"] == 1

    def test_fingerprint_scopes_entries(self, cache):
        cache.put("fp1", "m", "o", "a", "o", "b", 0.5)
        cache.flush()
        assert cache.get("fp2", "m", "o", "a", "o", "b") is None

    def test_measure_scopes_entries(self, cache):
        cache.put("fp", "m1", "o", "a", "o", "b", 0.5)
        cache.flush()
        assert cache.get("fp", "m2", "o", "a", "o", "b") is None

    def test_replace_updates_value(self, cache):
        cache.put("fp", "m", "o", "a", "o", "b", 0.5)
        cache.put("fp", "m", "o", "a", "o", "b", 0.75)
        cache.flush()
        assert cache.get("fp", "m", "o", "a", "o", "b") == 0.75
        assert cache.stats()["entries"] == 1

    def test_clear_all_and_by_fingerprint(self, cache):
        cache.put("fp1", "m", "o", "a", "o", "b", 0.1)
        cache.put("fp2", "m", "o", "a", "o", "b", 0.2)
        cache.flush()
        assert cache.clear("fp1") == 1
        assert cache.get("fp2", "m", "o", "a", "o", "b") == 0.2
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0

    def test_stats_without_file(self, tmp_path):
        cache = DiskCache(tmp_path / "never-created")
        statistics = cache.stats()
        assert statistics["exists"] is False
        assert statistics["entries"] == 0

    def test_persists_across_instances(self, tmp_path):
        first = DiskCache(tmp_path / "cache")
        first.put("fp", "m", "o", "a", "o", "b", 0.5)
        first.close()
        second = DiskCache(tmp_path / "cache")
        assert second.get("fp", "m", "o", "a", "o", "b") == 0.5

    def test_pickle_drops_connection(self, cache):
        cache.put("fp", "m", "o", "a", "o", "b", 0.5)
        cache.flush()
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.get("fp", "m", "o", "a", "o", "b") == 0.5

    def test_unusable_directory_never_breaks_lookups(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        cache = DiskCache(blocker / "cache")
        assert cache.get("fp", "m", "o", "a", "o", "b") is None
        cache.put("fp", "m", "o", "a", "o", "b", 0.5)
        assert cache.flush() == 0


FP_A = "a" * 64
FP_B = "b" * 64


def _row(fingerprint: str, concept: str = "x", value: float = 0.5) -> tuple:
    return (fingerprint, "Lin", "ont", concept, "ont", concept, value)


def _rows(fingerprint: str, count: int) -> list[tuple]:
    return [_row(fingerprint, f"c{i}", i / 100) for i in range(count)]


class TestMaintenance:
    def test_one_file_under_the_historical_name(self, tmp_path):
        # The name every earlier layout used for its first file, so
        # caches written before keep serving hits.
        assert DiskCache(tmp_path).path \
            == tmp_path / "similarity-cache.sqlite"

    def test_put_many_across_fingerprints_round_trips(self, cache):
        rows = [_row(FP_A, f"a{i}") for i in range(5)] \
            + [_row(FP_B, f"b{i}") for i in range(5)]
        cache.put_many(rows)
        cache.flush()
        for item in rows:
            assert cache.get(*item[:6]) == item[6]
        assert cache.stats()["fingerprints"] == 2

    def test_get_returns_only_the_asked_fingerprint(self, cache):
        rows = [_row(FP_A, f"a{i}", i / 10) for i in range(3)]
        cache.put_many(rows + [_row(FP_B, "a0", 0.9)])
        cache.flush()
        keys = [item[2:6] for item in rows] + [("ont", "z", "ont", "z")]
        assert _per_key(cache, FP_A, "Lin", keys) \
            == {item[2:6]: item[6] for item in rows}
        assert _per_key(cache, FP_B, "Lin", keys) == {keys[0]: 0.9}

    def test_stats_counts_the_file(self, cache):
        cache.put_many(_rows(FP_A, 3))
        cache.flush()
        statistics = cache.stats()
        assert statistics == {
            "path": str(cache.path), "exists": True, "entries": 3,
            "fingerprints": 1, "measures": 1,
            "size_bytes": cache.path.stat().st_size, "pending": 0}

    def test_compact_reports_sizes(self, cache):
        cache.put_many(_rows(FP_A, 10))
        cache.flush()
        result = cache.compact()
        assert result["path"] == str(cache.path)
        assert result["before_bytes"] > 0
        assert result["after_bytes"] > 0

    def test_prune_bounds_the_file_oldest_generation_first(self, cache):
        fingerprints = [format(i, "064x") for i in range(6)]
        # Written newest-name-first, so eviction order cannot be the
        # fingerprint order by accident.
        for fingerprint in reversed(fingerprints):
            cache.put_many(_rows(fingerprint, 50))
            cache.flush()  # one generation per corpus
        cache.compact()  # checkpoint the WAL so size_bytes is real
        budget = cache.stats()["size_bytes"] // 2
        result = cache.prune(budget)
        evicted = result["removed_fingerprints"]
        assert 1 <= evicted < len(fingerprints)
        assert result["removed_rows"] == 50 * evicted
        assert result["size_bytes"] <= budget
        oldest_first = list(reversed(fingerprints))
        for fingerprint in oldest_first[:evicted]:
            assert cache.get(fingerprint, "Lin", "ont", "c1",
                             "ont", "c1") is None
        for fingerprint in oldest_first[evicted:]:
            assert cache.get(fingerprint, "Lin", "ont", "c1",
                             "ont", "c1") == 0.01

    def test_prune_noop_under_budget(self, cache):
        cache.put(*_row(FP_A)[:6], 0.5)
        cache.flush()
        result = cache.prune(10 ** 9)
        assert result["removed_rows"] == 0
        assert result["removed_fingerprints"] == 0
        assert cache.get(*_row(FP_A)[:6]) == 0.5

    @pytest.mark.parametrize("scope", [None, FP_A], ids=["all", "one"])
    def test_clear_forgets_fingerprint_meta(self, cache, scope):
        # A cleared fingerprint must not linger as a prune victim: a
        # prune to nothing removes exactly the one corpus with rows.
        cache.put_many(_rows(FP_A, 50))
        cache.flush()
        if scope is None:
            cache.clear()
        cache.put_many(_rows(FP_B, 50))
        cache.flush()
        if scope is not None:
            cache.clear(scope)
        result = cache.prune(0)
        assert result["removed_fingerprints"] == 1
        assert result["removed_rows"] == 50

    def test_read_only_drops_writes(self, cache):
        cache.read_only = True
        cache.put(*_row(FP_A)[:6], 0.5)
        cache.put_many(_rows(FP_A, 3))
        assert cache.flush() == 0
        cache.read_only = False
        assert cache.get(*_row(FP_A)[:6]) is None
        assert cache.stats()["entries"] == 0


class TestSelfHealing:
    def _corrupt(self, cache: DiskCache) -> None:
        cache.directory.mkdir(parents=True, exist_ok=True)
        cache.path.write_bytes(b"torn write garbage\0" * 16)

    def test_corrupt_file_is_quarantined_and_rebuilt(self, cache):
        telemetry.reset()
        self._corrupt(cache)
        assert cache.get("fp", "m", "o", "a", "o", "b") is None
        cache.put("fp", "m", "o", "a", "o", "b", 0.5)
        assert cache.flush() == 1
        assert cache.get("fp", "m", "o", "a", "o", "b") == 0.5
        assert cache.quarantined == 1
        evidence = list(cache.directory.glob("*.corrupt-*"))
        assert len(evidence) == 1
        assert telemetry.get_registry().value("cache.l2.quarantined") == 1

    def test_schema_version_mismatch_is_quarantined(self, cache):
        cache.directory.mkdir(parents=True, exist_ok=True)
        foreign = sqlite3.connect(str(cache.path))
        foreign.execute("PRAGMA user_version = 99")
        foreign.commit()
        foreign.close()
        assert cache.get("fp", "m", "o", "a", "o", "b") is None
        assert cache.quarantined == 1

    def test_older_schema_is_rebuilt_not_quarantined(self, cache):
        # A healthy file as the schema-1 release wrote it: a rowid
        # table with a separate primary-key index, stamped version 1.
        telemetry.reset()
        cache.directory.mkdir(parents=True, exist_ok=True)
        old = sqlite3.connect(str(cache.path))
        old.execute("PRAGMA journal_mode=WAL")
        old.execute(
            "CREATE TABLE similarity (schema_version INTEGER NOT NULL,"
            " fingerprint TEXT NOT NULL, measure TEXT NOT NULL,"
            " first_ontology TEXT NOT NULL, first_concept TEXT NOT NULL,"
            " second_ontology TEXT NOT NULL,"
            " second_concept TEXT NOT NULL, value REAL NOT NULL,"
            " PRIMARY KEY (schema_version, fingerprint, measure,"
            "  first_ontology, first_concept,"
            "  second_ontology, second_concept))")
        old.execute(
            "CREATE TABLE fingerprint_meta (schema_version INTEGER NOT NULL,"
            " fingerprint TEXT NOT NULL, generation INTEGER NOT NULL,"
            " PRIMARY KEY (schema_version, fingerprint))")
        old.execute("INSERT INTO similarity VALUES"
                    " (1, 'fp', 'm', 'o', 'a', 'o', 'b', 0.75)")
        old.execute("INSERT INTO fingerprint_meta VALUES (1, 'fp', 1)")
        old.execute("PRAGMA user_version = 1")
        old.commit()
        old.close()

        assert cache.get("fp", "m", "o", "a", "o", "b") is None
        assert cache.quarantined == 0
        assert list(cache.directory.glob("*.corrupt-*")) == []
        assert telemetry.get_registry().value("cache.l2.quarantined") == 0
        cache.put("fp", "m", "o", "a", "o", "b", 0.5)
        assert cache.flush() == 1
        assert cache.get("fp", "m", "o", "a", "o", "b") == 0.5
        assert cache.stats()["entries"] == 1
        connection = cache._connect()
        assert connection.execute("PRAGMA user_version").fetchone()[0] \
            == diskcache._SCHEMA_VERSION == 2
        (table_sql,) = connection.execute(
            "SELECT sql FROM sqlite_master WHERE name='similarity'"
        ).fetchone()
        assert table_sql.endswith("WITHOUT ROWID")

    def test_repeated_quarantines_keep_all_evidence(self, cache):
        for _ in range(2):
            # Close first: a live WAL connection would checkpoint over
            # the scribbled bytes and accidentally repair the file.
            cache.close()
            self._corrupt(cache)
            cache.get("fp", "m", "o", "a", "o", "b")
        assert cache.quarantined == 2
        assert len(list(cache.directory.glob("*.corrupt-*"))) == 2

    def test_midrun_corruption_heals_on_next_access(self, cache):
        cache.put("fp", "m", "o", "a", "o", "b", 0.5)
        cache.flush()

        class Broken:
            def execute(self, *args):
                raise sqlite3.DatabaseError("malformed")

            def close(self):
                pass

        cache._connection = Broken()
        assert cache.get("fp", "m", "o", "a", "o", "b") is None
        assert cache.quarantined == 1
        assert cache._connection is None
        # The next access rebuilds a fresh, working database.
        cache.put("fp", "m", "o", "a", "o", "b", 0.25)
        assert cache.flush() == 1
        assert cache.get("fp", "m", "o", "a", "o", "b") == 0.25

    def test_breaker_fails_open_after_repeated_failures(self, tmp_path):
        telemetry.reset()
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        cache = DiskCache(blocker / "cache")
        for _ in range(cache.breaker.failure_threshold):
            assert cache.get("fp", "m", "o", "a", "o", "b") is None
        assert cache.breaker.state == cache.breaker.OPEN
        # Refused without touching the broken path; pending writes drop.
        assert cache.get("fp", "m", "o", "a", "o", "b") is None
        cache.put("fp", "m", "o", "a", "o", "b", 0.5)
        assert cache.flush() == 0
        registry = telemetry.get_registry()
        assert registry.value("cache.l2.failopen") >= 2
        assert registry.value("resilience.breaker.opened") == 1

    def test_cache_corrupt_fault_injection_heals(self, tmp_path):
        telemetry.reset()
        with injected_faults("cache.corrupt=1"):
            cache = DiskCache(tmp_path / "cache")
            cache.put("fp", "m", "o", "a", "o", "b", 0.5)
            assert cache.flush() == 1
            assert cache.get("fp", "m", "o", "a", "o", "b") == 0.5
        assert cache.quarantined <= 1  # nothing to quarantine pre-file
        registry = telemetry.get_registry()
        assert registry.value("faults.injected.cache.corrupt") == 1

    def test_pickle_resets_healing_state(self, cache):
        cache.breaker.record_failure()
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.breaker.state == clone.breaker.CLOSED
        assert clone.quarantined == 0


def _keys(count: int, prefix: str = "c") -> list[tuple[str, str, str, str]]:
    return [("o1", f"{prefix}{i}", "o2", f"{prefix}{i + 1}")
            for i in range(count)]


def _store(cache: DiskCache, fingerprint: str, measure: str, keys,
           base: float = 0.0) -> None:
    cache.put_many((fingerprint, measure, *key, base + index / 1000)
                   for index, key in enumerate(keys))
    cache.flush()


def _per_key(cache: DiskCache, fingerprint: str, measure: str, keys) -> dict:
    found = {}
    for key in keys:
        value = cache.get(fingerprint, measure, *key)
        if value is not None:
            found[key] = value
    return found


class TestGetMany:
    """The read contract of ``get``, the one L2 read path.

    Awkward names, fail-open, quarantine on open, healing mid-run,
    reads from a forked child, and one primary-key search per lookup.
    """

    def test_awkward_names(self, cache):
        keys = [("ont:with:colons", "it's \"quoted\"", "o2", "b"),
                ("Ontologie", "Begriff:Ä", "日本語", "概念"),
                ("o", "a'); DROP TABLE similarity; --", "o", "z"),
                ("", "", "o", "?")]
        _store(cache, "fp", "m", keys)
        assert _per_key(cache, "fp", "m", keys) \
            == {key: index / 1000 for index, key in enumerate(keys)}

    def test_breaker_open_fails_open(self, cache):
        keys = _keys(4)
        _store(cache, "fp", "m", keys)
        for _ in range(cache.breaker.failure_threshold):
            cache.breaker.record_failure()
        assert cache.breaker.state == cache.breaker.OPEN
        telemetry.reset()
        assert cache.get("fp", "m", *keys[0]) is None
        assert telemetry.get_registry().value("cache.l2.failopen") == 1

    def test_corrupt_file_on_open_is_quarantined(self, cache):
        keys = _keys(4)
        _store(cache, "fp", "m", keys)
        cache.close()
        cache.path.write_bytes(b"torn write garbage\0" * 16)
        telemetry.reset()
        assert _per_key(cache, "fp", "m", keys) == {}
        assert cache.quarantined == 1
        assert telemetry.get_registry().value("cache.l2.quarantined") == 1

    def test_midrun_corruption_heals_on_next_access(self, cache):
        keys = _keys(4)
        _store(cache, "fp", "m", keys)

        class Broken:
            def execute(self, *args):
                raise sqlite3.DatabaseError("database disk image is "
                                            "malformed")

            def close(self):
                pass

        cache._connection = Broken()
        assert cache.get("fp", "m", *keys[0]) is None
        assert cache.quarantined == 1
        assert cache._connection is None
        assert len(list(cache.directory.glob("*.corrupt-*"))) == 1
        # The next access rebuilds a fresh, working database.
        _store(cache, "fp", "m", keys[:2], base=0.5)
        assert _per_key(cache, "fp", "m", keys) \
            == {keys[0]: 0.5, keys[1]: 0.501}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_reads_from_forked_child(self, cache):
        keys = _keys(5)
        _store(cache, "fp", "m", keys)
        expected = _per_key(cache, "fp", "m", keys)  # parent connection open
        reader, writer = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            code = 1
            try:
                found = _per_key(cache, "fp", "m", keys)
                payload = json.dumps(sorted(
                    [list(key), value] for key, value in found.items()))
                os.write(writer, payload.encode())
                code = 0
            finally:
                os._exit(code)
        os.close(writer)
        with os.fdopen(reader, "rb") as handle:
            payload = handle.read()
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        child = {tuple(key): value for key, value in json.loads(payload)}
        assert child == expected
        assert len(expected) == len(keys)
        # The parent's own connection still serves after the fork.
        assert _per_key(cache, "fp", "m", keys) == expected

    def test_query_plan_probes_the_primary_key(self, cache):
        # A lookup that scans ``similarity`` would grow with the file;
        # it must stay one primary-key search.
        keys = _keys(300)
        _store(cache, "fp", "m", keys)
        connection = cache._connect()
        connection.execute("ANALYZE")
        statements = []

        class Recorder:
            def execute(self, sql, parameters=()):
                statements.append((sql, parameters))
                return connection.execute(sql, parameters)

        cache._connection = Recorder()
        try:
            assert cache.get("fp", "m", *keys[0]) == 0.0
        finally:
            cache._connection = connection
        ((sql, parameters),) = statements
        plan = [row[3] for row in connection.execute(
            "EXPLAIN QUERY PLAN " + sql, parameters)]
        assert not any(step.startswith("SCAN") for step in plan)
        assert plan == ["SEARCH similarity USING PRIMARY KEY"
                        " (schema_version=? AND fingerprint=? AND measure=?"
                        " AND first_ontology=? AND first_concept=?"
                        " AND second_ontology=? AND second_concept=?)"]


class TestCorpusFingerprint:
    def test_stable_for_same_corpus(self, mini_soqa):
        assert (corpus_fingerprint(mini_soqa, "super_thing")
                == corpus_fingerprint(mini_soqa, "super_thing"))

    def test_changes_with_strategy(self, mini_soqa):
        assert (corpus_fingerprint(mini_soqa, "super_thing")
                != corpus_fingerprint(mini_soqa, "merged_thing"))

    def test_changes_with_content(self, mini_soqa):
        before = corpus_fingerprint(mini_soqa, "super_thing")
        mini_soqa.load_text("(defmodule \"X\")\n(in-module \"X\")\n"
                            "(defconcept THING)", "X", "PowerLoom")
        assert corpus_fingerprint(mini_soqa, "super_thing") != before


class TestCachedRunnerL2:
    def test_symmetric_canonicalization_applies_to_l2(self, mini_sst,
                                                      tmp_path):
        """The unordered pair shares one on-disk row (satellite 2)."""
        l2 = DiskCache(tmp_path / "cache")
        inner = mini_sst.registry.create(Measure.SHORTEST_PATH,
                                         mini_sst.wrapper)
        first = CachedRunner(inner, l2=l2, fingerprint="fp")
        value = first.run(PROFESSOR, STUDENT)
        first.flush()
        # A fresh runner (empty L1) sees the swapped order: the
        # canonical key must hit the same disk row.
        second = CachedRunner(inner, l2=l2, fingerprint="fp")
        assert second.run(STUDENT, PROFESSOR) == value
        assert second.l2_hits == 1
        assert second.misses == 1  # L1 was cold; L2 served the value
        assert l2.stats()["entries"] == 1

    def test_l2_miss_falls_through_to_compute(self, mini_sst, tmp_path):
        l2 = DiskCache(tmp_path / "cache")
        cached = CachedRunner(
            mini_sst.registry.create(Measure.SHORTEST_PATH,
                                     mini_sst.wrapper),
            l2=l2, fingerprint="fp")
        cached.run(PROFESSOR, STUDENT)
        assert cached.l2_misses == 1
        assert cached.l2_hits == 0

    def test_different_fingerprint_invalidates(self, mini_sst, tmp_path):
        l2 = DiskCache(tmp_path / "cache")
        inner = mini_sst.registry.create(Measure.SHORTEST_PATH,
                                         mini_sst.wrapper)
        stale = CachedRunner(inner, l2=l2, fingerprint="old")
        stale.run(PROFESSOR, STUDENT)
        stale.flush()
        fresh = CachedRunner(inner, l2=l2, fingerprint="new")
        fresh.run(PROFESSOR, STUDENT)
        assert fresh.l2_hits == 0
        assert fresh.l2_misses == 1

    def test_merge_persists_worker_entries(self, mini_sst, tmp_path):
        l2 = DiskCache(tmp_path / "cache")
        inner = mini_sst.registry.create(Measure.SHORTEST_PATH,
                                         mini_sst.wrapper)
        cached = CachedRunner(inner, l2=l2, fingerprint="fp")
        key = cached.cache_key(PROFESSOR, STUDENT)
        cached.merge([(key, 0.25)], hits=0, misses=1)
        cached.flush()
        reader = CachedRunner(inner, l2=l2, fingerprint="fp")
        assert reader.run(PROFESSOR, STUDENT) == 0.25
        assert reader.l2_hits == 1

    def test_clear_resets_l2_counters(self, mini_sst, tmp_path):
        l2 = DiskCache(tmp_path / "cache")
        cached = CachedRunner(
            mini_sst.registry.create(Measure.SHORTEST_PATH,
                                     mini_sst.wrapper),
            l2=l2, fingerprint="fp")
        cached.run(PROFESSOR, STUDENT)
        cached.clear()
        assert cached.l2_hits == 0
        assert cached.l2_misses == 0


class TestFacadeWiring:
    def test_facade_runners_are_cached(self, mini_sst):
        runner = mini_sst.runner(Measure.TFIDF)
        assert isinstance(runner, CachedRunner)
        assert runner.l2 is not None  # SST_CACHE_DIR is set in tests

    def test_cache_false_returns_raw_runner(self, mini_soqa):
        sst = SOQASimPackToolkit(mini_soqa, cache=False)
        assert not isinstance(sst.runner(Measure.TFIDF),
                              CachedRunner)
        assert sst.disk_cache is None

    def test_warm_start_across_facades(self, mini_soqa, tmp_path):
        directory = tmp_path / "shared"
        cold = SOQASimPackToolkit(mini_soqa, cache_dir=directory)
        value = cold.get_similarity("Professor", "univ", "Student", "univ",
                                    Measure.TFIDF)
        cold.flush_caches()
        warm = SOQASimPackToolkit(mini_soqa, cache_dir=directory)
        assert warm.get_similarity("Professor", "univ", "Student", "univ",
                                   Measure.TFIDF) == value
        runner = warm.runner(Measure.TFIDF)
        assert runner.l2_hits == 1

    def test_cache_statistics_shape(self, mini_sst):
        mini_sst.get_similarity("Professor", "univ", "Student", "univ",
                                Measure.TFIDF)
        statistics = mini_sst.cache_statistics()
        assert statistics["enabled"] is True
        assert statistics["l1"]["misses"] >= 1
        assert statistics["l2"] is not None
        assert "hit_rate" in statistics["l2"]

    def test_kernel_measures_are_never_cached(self, mini_soqa, tmp_path):
        sst = SOQASimPackToolkit(mini_soqa, cache_dir=tmp_path / "l2")
        for measure in KERNEL_MEASURES:
            assert not isinstance(sst.runner(measure), CachedRunner)
        assert isinstance(sst.runner(Measure.TFIDF), CachedRunner)
        concepts = [("univ", "Professor"), ("univ", "Student"),
                    ("univ", "Course"), ("MINI", "EMPLOYEE")]
        for measure in KERNEL_MEASURES:
            sst.get_similarity_matrix(concepts, measure)
            sst.get_most_similar_concepts("Professor", "univ", k=3,
                                          measure=measure)
            sst.get_similarity("Professor", "univ", "Student", "univ",
                               measure)
        sst.flush_caches()
        assert sst.disk_cache.stats()["entries"] == 0
        statistics = sst.cache_statistics()
        assert statistics["l1"] == {
            "hits": 0, "misses": 0, "entries": 0, "hit_rate": 0.0}
        # The untouched L2 is still reported as configured.
        assert statistics["l2"] == {
            "path": str(tmp_path / "l2"), "hits": 0, "misses": 0,
            "hit_rate": 0.0}

    def test_ic_runner_off_the_subclasses_estimator_is_cached(
            self, mini_soqa, tmp_path):
        # The kernel only replicates the subclasses estimator, so an IC
        # runner retargeted at instances has no batch form to bypass.
        def lin_on_instances(wrapper):
            runner = LinRunner(wrapper)
            runner.ic_source = "instances"
            return runner

        sst = SOQASimPackToolkit(mini_soqa, cache_dir=tmp_path / "l2")
        measure = sst.register_measure_runner("Lin (instances)",
                                              lin_on_instances)
        assert isinstance(sst.runner(measure), CachedRunner)
        assert not isinstance(sst.runner(Measure.LIN), CachedRunner)

    def test_refresh_recomputes_fingerprint(self, mini_sst):
        before = mini_sst.fingerprint()
        mini_sst.load_ontology_text(
            "(defmodule \"Y\")\n(in-module \"Y\")\n(defconcept THING)",
            "Y", "PowerLoom")
        assert mini_sst.fingerprint() != before
