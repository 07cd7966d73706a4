"""Tests that the L2 cache keeps what the former fingerprint-sharded
layout promised its callers, now that one DiskCache file holds every
corpus fingerprint."""

import pickle

import pytest

from repro.core.diskcache import DiskCache

FP_A = "a" * 64
FP_B = "b" * 64


def row(fingerprint, concept="x", value=0.5):
    return (fingerprint, "Lin", "ont", concept, "ont", concept, value)


@pytest.fixture
def cache(tmp_path):
    cache = DiskCache(tmp_path)
    yield cache
    cache.close()


class TestRouting:
    def test_put_get_round_trip(self, cache):
        cache.put(*row(FP_A)[:6], 0.75)
        cache.flush()
        assert cache.get(*row(FP_A)[:6]) == 0.75
        assert cache.get(*row(FP_B)[:6]) is None


class TestMaintenance:
    def test_stats_on_empty_directory(self, tmp_path):
        stats = DiskCache(tmp_path).stats()
        assert stats["exists"] is False
        assert stats["entries"] == 0

    def test_clear_spans_all_shards(self, cache):
        # One clear() removes the rows of every fingerprint in the file.
        cache.put_many([row(FP_A), row(FP_B, "y")])
        cache.flush()
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0


class TestWorkerContract:
    def test_pickle_round_trip(self, cache):
        cache.put(*row(FP_A)[:6], 0.5)
        cache.flush()
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.path == cache.path
        assert clone.get(*row(FP_A)[:6]) == 0.5
        clone.close()
