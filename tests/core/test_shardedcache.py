"""Tests for the fingerprint-sharded L2 cache."""

import pickle
import zlib

import pytest

from repro.core.diskcache import DiskCache
from repro.core.shardedcache import (
    DEFAULT_SHARDS,
    SHARDS_ENV,
    ShardedDiskCache,
    resolve_shard_count,
    shard_filename,
)
from repro.errors import SSTCoreError

FP_A = "a" * 64
FP_B = "b" * 64


def row(fingerprint, concept="x", value=0.5):
    return (fingerprint, "Lin", "ont", concept, "ont", concept, value)


@pytest.fixture
def cache(tmp_path):
    cache = ShardedDiskCache(tmp_path, shards=4)
    yield cache
    cache.close()


class TestShardCount:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(SHARDS_ENV, raising=False)
        assert resolve_shard_count() == DEFAULT_SHARDS

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv(SHARDS_ENV, "9")
        assert resolve_shard_count() == 9

    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv(SHARDS_ENV, "9")
        assert resolve_shard_count(2) == 2

    def test_clamped_to_one(self):
        assert resolve_shard_count(0) == 1
        assert resolve_shard_count(-5) == 1

    def test_garbage_raises(self, monkeypatch):
        monkeypatch.setenv(SHARDS_ENV, "lots")
        with pytest.raises(SSTCoreError):
            resolve_shard_count()


class TestRouting:
    def test_shard_zero_keeps_legacy_filename(self):
        assert shard_filename(0) == "similarity-cache.sqlite"
        assert shard_filename(3) == "similarity-cache-3.sqlite"

    def test_fingerprint_routes_to_one_shard(self, cache):
        shard = cache.shard_for(FP_A)
        assert shard is cache.shard_for(FP_A)  # stable
        expected = zlib.crc32(FP_A.encode()) % cache.shard_count
        assert shard is cache.shards[expected]

    def test_put_get_round_trip(self, cache):
        cache.put(*row(FP_A)[:6], 0.75)
        cache.flush()
        assert cache.get(*row(FP_A)[:6]) == 0.75
        assert cache.get(*row(FP_B)[:6]) is None

    def test_put_many_groups_by_fingerprint(self, cache):
        rows = [row(FP_A, f"a{i}") for i in range(5)] \
            + [row(FP_B, f"b{i}") for i in range(5)]
        cache.put_many(rows)
        cache.flush()
        for item in rows:
            assert cache.get(*item[:6]) == item[6]
        # All of one fingerprint's rows landed in exactly one shard.
        holding = [shard for shard in cache.shards
                   if shard.stats()["entries"]]
        assert len(holding) == len({
            zlib.crc32(fp.encode()) % cache.shard_count
            for fp in (FP_A, FP_B)})

    def test_get_many_reads_the_routed_shard(self, cache):
        rows = [row(FP_A, f"a{i}", i / 10) for i in range(3)]
        cache.put_many(rows)
        cache.flush()
        keys = [item[2:6] for item in rows] + [("ont", "z", "ont", "z")]
        assert cache.get_many(FP_A, "Lin", keys) \
            == {item[2:6]: item[6] for item in rows}
        assert cache.get_many(FP_B, "Lin", keys) == {}

    def test_one_shard_config_is_legacy_layout(self, tmp_path):
        sharded = ShardedDiskCache(tmp_path, shards=1)
        sharded.put(*row(FP_A)[:6], 0.25)
        sharded.flush()
        sharded.close()
        legacy = DiskCache(tmp_path)  # the pre-sharding single file
        assert legacy.get(*row(FP_A)[:6]) == 0.25
        legacy.close()

    def test_legacy_single_file_stays_readable(self, tmp_path):
        legacy = DiskCache(tmp_path)
        legacy.put(*row(FP_A)[:6], 0.125)
        legacy.flush()
        legacy.close()
        sharded = ShardedDiskCache(tmp_path, shards=4)
        # Only hits when FP_A routes to shard 0 — but clear() must
        # remove the row wherever it lives.
        removed = sharded.clear()
        assert removed == 1
        sharded.close()


class TestMaintenance:
    def test_stats_aggregates_and_breaks_down(self, cache):
        cache.put_many([row(FP_A, f"c{i}") for i in range(3)])
        cache.flush()
        stats = cache.stats()
        assert stats["shards"] == 4
        assert stats["entries"] == 3
        assert stats["fingerprints"] == 1
        assert stats["exists"] is True
        assert len(stats["per_shard"]) == 4
        assert sum(s["entries"] for s in stats["per_shard"]) == 3

    def test_stats_on_empty_directory(self, tmp_path):
        stats = ShardedDiskCache(tmp_path, shards=2).stats()
        assert stats["exists"] is False
        assert stats["entries"] == 0

    def test_clear_spans_all_shards(self, cache):
        cache.put_many([row(FP_A), row(FP_B, "y")])
        cache.flush()
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0

    def test_compact_reports_sizes(self, cache):
        cache.put_many([row(FP_A, f"c{i}") for i in range(10)])
        cache.flush()
        result = cache.compact()
        assert result["before_bytes"] > 0
        assert result["after_bytes"] > 0
        assert len(result["per_shard"]) == 4

    def test_prune_bounds_total_size(self, tmp_path):
        cache = ShardedDiskCache(tmp_path, shards=2)
        fingerprints = [format(i, "064x") for i in range(6)]
        for fingerprint in fingerprints:
            cache.put_many([row(fingerprint, f"c{i}") for i in range(50)])
            cache.flush()  # one generation per corpus
        cache.compact()  # checkpoint WALs so size_bytes is the real size
        before = cache.stats()["size_bytes"]
        result = cache.prune(before // 4)
        assert result["removed_fingerprints"] >= 1
        assert result["removed_rows"] >= 50
        assert result["size_bytes"] < before
        # Surviving rows still readable.
        cache.close()

    def test_prune_noop_under_budget(self, cache):
        cache.put(*row(FP_A)[:6], 0.5)
        cache.flush()
        result = cache.prune(10 ** 9)
        assert result["removed_rows"] == 0
        assert cache.get(*row(FP_A)[:6]) == 0.5


class TestWorkerContract:
    def test_read_only_fans_out(self, cache):
        cache.read_only = True
        assert all(shard.read_only for shard in cache.shards)
        cache.put(*row(FP_A)[:6], 0.5)
        cache.flush()
        assert cache.get(*row(FP_A)[:6]) is None  # write was dropped
        cache.read_only = False
        assert not any(shard.read_only for shard in cache.shards)

    def test_pickle_round_trip(self, cache):
        cache.put(*row(FP_A)[:6], 0.5)
        cache.flush()
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.shard_count == cache.shard_count
        assert clone.get(*row(FP_A)[:6]) == 0.5
        clone.close()

    def test_quarantined_sums_over_shards(self, cache):
        assert cache.quarantined == 0
