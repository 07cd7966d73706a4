"""Fingerprint-sharded persistent L2 score cache.

One sqlite file serializes every reader and writer behind a single
WAL, and grows without bound as corpora accumulate.  This module
spreads the L2 across ``N`` shard databases routed by corpus
fingerprint: a fingerprint's rows all live in exactly one shard, so
concurrent runs over different corpora touch different files, a prune
of one corpus never rewrites the others, and each shard stays small
enough that ``VACUUM`` is cheap.

Shard 0 keeps the historical single-file name
(``similarity-cache.sqlite``), so a cache directory written before
sharding existed keeps serving hits for every fingerprint that routes
to shard 0, and a one-shard configuration is byte-compatible with the
old layout.  Routing uses ``crc32`` over the fingerprint text — stable
across processes and Python versions (never ``hash()``, which is
salted per process).

Every shard is a full :class:`~repro.core.diskcache.DiskCache`, so the
self-healing contract — quarantine on corruption, circuit-breaker
fail-open, fork/pickle safety — extends shard by shard: one scribbled
shard file costs only that shard's warm start.
"""

from __future__ import annotations

import os
import zlib
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterable

from repro.core.diskcache import DiskCache, default_cache_directory
from repro.errors import SSTCoreError

__all__ = ["DEFAULT_SHARDS", "SHARDS_ENV", "ShardedDiskCache",
           "resolve_shard_count", "shard_filename"]

#: Environment variable overriding the shard count (min 1).
SHARDS_ENV = "SST_CACHE_SHARDS"

#: Default number of shard databases.
DEFAULT_SHARDS = 4


def resolve_shard_count(shards: int | None = None) -> int:
    """The effective shard count: argument, ``SST_CACHE_SHARDS``, or
    the default — clamped to at least one shard."""
    if shards is None:
        raw = os.environ.get(SHARDS_ENV, "").strip()
        if not raw:
            return DEFAULT_SHARDS
        try:
            shards = int(raw)
        except ValueError:
            raise SSTCoreError(
                f"{SHARDS_ENV} must be an integer, got {raw!r}") from None
    return max(1, int(shards))


def shard_filename(index: int) -> str:
    """Shard ``index``'s database filename; 0 is the legacy name."""
    if index == 0:
        return "similarity-cache.sqlite"
    return f"similarity-cache-{index}.sqlite"


class ShardedDiskCache:
    """N fingerprint-routed :class:`DiskCache` shards behind one API.

    Implements the same surface :class:`~repro.core.cache.CachedRunner`
    and the parallel engine use on a single ``DiskCache`` — ``get`` /
    ``get_many`` / ``put`` / ``put_many`` / ``flush`` / ``close`` /
    ``clear`` / ``stats`` / ``read_only`` — plus directory-wide
    ``compact`` and size-bounded ``prune``.  Pickling (for
    process-strategy worker initargs) delegates to the shards, which
    reconnect lazily per process.
    """

    def __init__(self, directory: str | Path | None = None,
                 shards: int | None = None):
        self.directory = (Path(directory).expanduser()
                          if directory is not None
                          else default_cache_directory())
        self.shard_count = resolve_shard_count(shards)
        self.shards = [DiskCache(self.directory, filename=shard_filename(i))
                       for i in range(self.shard_count)]

    @property
    def path(self) -> Path:
        """The cache directory (the user-facing location of the L2)."""
        return self.directory

    def shard_for(self, fingerprint: str) -> DiskCache:
        """The shard holding every row of ``fingerprint``."""
        index = zlib.crc32(fingerprint.encode()) % self.shard_count
        return self.shards[index]

    # -- read-only fan-out (parallel workers) -------------------------------------

    @property
    def read_only(self) -> bool:
        return self.shards[0].read_only

    @read_only.setter
    def read_only(self, value: bool) -> None:
        for shard in self.shards:
            shard.read_only = value

    @property
    def quarantined(self) -> int:
        """Shard files quarantined by this instance (diagnostics)."""
        return sum(shard.quarantined for shard in self.shards)

    # -- scores -------------------------------------------------------------------

    def get(self, fingerprint: str, measure: str,
            first_ontology: str, first_concept: str,
            second_ontology: str, second_concept: str) -> float | None:
        return self.shard_for(fingerprint).get(
            fingerprint, measure, first_ontology, first_concept,
            second_ontology, second_concept)

    def get_many(self, fingerprint: str, measure: str,
                 keys: Iterable[tuple[str, str, str, str]],
                 ) -> dict[tuple[str, str, str, str], float]:
        return self.shard_for(fingerprint).get_many(fingerprint, measure, keys)

    def put(self, fingerprint: str, measure: str,
            first_ontology: str, first_concept: str,
            second_ontology: str, second_concept: str,
            value: float) -> None:
        self.shard_for(fingerprint).put(
            fingerprint, measure, first_ontology, first_concept,
            second_ontology, second_concept, value)

    def put_many(self, rows: Iterable[tuple[str, str, str, str, str, str,
                                            float]]) -> None:
        # Routed once per run of rows sharing a fingerprint (a cache's
        # whole batch is one run), not once per row.
        for fingerprint, run in groupby(rows, key=itemgetter(0)):
            self.shard_for(fingerprint).put_many(run)

    def flush(self) -> int:
        return sum(shard.flush() for shard in self.shards)

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    # -- maintenance --------------------------------------------------------------

    def stats(self) -> dict:
        """Aggregate counts plus the per-shard breakdown."""
        per_shard = [shard.stats() for shard in self.shards]
        return {
            "path": str(self.directory),
            "shards": self.shard_count,
            "exists": any(s.get("exists") for s in per_shard),
            "entries": sum(s["entries"] for s in per_shard),
            "fingerprints": sum(s["fingerprints"] for s in per_shard),
            "measures": max((s["measures"] for s in per_shard), default=0),
            "size_bytes": sum(s["size_bytes"] for s in per_shard),
            "pending": sum(s["pending"] for s in per_shard),
            "per_shard": per_shard,
        }

    def clear(self, fingerprint: str | None = None) -> int:
        # Clear every shard even for a single fingerprint: rows written
        # before sharding (or under a different shard count) may live
        # off their current route.
        return sum(shard.clear(fingerprint) for shard in self.shards)

    def compact(self) -> dict:
        """Compact every shard; returns aggregate and per-shard sizes."""
        per_shard = [shard.compact() for shard in self.shards]
        return {
            "path": str(self.directory),
            "before_bytes": sum(s["before_bytes"] for s in per_shard),
            "after_bytes": sum(s["after_bytes"] for s in per_shard),
            "per_shard": per_shard,
        }

    def prune(self, max_bytes: int) -> dict:
        """Bound the whole directory to ``max_bytes``.

        The budget splits evenly across shards — routing spreads
        fingerprints uniformly, so even shares converge on the bound
        without cross-shard coordination.
        """
        budget = max(0, int(max_bytes)) // self.shard_count
        per_shard = [shard.prune(budget) for shard in self.shards]
        return {
            "path": str(self.directory),
            "removed_rows": sum(s["removed_rows"] for s in per_shard),
            "removed_fingerprints": sum(s["removed_fingerprints"]
                                        for s in per_shard),
            "size_bytes": sum(s["size_bytes"] for s in per_shard),
            "per_shard": per_shard,
        }
