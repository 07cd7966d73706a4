"""Pairwise similarity caching.

SST services like the k-most-similar retrieval and the alignment
matcher recompute many pairwise scores; :class:`CachedRunner` wraps any
:class:`~repro.core.runners.MeasureRunner` with a bounded,
symmetric-aware memo table and hit statistics, so repeated service
calls over the same corpus amortize.

The in-memory memo table is the L1 tier.  An optional
:class:`~repro.core.diskcache.DiskCache` can be attached as a
persistent L2: L1 misses fall through to disk (keyed by the corpus
fingerprint), and fresh scores are written back, so a later process
over the same corpus warm-starts.  The unordered-pair canonicalization
of :meth:`CachedRunner.cache_key` is applied *before* either lookup —
L1 and L2 always agree on the key of a symmetric pair.

The batch path is set-at-a-time: :meth:`CachedRunner.bulk_lookup`
sends every distinct L1 miss of a kernel batch to the L2 in one
:meth:`~repro.core.diskcache.DiskCache.get_many` call, and
:meth:`CachedRunner.bulk_store` builds each L2 row once.  Single pairs
(:meth:`CachedRunner.run`) keep the one-row lookup.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.core import telemetry
from repro.core.results import QualifiedConcept
from repro.core.runners import MeasureRunner
from repro.errors import SSTCoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.diskcache import DiskCache

__all__ = ["CachedRunner", "L1_MAX_ENV", "default_l1_capacity"]

#: Environment variable capping the in-memory L1 tier (``--l1-max``).
L1_MAX_ENV = "SST_L1_MAX"

#: Default L1 entry cap when neither the environment nor the caller
#: chooses one.
DEFAULT_L1_CAPACITY = 100_000


def default_l1_capacity() -> int:
    """The L1 entry cap: ``SST_L1_MAX`` or 100 000.

    Bounds memory for matrix runs over large ontologies — the memo
    table is LRU, so a cap only costs recomputation, never correctness.
    """
    raw = os.environ.get(L1_MAX_ENV, "").strip()
    if not raw:
        return DEFAULT_L1_CAPACITY
    try:
        capacity = int(raw)
    except ValueError:
        raise SSTCoreError(
            f"invalid {L1_MAX_ENV} value {raw!r}; expected an integer")
    if capacity < 1:
        raise SSTCoreError(
            f"{L1_MAX_ENV} must be positive, got {capacity}")
    return capacity


class CachedRunner(MeasureRunner):
    """A memoizing decorator around another runner.

    ``symmetric`` (default True, correct for every bundled measure)
    stores one entry per unordered pair.  Eviction is LRU with a
    configurable capacity.

    The memo table and the hit/miss counters are lock-guarded, so one
    cache can be shared by the thread-backed strategy of
    :mod:`repro.core.parallel`; the underlying measure computation runs
    outside the lock.  Process-backed workers return their per-chunk
    entries and statistics instead, which the parent folds back in via
    :meth:`merge` (which also persists them to the L2, exactly once —
    the workers' own L2 writes are no-ops after a fork).

    ``l2``/``fingerprint`` attach the optional persistent tier; the
    fingerprint (see :func:`repro.core.diskcache.corpus_fingerprint`)
    scopes the on-disk entries to one corpus state.
    """

    def __init__(self, inner: MeasureRunner, capacity: int | None = None,
                 symmetric: bool = True, l2: "DiskCache | None" = None,
                 fingerprint: str = ""):
        if capacity is None:
            capacity = default_l1_capacity()
        if capacity < 1:
            raise SSTCoreError("cache capacity must be positive")
        super().__init__(inner.wrapper)
        self.inner = inner
        self.name = inner.name
        self.description = inner.description
        self.capacity = capacity
        self.symmetric = symmetric
        self.l2 = l2
        self.fingerprint = fingerprint
        self.hits = 0
        self.misses = 0
        self.l2_hits = 0
        self.l2_misses = 0
        self._table: OrderedDict[tuple, float] = OrderedDict()
        self._lock = threading.RLock()

    def _key(self, first: QualifiedConcept,
             second: QualifiedConcept) -> tuple:
        if self.symmetric and (second.ontology_name,
                               second.concept_name) < (
                                   first.ontology_name,
                                   first.concept_name):
            return (second, first)
        return (first, second)

    def cache_key(self, first: QualifiedConcept,
                  second: QualifiedConcept) -> tuple:
        """The (symmetry-normalized) memo key of a concept pair."""
        return self._key(first, second)

    @staticmethod
    def _l2_columns(key: tuple) -> tuple[str, str, str, str]:
        first, second = key
        return (first.ontology_name, first.concept_name,
                second.ontology_name, second.concept_name)

    def run(self, first: QualifiedConcept,
            second: QualifiedConcept) -> float:
        # Canonicalize once, before *any* tier is consulted: L1 and L2
        # share the same unordered-pair key for symmetric measures.
        key = self._key(first, second)
        with self._lock:
            cached = self._table.get(key)
            if cached is not None:
                self.hits += 1
                self._table.move_to_end(key)
                telemetry.count("cache.l1.hits")
                return cached
            self.misses += 1
        telemetry.count("cache.l1.misses")
        if self.l2 is not None:
            stored = self.l2.get(self.fingerprint, self.name,
                                 *self._l2_columns(key))
            with self._lock:
                if stored is not None:
                    self.l2_hits += 1
                    self._table[key] = stored
                    while len(self._table) > self.capacity:
                        self._table.popitem(last=False)
                else:
                    self.l2_misses += 1
            if stored is not None:
                telemetry.count("cache.l2.hits")
                telemetry.count("cache.l1.stores")
                return stored
            telemetry.count("cache.l2.misses")
        # Compute outside the lock; two threads racing on the same cold
        # key both compute the (identical) value, which is harmless.
        value = self.inner.run(first, second)
        with self._lock:
            self._table[key] = value
            while len(self._table) > self.capacity:
                self._table.popitem(last=False)
        telemetry.count("cache.l1.stores")
        if self.l2 is not None:
            self.l2.put(self.fingerprint, self.name,
                        *self._l2_columns(key), value)
        return value

    def bulk_lookup(self, pairs):
        """Serve a whole batch of pairs from the L1/L2 tiers at once.

        Returns ``(values, pending)``: ``values`` has one slot per
        input pair (``None`` where no tier had it), and ``pending``
        maps each *distinct* missing cache key to the positions it
        must fill.  The caller computes the pending keys (one kernel
        batch), then hands ``(key, value)`` pairs to
        :meth:`bulk_store`.  All distinct L1 misses go to the L2 in
        one batched read.

        Counter bookkeeping is per-pair-equivalent: every pair counts
        exactly one L1 hit or miss, and every distinct missing key
        exactly one L2 hit or miss — duplicate occurrences of a
        missing key count as L1 *hits*, just as the sequential
        per-pair loop (which stores the first occurrence before
        looking up the second) would have counted them.
        """
        values: list[float | None] = [None] * len(pairs)
        pending: dict[tuple, list[int]] = {}
        l1_hits = l1_misses = 0
        with self._lock:
            for position, (first, second) in enumerate(pairs):
                key = self._key(first, second)
                cached = self._table.get(key)
                if cached is not None:
                    self.hits += 1
                    l1_hits += 1
                    self._table.move_to_end(key)
                    values[position] = cached
                elif key in pending:
                    self.hits += 1
                    l1_hits += 1
                    pending[key].append(position)
                else:
                    self.misses += 1
                    l1_misses += 1
                    pending[key] = [position]
        if l1_hits:
            telemetry.count("cache.l1.hits", l1_hits)
        if l1_misses:
            telemetry.count("cache.l1.misses", l1_misses)
        if self.l2 is not None and pending:
            # One set-at-a-time L2 read for every distinct missing key.
            by_columns = {self._l2_columns(key): key for key in pending}
            stored = self.l2.get_many(self.fingerprint, self.name,
                                      by_columns)
            l2_hits = len(stored)
            l2_misses = len(by_columns) - l2_hits
            with self._lock:
                self.l2_hits += l2_hits
                self.l2_misses += l2_misses
                for columns, value in stored.items():
                    key = by_columns[columns]
                    self._table[key] = value
                    for position in pending.pop(key):
                        values[position] = value
                while len(self._table) > self.capacity:
                    self._table.popitem(last=False)
            if l2_hits:
                telemetry.count("cache.l2.hits", l2_hits)
                telemetry.count("cache.l1.stores", l2_hits)
            if l2_misses:
                telemetry.count("cache.l2.misses", l2_misses)
        return values, pending

    def bulk_store(self, entries) -> None:
        """Store freshly computed ``(key, value)`` pairs in both tiers.

        The batch-side counterpart of the store half of :meth:`run`:
        one ``cache.l1.stores`` per entry, and the same L2 ``put``
        semantics (buffered in the parent, silently dropped in forked
        read-only workers — whose entries the parent re-stores via
        :meth:`merge`, the single L2 writer).
        """
        entries = list(entries)
        if not entries:
            return
        with self._lock:
            self._table.update(entries)
            while len(self._table) > self.capacity:
                self._table.popitem(last=False)
        telemetry.count("cache.l1.stores", len(entries))
        if self.l2 is not None:
            self.l2.put_many(self._l2_rows(entries))

    def _l2_rows(self, entries) -> list[tuple]:
        """The L2 rows of ``(key, value)`` entries, each built once."""
        fingerprint, name = self.fingerprint, self.name
        return [(fingerprint, name, first.ontology_name, first.concept_name,
                 second.ontology_name, second.concept_name, value)
                for (first, second), value in entries]

    def merge(self, entries, hits: int = 0, misses: int = 0,
              l2_hits: int = 0, l2_misses: int = 0) -> None:
        """Fold a worker's cache delta back into this cache.

        ``entries`` are ``(key, value)`` pairs as produced by
        :meth:`cache_key`; ``hits``/``misses`` (and the L2 pair) are the
        worker's counter deltas.  Used by the process-backed parallel
        strategy, whose workers each mutate a forked copy of the table.
        Merged entries are also persisted to the L2 here — the workers'
        own ``put`` calls are dropped after a fork, so this is the
        single writer.  Telemetry counters are *not* touched: workers
        ship those through their own telemetry delta
        (:mod:`repro.core.telemetry`), keeping both books identical.
        """
        entries = list(entries)
        with self._lock:
            for key, value in entries:
                self._table[key] = value
                self._table.move_to_end(key)
            while len(self._table) > self.capacity:
                self._table.popitem(last=False)
            self.hits += hits
            self.misses += misses
            self.l2_hits += l2_hits
            self.l2_misses += l2_misses
        if self.l2 is not None:
            self.l2.put_many(self._l2_rows(entries))

    def flush(self) -> None:
        """Persist any scores still buffered in the L2 tier."""
        if self.l2 is not None:
            self.l2.flush()

    def __len__(self) -> int:
        with self._lock:
            return len(self._table)

    def __getstate__(self) -> dict:
        # Locks cannot cross process boundaries; each copy gets its own.
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def is_normalized(self) -> bool:
        return self.inner.is_normalized()

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the L1 cache."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    @property
    def l2_hit_rate(self) -> float:
        """Fraction of L1 misses served from the persistent tier."""
        total = self.l2_hits + self.l2_misses
        if total == 0:
            return 0.0
        return self.l2_hits / total

    def clear(self) -> None:
        """Drop all cached L1 entries and reset statistics."""
        with self._lock:
            self._table.clear()
            self.hits = 0
            self.misses = 0
            self.l2_hits = 0
            self.l2_misses = 0
