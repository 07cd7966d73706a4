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
over the same corpus warm-starts.  Both tiers use one flat key: the
``(first ontology, first concept, second ontology, second concept)``
string tuple of :meth:`CachedRunner.cache_key`, canonicalized for
symmetric measures *before* either lookup.  The L1 memo is keyed by
it, and it is also the L2 row's column tuple, so no tier re-keys a
pair.  Strings cache their hash, so no lookup runs a Python-level
``__hash__``.

The facade wraps only the runners that the batch kernel
(:mod:`repro.core.kernel`) cannot score: for the graph measures a fresh
kernel score costs less than a lookup in either tier.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.core import telemetry
from repro.core.results import QualifiedConcept
from repro.core.runners import MeasureRunner
from repro.errors import SSTCoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.diskcache import DiskCache

__all__ = ["CachedRunner", "DEFAULT_L1_CAPACITY"]

#: Default L1 entry cap (``--l1-max``).  It bounds memory for matrix
#: runs over large ontologies; the memo table is LRU, so a cap only
#: costs recomputation, never correctness.
DEFAULT_L1_CAPACITY = 100_000


class CachedRunner(MeasureRunner):
    """A memoizing decorator around another runner.

    ``symmetric`` (default True, correct for every bundled measure)
    stores one entry per unordered pair.  Eviction is LRU with a
    configurable capacity.

    The memo table and the hit/miss counters are lock-guarded, so one
    cache can be shared by the request threads of ``sst serve``; the
    underlying measure computation runs outside the lock.  The process
    workers of :mod:`repro.core.parallel` return their per-chunk
    entries and statistics instead, which the parent folds back in via
    :meth:`merge` (which also persists them to the L2, exactly once —
    the workers' own L2 writes are no-ops after a fork).

    ``l2``/``fingerprint`` attach the optional persistent tier; the
    fingerprint (see :func:`repro.core.diskcache.corpus_fingerprint`)
    scopes the on-disk entries to one corpus state.
    """

    def __init__(self, inner: MeasureRunner,
                 capacity: int = DEFAULT_L1_CAPACITY,
                 symmetric: bool = True, l2: "DiskCache | None" = None,
                 fingerprint: str = ""):
        if capacity < 1:
            raise SSTCoreError(
                f"cache capacity must be positive, got {capacity}")
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
             second: QualifiedConcept) -> tuple[str, str, str, str]:
        if self.symmetric and (second.ontology_name, second.concept_name) < (
                first.ontology_name, first.concept_name):
            return (second.ontology_name, second.concept_name,
                    first.ontology_name, first.concept_name)
        return (first.ontology_name, first.concept_name,
                second.ontology_name, second.concept_name)

    def cache_key(self, first: QualifiedConcept,
                  second: QualifiedConcept) -> tuple[str, str, str, str]:
        """The (symmetry-normalized) key of a concept pair.

        ``(first ontology, first concept, second ontology, second
        concept)``; the same tuple keys the L1 memo and the L2 row.
        """
        return self._key(first, second)

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
            stored = self.l2.get(self.fingerprint, self.name, *key)
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
            self.l2.put(self.fingerprint, self.name, *key, value)
        return value

    def _l2_rows(self, entries) -> list[tuple]:
        """The L2 rows of ``(key, value)`` entries, each built once."""
        fingerprint, name = self.fingerprint, self.name
        return [(fingerprint, name, *key, value) for key, value in entries]

    def merge(self, entries, hits: int = 0, misses: int = 0,
              l2_hits: int = 0, l2_misses: int = 0) -> None:
        """Fold a worker's cache delta back into this cache.

        ``entries`` are ``(key, value)`` pairs as produced by
        :meth:`cache_key`; ``hits``/``misses`` (and the L2 pair) are the
        worker's counter deltas.  Used by the process workers of
        :mod:`repro.core.parallel`, each mutating a forked copy of the
        table.
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
