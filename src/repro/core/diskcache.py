"""Persistent on-disk similarity cache (the L2 behind ``CachedRunner``).

PR 2 parallelized a single invocation; this module amortizes work
*across* invocations.  Scores are persisted to a small sqlite database
keyed by ``(corpus fingerprint, measure name, unordered concept pair)``
so a second ``sst matrix``/``ksim``/``align`` run over the same corpus
warm-starts from disk.  The fingerprint is a SHA-256 over the canonical
meta-model serialization of every loaded ontology plus the tree
strategy, so editing any ontology (or switching strategies) invalidates
its entries without touching the others — stale rows are simply never
read again and can be dropped with ``sst cache clear``.

Concurrency: one connection per process (re-opened lazily after a
``fork``), WAL journaling so parallel CLI runs can share the file, and
buffered writes flushed in batches.  Forked process-strategy workers
treat the cache as read-only — their fresh scores travel back to the
parent through the existing ``CachedRunner.merge`` delta path, and the
parent persists them exactly once.

Reads are set-at-a-time on the batch path: :meth:`DiskCache.get_many`
answers a whole kernel batch's misses with one primary-key join per
chunk of keys, while single-pair lookups keep the one-row
:meth:`DiskCache.get`.

Self-healing: an L2 problem must never fail a run — at worst it costs
the warm start.  A corrupt, truncated or schema-mismatched sqlite file
(``sqlite3.DatabaseError`` on open, a foreign ``PRAGMA user_version``)
is *quarantined* — renamed to ``similarity-cache.sqlite.corrupt-<n>``
for post-mortems, counted as ``cache.l2.quarantined`` — and a fresh
database is built in its place.  Corruption surfacing mid-run heals the
same way on the next access.  Repeated failures trip a
:class:`~repro.core.resilience.CircuitBreaker` and the cache *fails
open*: reads miss, writes drop, scores are simply computed without the
persistent tier (``cache.l2.failopen``) until the breaker's probe
succeeds again.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sqlite3
import threading
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.core import resilience, telemetry
from repro.errors import SSTCoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.soqa.api import SOQA

__all__ = ["CACHE_DIR_ENV", "DiskCache", "corpus_fingerprint",
           "default_cache_directory"]

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "SST_CACHE_DIR"

#: Environment variable disabling both cache tiers in the CLI.
NO_CACHE_ENV = "SST_NO_CACHE"

#: Bump to invalidate every existing cache file on format changes.
_SCHEMA_VERSION = 1

#: Buffered writes are flushed automatically past this many rows.
_FLUSH_THRESHOLD = 256

_FINGERPRINT_FORMAT = "sst-corpus-fingerprint/2"

#: Keys per batched read statement: four bound parameters each, well
#: under sqlite's historical 999-parameter limit.
_PROBE_CHUNK = 200


@functools.lru_cache(maxsize=4)
def _probe_sql(rows: int) -> str:
    """The batched-read statement for ``rows`` probe keys.

    Probe row ``i`` carries its chunk-local position as a literal, so
    every full chunk shares one statement text (and sqlite's statement
    cache) and results map back to keys without re-hashing them.
    """
    probes = ",".join(f"({i},?,?,?,?)" for i in range(rows))
    return (f"WITH probe(i, a, b, c, d) AS (VALUES {probes})"
            " SELECT probe.i, s.value FROM probe CROSS JOIN similarity AS s"
            f" ON s.schema_version={_SCHEMA_VERSION}"
            " AND s.fingerprint=? AND s.measure=?"
            " AND s.first_ontology=probe.a AND s.first_concept=probe.b"
            " AND s.second_ontology=probe.c AND s.second_concept=probe.d")


def default_cache_directory() -> Path:
    """``$SST_CACHE_DIR``, else ``$XDG_CACHE_HOME/sst``, else ``~/.cache/sst``."""
    override = os.environ.get(CACHE_DIR_ENV, "").strip()
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "sst"


def caching_disabled() -> bool:
    """Whether ``SST_NO_CACHE`` asks for cold, uncached runs."""
    return os.environ.get(NO_CACHE_ENV, "").strip() not in ("", "0")


def corpus_fingerprint(soqa: "SOQA", strategy: str) -> str:
    """Content hash of every loaded ontology plus the tree strategy.

    Built from each ontology's canonical meta-model content digest
    (names, subsumptions, attributes, methods, relationships, instances,
    documentation), so any visible content change yields a new
    fingerprint while reloading identical files keeps the old one.
    Store-backed ontologies persisted their digest at import time, so
    fingerprinting a 100k-synset corpus costs one row read instead of a
    full serialization.
    """
    digest = hashlib.sha256()
    digest.update(f"{_FINGERPRINT_FORMAT}:{strategy}".encode())
    for name in sorted(soqa.ontology_names()):
        digest.update(b"\x00")
        digest.update(name.encode())
        digest.update(b"\x00")
        digest.update(soqa.ontology(name).content_digest().encode())
    return digest.hexdigest()


class DiskCache:
    """Sqlite-backed persistent score store.

    Values are keyed by ``(fingerprint, measure, first ontology, first
    concept, second ontology, second concept)`` where the pair is
    already canonicalized by :meth:`CachedRunner._key` — symmetric
    measures therefore share one row per unordered pair on disk too.

    ``put`` buffers rows and :meth:`flush` writes them in one
    transaction; a threshold flush keeps long-running sessions bounded.
    The instance is fork- and pickle-safe: connections are opened lazily
    per process and forked children never write (the parent persists
    their merged deltas).
    """

    def __init__(self, directory: str | Path | None = None,
                 filename: str | None = None):
        self.directory = (Path(directory).expanduser() if directory is not None
                          else default_cache_directory())
        # ``filename`` lets ShardedDiskCache run one DiskCache per
        # shard file; the default keeps the historical single-file name
        # (which doubles as shard 0, so old caches stay warm).
        self.path = self.directory / (filename or "similarity-cache.sqlite")
        self._lock = threading.Lock()
        self._connection: sqlite3.Connection | None = None
        self._owner_pid = os.getpid()
        self._pending: list[tuple[str, str, str, str, str, str, float]] = []
        #: Writes (and their telemetry) are dropped while True.  The
        #: parallel engine marks worker-side caches read-only: worker
        #: scores are persisted exactly once, by the parent's merge.
        self.read_only = False
        #: Trips after repeated L2 failures; while open the cache fails
        #: open (reads miss, writes drop) instead of hammering a broken
        #: file or disk.
        self.breaker = resilience.CircuitBreaker(
            failure_threshold=3, reset_timeout=30.0, name="cache.l2")
        #: Files quarantined by this instance (for tests/diagnostics).
        self.quarantined = 0

    # -- connection management ----------------------------------------------------

    def _open(self) -> sqlite3.Connection:
        """Open and validate a connection; ``sqlite3.DatabaseError``
        signals an unusable (corrupt or foreign-schema) file."""
        connection = sqlite3.connect(str(self.path),
                                     check_same_thread=False,
                                     timeout=30.0)
        try:
            # The first statement forces sqlite to actually read the
            # file header — a truncated or scribbled-over database
            # surfaces here as DatabaseError instead of lurking until
            # the first query.
            version = connection.execute(
                "PRAGMA user_version").fetchone()[0]
            if version not in (0, _SCHEMA_VERSION):
                raise sqlite3.DatabaseError(
                    f"disk cache schema version {version} does not match "
                    f"expected {_SCHEMA_VERSION}")
            try:
                connection.execute("PRAGMA journal_mode=WAL")
                connection.execute("PRAGMA synchronous=NORMAL")
            except sqlite3.Error:
                pass  # journaling hints only; defaults still work
            connection.execute(
                "CREATE TABLE IF NOT EXISTS similarity ("
                " schema_version INTEGER NOT NULL,"
                " fingerprint TEXT NOT NULL,"
                " measure TEXT NOT NULL,"
                " first_ontology TEXT NOT NULL,"
                " first_concept TEXT NOT NULL,"
                " second_ontology TEXT NOT NULL,"
                " second_concept TEXT NOT NULL,"
                " value REAL NOT NULL,"
                " PRIMARY KEY (schema_version, fingerprint, measure,"
                "  first_ontology, first_concept,"
                "  second_ontology, second_concept))")
            # Write-recency bookkeeping for size-bounded eviction: a
            # monotonic generation counter (never wall-clock — pruning
            # order must be reproducible) bumped per flushed
            # fingerprint.  CREATE IF NOT EXISTS retrofits the table
            # onto pre-existing cache files without a schema bump.
            connection.execute(
                "CREATE TABLE IF NOT EXISTS fingerprint_meta ("
                " schema_version INTEGER NOT NULL,"
                " fingerprint TEXT NOT NULL,"
                " generation INTEGER NOT NULL,"
                " PRIMARY KEY (schema_version, fingerprint))")
            if version == 0:
                connection.execute(
                    f"PRAGMA user_version = {_SCHEMA_VERSION}")
            connection.commit()
        except BaseException:
            connection.close()
            raise
        return connection

    def _quarantine(self) -> Path | None:
        """Move the unusable database aside and drop its WAL sidecars.

        The file is renamed to the first free ``*.corrupt-<n>`` so the
        evidence survives for a post-mortem while a fresh database can
        be built under the canonical path.
        """
        if not self.path.exists():
            return None
        n = 1
        while True:
            candidate = self.path.with_name(f"{self.path.name}.corrupt-{n}")
            if not candidate.exists():
                break
            n += 1
        os.replace(self.path, candidate)
        for suffix in ("-wal", "-shm"):
            sidecar = self.path.with_name(self.path.name + suffix)
            try:
                sidecar.unlink()
            except OSError:
                pass
        self.quarantined += 1
        telemetry.count("cache.l2.quarantined")
        return candidate

    def _connect(self) -> sqlite3.Connection:
        """The calling process's connection, opened on first use.

        A corrupt or schema-mismatched file is quarantined and rebuilt
        once; only a failure of the *rebuild* (or plain IO trouble)
        raises.
        """
        pid = os.getpid()
        if self._connection is None or pid != self._owner_pid:
            if pid != self._owner_pid:
                # Forked child: the inherited handle and write buffer
                # belong to the parent.  Reads reconnect; writes no-op.
                self._connection = None  # sst: disable=unlocked-shared-state
                self._pending = []  # sst: disable=unlocked-shared-state
                self._owner_pid = pid
            if resilience.maybe_fire("cache.corrupt") is not None:
                self._scribble()
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
                try:
                    connection = self._open()
                except sqlite3.DatabaseError:
                    self._quarantine()
                    connection = self._open()
            except (OSError, sqlite3.Error) as error:
                raise SSTCoreError(
                    f"cannot open disk cache at {self.path}: {error}"
                ) from error
            # Callers hold self._lock; the analyzer cannot see that.
            self._connection = connection  # sst: disable=unlocked-shared-state
        return self._connection

    def _scribble(self) -> None:
        """Deterministically corrupt the database file (fault site
        ``cache.corrupt``): overwrite the sqlite header with garbage and
        drop the WAL sidecars, exactly what a torn write or bad sector
        leaves behind.  (With the sidecars intact sqlite would silently
        recover page 1 from the journal and the fault would not bite.)"""
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            # Deliberately non-atomic: the whole point is a torn write.
            with open(self.path, "wb") as handle:  # sst: disable=nonatomic-write
                handle.write(b"this is no longer a sqlite database\0" * 8)
        except OSError:
            pass
        for suffix in ("-wal", "-shm"):
            try:
                self.path.with_name(self.path.name + suffix).unlink()
            except OSError:
                pass

    def _heal(self) -> None:
        """React to a ``DatabaseError`` on a live connection: drop the
        handle and quarantine the file, so the next access rebuilds.
        Callers hold ``self._lock``."""
        self.breaker.record_failure()
        if self._connection is not None:
            try:
                self._connection.close()
            except sqlite3.Error:
                pass
            self._connection = None  # sst: disable=unlocked-shared-state
        try:
            self._quarantine()
        except OSError:
            pass

    def close(self) -> None:
        """Flush pending writes and close this process's connection."""
        self.flush()
        with self._lock:
            if (self._connection is not None
                    and os.getpid() == self._owner_pid):
                self._connection.close()
            self._connection = None

    # -- pickling / forking -------------------------------------------------------

    def __getstate__(self) -> dict:
        return {"directory": self.directory, "path": self.path,
                "read_only": self.read_only}

    def __setstate__(self, state: dict) -> None:
        self.directory = state["directory"]
        self.path = state["path"]
        self._lock = threading.Lock()
        self._connection = None
        self._owner_pid = os.getpid()
        self._pending = []
        self.read_only = state.get("read_only", False)
        self.breaker = resilience.CircuitBreaker(
            failure_threshold=3, reset_timeout=30.0, name="cache.l2")
        self.quarantined = 0

    # -- reads --------------------------------------------------------------------

    def get(self, fingerprint: str, measure: str,
            first_ontology: str, first_concept: str,
            second_ontology: str, second_concept: str) -> float | None:
        """The stored score for a canonicalized pair, or ``None``.

        Fails open: while the breaker is tripped (or on any error) the
        lookup reports a miss and the score is simply recomputed.
        """
        if not self.breaker.allow():
            telemetry.count("cache.l2.failopen")
            return None
        with self._lock:
            try:
                cursor = self._connect().execute(
                    "SELECT value FROM similarity WHERE schema_version=?"
                    " AND fingerprint=? AND measure=?"
                    " AND first_ontology=? AND first_concept=?"
                    " AND second_ontology=? AND second_concept=?",
                    (_SCHEMA_VERSION, fingerprint, measure,
                     first_ontology, first_concept,
                     second_ontology, second_concept))
                row = cursor.fetchone()
            except sqlite3.DatabaseError:
                self._heal()  # quarantine now; next access rebuilds
                return None
            except (SSTCoreError, sqlite3.Error):
                self.breaker.record_failure()
                return None  # a broken cache must never break scoring
        self.breaker.record_success()
        return row[0] if row is not None else None

    def get_many(self, fingerprint: str, measure: str,
                 keys: Iterable[tuple[str, str, str, str]],
                 ) -> dict[tuple[str, str, str, str], float]:
        """The stored scores of many canonicalized pairs at once.

        ``keys`` are ``(first ontology, first concept, second ontology,
        second concept)`` tuples; the result maps each key that has a
        row to its score (misses are simply absent).  One statement
        per chunk of :data:`_PROBE_CHUNK` keys joins the probe rows
        against the primary key; the ``CROSS JOIN`` pins the probe as
        the outer loop, so each probe costs one index search however
        large the table grows.  Same fail-open contract as :meth:`get`:
        any error reads as all misses.
        """
        keys = list(keys)
        if not keys:
            return {}
        if not self.breaker.allow():
            telemetry.count("cache.l2.failopen")
            return {}
        found: dict[tuple[str, str, str, str], float] = {}
        with self._lock:
            try:
                connection = self._connect()
                for start in range(0, len(keys), _PROBE_CHUNK):
                    chunk = keys[start:start + _PROBE_CHUNK]
                    parameters = list(chain.from_iterable(chunk))
                    parameters += (fingerprint, measure)
                    for index, value in connection.execute(
                            _probe_sql(len(chunk)), parameters):
                        found[chunk[index]] = value
            except sqlite3.DatabaseError:
                self._heal()  # quarantine now; next access rebuilds
                return {}
            except (SSTCoreError, sqlite3.Error):
                self.breaker.record_failure()
                return {}  # a broken cache must never break scoring
        self.breaker.record_success()
        return found

    # -- writes -------------------------------------------------------------------

    def put(self, fingerprint: str, measure: str,
            first_ontology: str, first_concept: str,
            second_ontology: str, second_concept: str,
            value: float) -> None:
        """Buffer one score for the next :meth:`flush`.

        No-op in read-only mode and in forked children — the parent
        persists their scores via the ``CachedRunner.merge`` delta
        instead, exactly once.
        """
        if self.read_only or os.getpid() != self._owner_pid:
            return
        with self._lock:
            self._pending.append((fingerprint, measure,
                                  first_ontology, first_concept,
                                  second_ontology, second_concept,
                                  float(value)))
            should_flush = len(self._pending) >= _FLUSH_THRESHOLD
        telemetry.count("cache.l2.stores")
        if should_flush:
            self.flush()

    def put_many(self, rows: Iterable[tuple[str, str, str, str, str, str,
                                            float]]) -> None:
        """Buffer many ``(fingerprint, measure, pair..., value)`` rows.

        The tuples are buffered and flushed as given, so callers build
        each row once.
        """
        if self.read_only or os.getpid() != self._owner_pid:
            return
        with self._lock:
            before = len(self._pending)
            self._pending.extend(rows)
            added = len(self._pending) - before
            should_flush = len(self._pending) >= _FLUSH_THRESHOLD
        if added:
            telemetry.count("cache.l2.stores", added)
        if should_flush:
            self.flush()

    def flush(self) -> int:
        """Write buffered rows in one transaction; returns the row count.

        Fails open: with the breaker tripped (or on any write error)
        the buffered rows are dropped — losing a warm-start is fine,
        failing a run is not.
        """
        if self.read_only or os.getpid() != self._owner_pid:
            return 0
        if not self.breaker.allow():
            with self._lock:
                dropped = len(self._pending)
                self._pending = []
            if dropped:
                telemetry.count("cache.l2.failopen")
            return 0
        with telemetry.span("diskcache.flush"), self._lock:
            if not self._pending:
                return 0
            rows, self._pending = self._pending, []
            try:
                connection = self._connect()
                # Buffered rows go in as built: the schema version is a
                # literal, not a column prepended to every row.
                connection.executemany(
                    "INSERT OR REPLACE INTO similarity VALUES"
                    f" ({_SCHEMA_VERSION}, ?, ?, ?, ?, ?, ?, ?)", rows)
                # Mark every flushed fingerprint as most recently
                # written, all with the same fresh generation.
                touched = sorted(set(map(itemgetter(0), rows)))
                (generation,) = connection.execute(
                    "SELECT COALESCE(MAX(generation), 0)"
                    " FROM fingerprint_meta WHERE schema_version=?",
                    (_SCHEMA_VERSION,)).fetchone()
                connection.executemany(
                    "INSERT OR REPLACE INTO fingerprint_meta"
                    " VALUES (?, ?, ?)",
                    [(_SCHEMA_VERSION, fingerprint, generation + 1)
                     for fingerprint in touched])
                connection.commit()
            except sqlite3.DatabaseError:
                self._heal()
                return 0
            except (SSTCoreError, sqlite3.Error):
                self.breaker.record_failure()
                return 0  # losing a warm-start is fine; failing a run is not
        self.breaker.record_success()
        telemetry.count("cache.l2.flushed_rows", len(rows))
        return len(rows)

    # -- maintenance --------------------------------------------------------------

    def stats(self) -> dict:
        """Entry/fingerprint/measure counts and the on-disk size."""
        with self._lock:
            pending = len(self._pending)
        if not self.path.exists():
            return {"path": str(self.path), "exists": False, "entries": 0,
                    "fingerprints": 0, "measures": 0, "size_bytes": 0,
                    "pending": pending}
        with self._lock:
            connection = self._connect()
            entries = connection.execute(
                "SELECT COUNT(*) FROM similarity").fetchone()[0]
            fingerprints = connection.execute(
                "SELECT COUNT(DISTINCT fingerprint) FROM similarity"
            ).fetchone()[0]
            measures = connection.execute(
                "SELECT COUNT(DISTINCT measure) FROM similarity"
            ).fetchone()[0]
        return {"path": str(self.path), "exists": True, "entries": entries,
                "fingerprints": fingerprints, "measures": measures,
                "size_bytes": self.path.stat().st_size, "pending": pending}

    def compact(self) -> dict:
        """Flush, checkpoint the WAL and ``VACUUM``; returns sizes.

        Deleting rows never shrinks a sqlite file on its own — pages
        just go on the freelist — so maintenance runs (``sst cache
        compact``) reclaim the space explicitly.
        """
        self.flush()
        if not self.path.exists():
            return {"path": str(self.path), "before_bytes": 0,
                    "after_bytes": 0}
        with self._lock:
            before = self.path.stat().st_size
            connection = self._connect()
            try:
                connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:
                pass  # checkpointing is best-effort; VACUUM still helps
            connection.execute("VACUUM")
            after = self.path.stat().st_size
        telemetry.count("cache.l2.compactions")
        return {"path": str(self.path), "before_bytes": before,
                "after_bytes": after}

    def prune(self, max_bytes: int) -> dict:
        """Evict fingerprints, least recently written first, until the
        file fits in ``max_bytes``; returns what was removed.

        Eviction is whole-fingerprint — a corpus warm start is only
        useful complete — ordered by the monotonic write generation
        (ties broken by fingerprint for reproducibility), with a
        ``VACUUM`` after each eviction so the size check sees reclaimed
        space.
        """
        self.flush()
        removed_rows = 0
        removed_fingerprints = 0
        if not self.path.exists():
            return {"path": str(self.path), "removed_rows": 0,
                    "removed_fingerprints": 0, "size_bytes": 0}
        with self._lock:
            connection = self._connect()
            while True:
                try:
                    connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
                except sqlite3.Error:
                    pass
                size = self.path.stat().st_size
                if size <= max_bytes:
                    break
                row = connection.execute(
                    "SELECT fingerprint FROM fingerprint_meta"
                    " WHERE schema_version=?"
                    " ORDER BY generation, fingerprint LIMIT 1",
                    (_SCHEMA_VERSION,)).fetchone()
                if row is None:
                    # Rows from before the meta table existed: evict in
                    # stable fingerprint order.
                    row = connection.execute(
                        "SELECT fingerprint FROM similarity"
                        " ORDER BY fingerprint LIMIT 1").fetchone()
                if row is None:
                    break  # nothing left to evict
                victim = row[0]
                cursor = connection.execute(
                    "DELETE FROM similarity WHERE fingerprint=?",
                    (victim,))
                connection.execute(
                    "DELETE FROM fingerprint_meta WHERE fingerprint=?",
                    (victim,))
                connection.commit()
                connection.execute("VACUUM")
                removed_rows += max(cursor.rowcount, 0)
                removed_fingerprints += 1
            size = self.path.stat().st_size
        if removed_rows:
            telemetry.count("cache.l2.pruned_rows", removed_rows)
        if removed_fingerprints:
            telemetry.count("cache.l2.pruned_fingerprints",
                            removed_fingerprints)
        return {"path": str(self.path), "removed_rows": removed_rows,
                "removed_fingerprints": removed_fingerprints,
                "size_bytes": size}

    def clear(self, fingerprint: str | None = None) -> int:
        """Drop all entries (or one fingerprint's); returns rows removed."""
        if not self.path.exists():
            return 0
        with self._lock:
            self._pending = []
            connection = self._connect()
            if fingerprint is None:
                cursor = connection.execute("DELETE FROM similarity")
            else:
                cursor = connection.execute(
                    "DELETE FROM similarity WHERE fingerprint=?",
                    (fingerprint,))
            connection.commit()
            return cursor.rowcount
