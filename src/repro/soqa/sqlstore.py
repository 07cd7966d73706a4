"""Sqlite-backed lazy ontology store (the million-concept backend).

Every wrapper in :mod:`repro.soqa.wrappers` parses its source text into
a fully materialized in-memory :class:`~repro.soqa.metamodel.Ontology`.
That is the right trade for the paper's corpora (tens of concepts) but
the ROADMAP's third open item asks for WordNet scale — ~117k noun
synsets — where re-parsing megabytes of source and materializing every
:class:`~repro.soqa.metamodel.Concept` on each ``sst`` invocation
dominates the run.

This module amortizes the parse across invocations.  ``sst import``
loads any supported format *once* and writes it into a
:class:`SqliteOntologyStore` — a single-file sqlite database with
indexed name and parent/child lookups:

- ``concepts(ontology_id, name, payload)`` — one row per concept, the
  meta-model long tail (attributes, methods, relationships, instances,
  documentation) as canonical JSON, with a unique index on
  ``(ontology_id, name)``;
- ``edges(ontology_id, child, parent)`` — the ``is-a`` relation,
  indexed in both directions, so direct super-/subconcept navigation is
  an index scan instead of a full materialization;
- ``ontologies(name, language, metadata, concept_count, fingerprint)``
  — per-ontology metadata plus the content digest computed at import
  time, so corpus fingerprinting never has to re-serialize the corpus.

:class:`SqliteOntology` exposes the full
:class:`~repro.soqa.metamodel.Ontology` API over such a store without
ever holding more than an LRU-bounded window of concepts in memory:
name lookups and taxonomy navigation are indexed queries, iteration
streams rows lazily in definition order, and the structures the unified
tree needs wholesale (:meth:`superconcept_map`) come from one indexed
scan of the ``edges`` table rather than from materialized concepts.

:class:`SqliteWrapper` plugs the store files (suffix ``.sstdb``) into
the ordinary :class:`~repro.soqa.wrapper.WrapperRegistry` dispatch so
``sst --ontology-file corpus.sstdb ...`` works like any other format.
Validation (duplicate names, dangling superconcepts, cycles) happened
when the source wrapper materialized the ontology at import time; the
store trusts its own rows and skips re-validation on open.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.errors import (OntologyParseError, SOQAError, UnknownConceptError,
                          UnknownOntologyError)
from repro.soqa.metamodel import Concept, Ontology, OntologyMetadata
from repro.soqa.wrapper import OntologyWrapper

__all__ = [
    "STORE_SUFFIX",
    "SqliteOntology",
    "SqliteOntologyStore",
    "SqliteWrapper",
]

#: File suffix the wrapper registry dispatches on.
STORE_SUFFIX = ".sstdb"

#: ``meta.format`` stamp; bump on incompatible schema changes.
STORE_FORMAT = "sst-ontology-store/1"

#: ``PRAGMA user_version`` stamp, mirroring the format version.
_STORE_VERSION = 1

#: Concepts are imported in batches of this many rows per transaction.
_IMPORT_BATCH = 1024

#: Materialized concepts kept per ontology before the oldest is evicted.
_CONCEPT_CACHE_SIZE = 4096

#: Rows fetched per round-trip while streaming a full iteration.
_SCAN_BATCH = 512


def _maybe_import_crash(written: int) -> None:
    """The ``import.crash`` fault site: die kill-9 style mid-import.

    Unlike the quota-only sites, the spec argument is a *concept
    offset* — ``import.crash=1@2500`` kills the process the first time
    a batch flush has written at least 2500 concepts — so the chaos
    suite can park the crash at any point of a large import.  The
    death is ``os._exit``: no ``finally`` blocks, no connection close,
    exactly what ``kill -9`` leaves behind.
    """
    from repro.core import resilience

    plan = resilience.active_fault_plan()
    if plan is None or plan.remaining("import.crash") <= 0:
        return
    if written >= plan.argument("import.crash", 0.0) \
            and plan.should_fire("import.crash"):
        os._exit(137)


def _connect(path: Path) -> sqlite3.Connection:
    connection = sqlite3.connect(str(path), check_same_thread=False,
                                 timeout=30.0)
    try:
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
    except sqlite3.Error:
        pass  # journaling hints only; defaults still work
    return connection


class SqliteOntologyStore:
    """A single-file sqlite database holding one or more ontologies.

    Open an existing store with ``SqliteOntologyStore(path)`` or build a
    new one with :meth:`create` + :meth:`import_ontology`.  One store
    instance owns one connection per process (re-opened lazily after a
    ``fork``, so process workers inherit a picklable shell and reconnect
    on first use) and serializes cursor use under a lock for the request
    threads of ``sst serve``.
    """

    def __init__(self, path: str | Path, *, _create: bool = False):
        self.path = Path(path).expanduser()
        self._lock = threading.Lock()
        self._connection: sqlite3.Connection | None = None
        self._owner_pid = os.getpid()
        if _create:
            self._create()
        else:
            self._validate()

    # -- connection management ---------------------------------------------------

    def _connect_locked(self) -> sqlite3.Connection:
        """The calling process's connection; callers hold ``self._lock``."""
        pid = os.getpid()
        if self._connection is None or pid != self._owner_pid:
            if pid != self._owner_pid:
                # Forked child: the inherited handle belongs to the
                # parent process and must not be reused.
                self._connection = None  # sst: disable=unlocked-shared-state
                self._owner_pid = pid
            connection = _connect(self.path)
            self._connection = connection  # sst: disable=unlocked-shared-state
        return self._connection

    def _validate(self) -> None:
        """Fail fast (typed) when ``path`` is not a readable store."""
        from repro.core import telemetry

        if not self.path.exists():
            raise OntologyParseError(
                f"ontology store not found: {self.path}")
        try:
            with self._lock:
                connection = self._connect_locked()
                version = connection.execute(
                    "PRAGMA user_version").fetchone()[0]
                row = connection.execute(
                    "SELECT value FROM meta WHERE key='format'").fetchone()
        except sqlite3.DatabaseError as error:
            self.close()
            raise OntologyParseError(
                f"not a readable ontology store: {self.path} ({error})",
                source=str(self.path)) from error
        stamp = row[0] if row else None
        if version != _STORE_VERSION or stamp != STORE_FORMAT:
            self.close()
            raise OntologyParseError(
                f"{self.path}: unsupported store format "
                f"(user_version={version}, format={stamp!r}; expected "
                f"{_STORE_VERSION}/{STORE_FORMAT!r})",
                source=str(self.path))
        telemetry.count("store.opens")

    def _create(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            connection = self._connect_locked()
            connection.executescript(
                "CREATE TABLE IF NOT EXISTS meta ("
                " key TEXT PRIMARY KEY, value TEXT NOT NULL);"
                "CREATE TABLE IF NOT EXISTS ontologies ("
                " id INTEGER PRIMARY KEY,"
                " name TEXT UNIQUE NOT NULL,"
                " language TEXT NOT NULL,"
                " metadata TEXT NOT NULL,"
                " concept_count INTEGER NOT NULL,"
                " fingerprint TEXT NOT NULL);"
                "CREATE TABLE IF NOT EXISTS concepts ("
                " id INTEGER PRIMARY KEY,"
                " ontology_id INTEGER NOT NULL,"
                " name TEXT NOT NULL,"
                " payload TEXT NOT NULL,"
                " UNIQUE (ontology_id, name));"
                "CREATE TABLE IF NOT EXISTS edges ("
                " id INTEGER PRIMARY KEY,"
                " ontology_id INTEGER NOT NULL,"
                " child TEXT NOT NULL,"
                " parent TEXT NOT NULL);"
                "CREATE INDEX IF NOT EXISTS edges_child"
                " ON edges (ontology_id, child);"
                "CREATE INDEX IF NOT EXISTS edges_parent"
                " ON edges (ontology_id, parent);")
            connection.execute(
                "INSERT OR REPLACE INTO meta VALUES ('format', ?)",
                (STORE_FORMAT,))
            connection.execute(f"PRAGMA user_version = {_STORE_VERSION}")
            connection.commit()

    @classmethod
    def create(cls, path: str | Path,
               overwrite: bool = False) -> "SqliteOntologyStore":
        """Create an empty store at ``path`` (replacing it if asked)."""
        path = Path(path).expanduser()
        if path.exists():
            if not overwrite:
                raise SOQAError(
                    f"store already exists: {path} (pass overwrite)")
            path.unlink()
            for suffix in ("-wal", "-shm"):
                sidecar = path.with_name(path.name + suffix)
                try:
                    sidecar.unlink()
                except OSError:
                    pass
        return cls(path, _create=True)

    @classmethod
    @contextmanager
    def build(cls, path: str | Path,
              overwrite: bool = False) -> Iterator["SqliteOntologyStore"]:
        """Crash-safe store construction: journaled temp + atomic rename.

        Yields a store rooted at a same-directory temp file; on clean
        exit the temp is fsynced and :func:`os.replace`d over ``path``
        (via :func:`repro.core.resilience.durable_replace`), so a
        ``kill -9`` at *any* byte offset leaves either the previous
        store or the complete new one — never a partial that demands
        ``--overwrite`` on retry.  Stale temps from earlier crashed
        builds of the same target are swept first; on an exception the
        temp (and its WAL sidecars) are removed and the error
        propagates.

        The existing-target check happens up front, before any work,
        matching :meth:`create` semantics — but the target itself is
        not touched until the final rename.
        """
        from repro.core.resilience import durable_replace

        path = Path(path).expanduser()
        if path.exists() and not overwrite:
            raise SOQAError(
                f"store already exists: {path} (pass overwrite)")
        path.parent.mkdir(parents=True, exist_ok=True)
        prefix = f".{path.name}.import-"
        for stale in path.parent.glob(f"{prefix}*"):
            try:
                stale.unlink()
            except OSError:
                pass
        temp = path.parent / f"{prefix}{os.getpid()}"
        store = cls(temp, _create=True)
        try:
            yield store
            store.close()  # last connection: WAL checkpointed + removed
            _maybe_import_crash(float("inf"))  # post-build, pre-promote
            for suffix in ("-wal", "-shm"):
                # Sidecars of a previous store at the target would be
                # mistaken for the new file's journal after the rename.
                sidecar = path.with_name(path.name + suffix)
                try:
                    sidecar.unlink()
                except OSError:
                    pass
            durable_replace(temp, path)
            store.path = path
        except BaseException:
            store.close()
            for leftover in (temp, temp.with_name(temp.name + "-wal"),
                             temp.with_name(temp.name + "-shm")):
                try:
                    leftover.unlink()
                except OSError:
                    pass
            raise

    def close(self) -> None:
        """Close this process's connection (reopened lazily on next use)."""
        with self._lock:
            if (self._connection is not None
                    and os.getpid() == self._owner_pid):
                try:
                    self._connection.close()
                except sqlite3.Error:
                    pass
            self._connection = None

    # -- pickling / forking -------------------------------------------------------

    def __getstate__(self) -> dict:
        return {"path": self.path}

    def __setstate__(self, state: dict) -> None:
        self.path = state["path"]
        self._lock = threading.Lock()
        self._connection = None
        self._owner_pid = os.getpid()

    # -- queries (shared by the lazy ontologies) ----------------------------------

    def _query(self, sql: str, parameters: tuple = ()) -> list[tuple]:
        with self._lock:
            try:
                return self._connect_locked().execute(
                    sql, parameters).fetchall()
            except sqlite3.DatabaseError as error:
                raise SOQAError(
                    f"ontology store query failed on {self.path}: {error}"
                ) from error

    def _query_batched(self, sql: str,
                       parameters: tuple = ()) -> Iterator[tuple]:
        """Stream rows in :data:`_SCAN_BATCH` chunks.

        The cursor is drained under the lock one batch at a time and the
        rows are yielded outside it, so a slow consumer never starves
        concurrent indexed lookups on the same connection.
        """
        with self._lock:
            cursor = self._connect_locked().execute(sql, parameters)
        while True:
            with self._lock:
                try:
                    rows = cursor.fetchmany(_SCAN_BATCH)
                except sqlite3.DatabaseError as error:
                    raise SOQAError(
                        f"ontology store scan failed on {self.path}: "
                        f"{error}") from error
            if not rows:
                return
            yield from rows

    # -- import -------------------------------------------------------------------

    def import_ontology(self, ontology: Ontology) -> dict:
        """Copy a materialized ontology into the store; returns a summary.

        The source wrapper already validated the concept set (duplicate
        names, dangling superconcepts, cycles) when it materialized
        ``ontology``; rows are written in definition order so lazy
        iteration and derived subconcept order replay the in-memory
        semantics exactly.  The per-ontology content digest — the same
        one :func:`repro.core.diskcache.corpus_fingerprint` computes for
        in-memory corpora — is stored alongside, so store-backed and
        in-memory corpora share cache fingerprints bit-identically.
        """
        from repro.core import telemetry
        from repro.soqa.serialize import _concept_to_dict

        digest = hashlib.sha256()
        with telemetry.span("store.import", ontology=ontology.name,
                            concepts=len(ontology)):
            with self._lock:
                connection = self._connect_locked()
                existing = connection.execute(
                    "SELECT id FROM ontologies WHERE name=?",
                    (ontology.name,)).fetchone()
                if existing is not None:
                    raise SOQAError(
                        f"ontology {ontology.name!r} already stored in "
                        f"{self.path}")
                cursor = connection.execute(
                    "INSERT INTO ontologies VALUES (NULL, ?, ?, ?, ?, '')",
                    (ontology.name, ontology.language,
                     json.dumps(ontology.metadata.as_dict(),
                                sort_keys=False),
                     len(ontology)))
                ontology_id = cursor.lastrowid
                concept_rows: list[tuple] = []
                edge_rows: list[tuple] = []

                def _flush_rows() -> None:
                    connection.executemany(
                        "INSERT INTO concepts VALUES (NULL, ?, ?, ?)",
                        concept_rows)
                    connection.executemany(
                        "INSERT INTO edges VALUES (NULL, ?, ?, ?)",
                        edge_rows)
                    concept_rows.clear()
                    edge_rows.clear()

                written = 0

                def _flush_checked() -> None:
                    nonlocal written
                    written += len(concept_rows)
                    _flush_rows()
                    _maybe_import_crash(written)

                for concept in ontology:
                    payload = json.dumps(_concept_to_dict(concept),
                                         sort_keys=False)
                    digest.update(payload.encode())
                    digest.update(b"\x00")
                    concept_rows.append((ontology_id, concept.name, payload))
                    for parent in concept.superconcept_names:
                        edge_rows.append((ontology_id, concept.name, parent))
                    if len(concept_rows) >= _IMPORT_BATCH:
                        _flush_checked()
                if concept_rows or edge_rows:
                    _flush_checked()
                fingerprint = digest.hexdigest()
                connection.execute(
                    "UPDATE ontologies SET fingerprint=? WHERE id=?",
                    (fingerprint, ontology_id))
                connection.commit()
        telemetry.count("store.imports")
        telemetry.count("store.concepts_imported", len(ontology))
        return {"ontology": ontology.name, "language": ontology.language,
                "concepts": len(ontology), "fingerprint": fingerprint}

    # -- ontology access ----------------------------------------------------------

    def ontology_names(self) -> list[str]:
        """Names of every stored ontology, in import order."""
        return [row[0] for row in self._query(
            "SELECT name FROM ontologies ORDER BY id")]

    def ontology(self, name: str | None = None) -> "SqliteOntology":
        """A lazy view of one stored ontology (the only one by default)."""
        if name is None:
            rows = self._query(
                "SELECT name, language, metadata, concept_count, fingerprint"
                " FROM ontologies ORDER BY id LIMIT 2")
            if not rows:
                raise UnknownOntologyError(f"<empty store {self.path}>")
            if len(rows) > 1:
                raise SOQAError(
                    f"{self.path} holds several ontologies "
                    f"({self.ontology_names()}); name one explicitly")
        else:
            rows = self._query(
                "SELECT name, language, metadata, concept_count, fingerprint"
                " FROM ontologies WHERE name=?", (name,))
            if not rows:
                raise UnknownOntologyError(name)
        stored_name, language, metadata_json, count, fingerprint = rows[0]
        metadata_data = json.loads(metadata_json)
        metadata_data.setdefault("name", stored_name)
        metadata_data.setdefault("language", language)
        metadata = OntologyMetadata(**metadata_data)
        return SqliteOntology(self, metadata, count, fingerprint)

    def ontologies(self) -> list["SqliteOntology"]:
        """Lazy views of every stored ontology, in import order."""
        return [self.ontology(name) for name in self.ontology_names()]

    def stats(self) -> dict:
        """Store path, per-ontology concept counts and the on-disk size."""
        counts = {name: count for name, count in self._query(
            "SELECT name, concept_count FROM ontologies ORDER BY id")}
        return {
            "path": str(self.path),
            "ontologies": counts,
            "concepts": sum(counts.values()),
            "size_bytes": self.path.stat().st_size if self.path.exists()
            else 0,
        }


class SqliteOntology(Ontology):
    """A store-backed ontology: full meta-model API, lazy materialization.

    Never holds more than an LRU-bounded window of
    :class:`~repro.soqa.metamodel.Concept` objects; every name lookup
    and taxonomy step is an indexed query against the owning
    :class:`SqliteOntologyStore`.  Inherits the derived navigation
    (closures, coordinates, extensions) from the in-memory class — those
    methods only go through the primitives overridden here.
    """

    def __init__(self, store: SqliteOntologyStore,
                 metadata: OntologyMetadata, concept_count: int,
                 fingerprint: str):
        # Deliberately no super().__init__: linking and validation ran
        # when the source wrapper materialized the ontology at import
        # time; re-running them would materialize every concept.
        self.metadata = metadata
        self._store = store
        self._concept_count = concept_count
        self._fingerprint = fingerprint
        self._cache_lock = threading.Lock()
        self._concepts: dict[str, Concept] = {}

    # -- pickling / forking -------------------------------------------------------

    def __getstate__(self) -> dict:
        # Ship only the store shell and identity; the worker reconnects
        # lazily and re-materializes concepts into an empty cache.
        return {"store": self._store, "metadata": self.metadata,
                "concept_count": self._concept_count,
                "fingerprint": self._fingerprint}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["store"], state["metadata"],
                      state["concept_count"], state["fingerprint"])

    # -- store plumbing -----------------------------------------------------------

    @property
    def store(self) -> SqliteOntologyStore:
        """The backing store (e.g. for ``sst stats`` backend reporting)."""
        return self._store

    def content_digest(self) -> str:
        """The content digest persisted at import time.

        Matches what :meth:`~repro.soqa.metamodel.Ontology.content_digest`
        computes for the in-memory twin, without serializing anything.
        """
        return self._fingerprint

    def _materialize(self, name: str) -> Concept:
        from repro.core import telemetry
        from repro.soqa.serialize import _concept_from_dict

        with self._cache_lock:
            concept = self._concepts.get(name)
        if concept is not None:
            return concept
        rows = self._store._query(
            "SELECT c.payload FROM concepts c"
            " JOIN ontologies o ON o.id = c.ontology_id"
            " WHERE o.name=? AND c.name=?", (self.name, name))
        if not rows:
            raise UnknownConceptError(name, self.name)
        concept = _concept_from_dict(json.loads(rows[0][0]))
        concept.subconcept_names = self._child_names(name)
        telemetry.count("store.lookups")
        with self._cache_lock:
            self._concepts[name] = concept
            while len(self._concepts) > _CONCEPT_CACHE_SIZE:
                self._concepts.pop(next(iter(self._concepts)))
        return concept

    def _child_names(self, name: str) -> list[str]:
        return [row[0] for row in self._store._query(
            "SELECT e.child FROM edges e"
            " JOIN ontologies o ON o.id = e.ontology_id"
            " WHERE o.name=? AND e.parent=? ORDER BY e.id",
            (self.name, name))]

    # -- overridden primitives ----------------------------------------------------

    def __len__(self) -> int:
        return self._concept_count

    def __contains__(self, concept_name: str) -> bool:
        return bool(self._store._query(
            "SELECT 1 FROM concepts c"
            " JOIN ontologies o ON o.id = c.ontology_id"
            " WHERE o.name=? AND c.name=? LIMIT 1",
            (self.name, concept_name)))

    def __iter__(self) -> Iterator[Concept]:
        from repro.core import telemetry

        telemetry.count("store.scans")
        for (name,) in self._store._query_batched(
                "SELECT c.name FROM concepts c"
                " JOIN ontologies o ON o.id = c.ontology_id"
                " WHERE o.name=? ORDER BY c.id", (self.name,)):
            yield self._materialize(name)

    def concept(self, name: str) -> Concept:
        return self._materialize(name)

    def concept_names(self) -> list[str]:
        return [row[0] for row in self._store._query(
            "SELECT c.name FROM concepts c"
            " JOIN ontologies o ON o.id = c.ontology_id"
            " WHERE o.name=? ORDER BY c.id", (self.name,))]

    def concepts(self) -> list[Concept]:
        return list(self)

    def superconcept_map(self) -> dict[str, list[str]]:
        """Definition-ordered ``{concept: direct superconcepts}``.

        Two indexed scans — names plus edges — instead of materializing
        a single concept; this is what the unified tree and per-ontology
        taxonomies are built from at scale.
        """
        parent_map: dict[str, list[str]] = {
            name: [] for name in self.concept_names()}
        for child, parent in self._store._query_batched(
                "SELECT e.child, e.parent FROM edges e"
                " JOIN ontologies o ON o.id = e.ontology_id"
                " WHERE o.name=? ORDER BY e.id", (self.name,)):
            parent_map[child].append(parent)
        return parent_map

    def root_concepts(self) -> list[Concept]:
        return [self._materialize(row[0]) for row in self._store._query(
            "SELECT c.name FROM concepts c"
            " JOIN ontologies o ON o.id = c.ontology_id"
            " WHERE o.name=? AND NOT EXISTS"
            " (SELECT 1 FROM edges e WHERE e.ontology_id = c.ontology_id"
            "  AND e.child = c.name)"
            " ORDER BY c.id", (self.name,))]

    def leaf_concepts(self) -> list[Concept]:
        return [self._materialize(row[0]) for row in self._store._query(
            "SELECT c.name FROM concepts c"
            " JOIN ontologies o ON o.id = c.ontology_id"
            " WHERE o.name=? AND NOT EXISTS"
            " (SELECT 1 FROM edges e WHERE e.ontology_id = c.ontology_id"
            "  AND e.parent = c.name)"
            " ORDER BY c.id", (self.name,))]

    def direct_subconcepts(self, name: str) -> list[Concept]:
        self._materialize(name)  # validates existence
        return [self._materialize(child) for child in self._child_names(name)]


class SqliteWrapper(OntologyWrapper):
    """SOQA wrapper dispatching ``.sstdb`` store files.

    Store files are binary sqlite databases, so the text-based
    :meth:`parse` contract cannot apply; :meth:`load` opens the store
    directly and returns a lazy :class:`SqliteOntology`.  A store
    holding several ontologies is loaded wholesale via :meth:`load_all`
    (``SOQA.load_file`` uses it transparently).
    """

    language = "SQLiteStore"
    suffixes = (STORE_SUFFIX,)

    def parse(self, text: str, name: str) -> Ontology:
        raise OntologyParseError(
            "sqlite ontology stores are binary; load them by path "
            "(sst --ontology-file corpus.sstdb) instead of as text")

    def load(self, path: str | Path, name: str | None = None) -> Ontology:
        store = SqliteOntologyStore(path)
        return store.ontology(name if name in store.ontology_names()
                              else None)

    def load_all(self, path: str | Path) -> list[Ontology]:
        """Every ontology in the store, in import order."""
        return list(SqliteOntologyStore(path).ontologies())
