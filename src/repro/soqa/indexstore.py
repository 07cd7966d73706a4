"""Persisted compiled-taxonomy artifacts (warm-starting the graph index).

Compiling the :class:`~repro.soqa.graphindex.CompiledTaxonomy` over a
WordNet-scale corpus costs ~10s of topological bookkeeping per process
— paid again by *every* ``sst`` invocation even when the corpus has not
changed.  This module persists the compiled state once, keyed by the
corpus content fingerprint, and memory-loads it on later runs.

Artifact format (``index-<fingerprint>.sstidx``, version 2, 12
sections)::

    magic "SSTIDX01" | u32 version | u64 nodes | u64 max_depth
    | u32 section count | (u64 length + payload) per section
    | sha256 footer over everything above

Sections hold the interned names (one utf-8 blob plus an end-offset
array), the depth/longest-path columns, flattened parent adjacency and
ancestor-distance maps as fixed-width ``int64`` arrays (each node's
ancestors are stored once, there), the descendant bitsets as raw
bytes, and per-node descendant popcounts.  A descendant bitset is
encoded as whichever of two forms is smaller — the big-int's
little-endian bytes, or the sorted set-bit indices — because dense
encoding of all bitsets is O(nodes²) bytes while the sparse form
tracks the actual edge density.  The save path never walks big-int
bits for sparse entries: the descendant index lists are the transpose
of the ancestor-distance map keys.

Loading opens the file through :class:`mmap.mmap`, verifies the
checksum, and materializes only the cheap columns (names, depths,
adjacency).  The descendant bitsets and the ancestor-distance maps
stay *lazy*: list-like views that decode one node's entry straight off
the ``memoryview`` on first access and cache it.  A similarity query
touches a handful of nodes, so warm-start cost is O(touched), not
O(corpus) — that is what makes the artifact load beat a recompile.

An artifact of the older version 1 layout (which also stored ancestor
bitsets) is stale, not broken: it is deleted, and the index is
recompiled and re-persisted as version 2.  A corrupt, truncated or
unknown-version artifact is *quarantined* (renamed to
``*.corrupt-<n>``, counted as ``index.persist.quarantined``) and the
index is recompiled and re-persisted — the same self-healing contract
as the L2 score cache, exercised through the ``index.corrupt`` fault
site.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
from array import array
from itertools import accumulate
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import IndexArtifactError
from repro.soqa.graphindex import CompiledTaxonomy

__all__ = [
    "ARTIFACT_SUFFIX",
    "DEFAULT_PERSIST_THRESHOLD",
    "INDEX_PERSIST_ENV",
    "IndexStore",
    "load_index",
    "resolve_persist_threshold",
    "save_index",
]

#: File suffix of persisted index artifacts.
ARTIFACT_SUFFIX = ".sstidx"

#: Environment variable overriding the persistence threshold:
#: ``off`` (or a negative number) disables artifacts, ``0`` persists
#: every compiled index, ``N`` persists from ``N`` nodes up.
INDEX_PERSIST_ENV = "SST_INDEX_PERSIST"

#: Persist compiled indexes from this many nodes up.  Small corpora
#: recompile in microseconds — an artifact would only add IO — while a
#: WordNet-scale compile is worth ~10s on every later invocation.
DEFAULT_PERSIST_THRESHOLD = 512


def resolve_persist_threshold(threshold: int | None = None) -> int:
    """The effective persistence threshold in nodes (negative = off)."""
    if threshold is not None:
        return int(threshold)
    raw = os.environ.get(INDEX_PERSIST_ENV, "").strip()
    if not raw:
        return DEFAULT_PERSIST_THRESHOLD
    if raw.lower() == "off":
        return -1
    try:
        return int(raw)
    except ValueError:
        raise IndexArtifactError(
            f"{INDEX_PERSIST_ENV} must be an integer or 'off', got {raw!r}"
        ) from None

_MAGIC = b"SSTIDX01"

#: Bump on incompatible layout changes.  Older known versions are
#: deleted and rebuilt; unknown ones quarantine+recompile.
_VERSION = 2

_HEADER = struct.Struct("<8sIQQI")
_LENGTH = struct.Struct("<Q")

#: names, name offsets, depths, longest, parent counts, parent flat,
#: distance counts, distance keys, distance values, descendant offsets,
#: descendant blob, descendant counts.
_SECTIONS = 12

#: Bitset blob entries start with one of these tag bytes.
_DENSE = 0x44  # "D": little-endian big-int bytes
_SPARSE = 0x53  # "S": int64 set-bit indices

#: Buffered bitset writes are flushed past this many bytes.
_WRITE_BUFFER = 1 << 20


class _OutdatedArtifact(IndexArtifactError):
    """The artifact carries an older, known format version."""


class _ChecksumWriter:
    """File writer that feeds every byte through a running sha256."""

    def __init__(self, handle):
        self._handle = handle
        self.digest = hashlib.sha256()

    def write(self, data: bytes) -> None:
        self._handle.write(data)
        self.digest.update(data)


def _decode_sparse(indices: Iterable[int]) -> int:
    indices = list(indices)
    if not indices:
        return 0
    buffer = bytearray((max(indices) >> 3) + 1)
    for index in indices:
        buffer[index >> 3] |= 1 << (index & 7)
    return int.from_bytes(buffer, "little")


def _array_q(values: Iterable[int]) -> array:
    return array("q", values)


# ---------------------------------------------------------------------------
# Bitset column planning and writing
# ---------------------------------------------------------------------------


def _transpose_descendants(maps: Iterable[Mapping[int, int]]) -> list[array]:
    """Per-node descendant index lists, from the ancestor-distance maps.

    Node ``j`` descends from ``i`` exactly when ``i`` is in ``j``'s
    ancestor map (which includes ``j`` itself), so one pass over the
    maps — ascending ``j`` — yields every descendant list already
    sorted, without touching a single big-int bit.
    """
    lists: list[array] = [array("q") for _ in maps]
    for child, distances in enumerate(maps):
        for ancestor in distances:
            lists[ancestor].append(child)
    return lists


def _plan_column(lists: list[array],
                 ) -> tuple[bytearray, array, array, int]:
    """Encoding plan for the descendant bitset column.

    ``lists`` holds each node's sorted descendant indices, which give
    the bitset's popcount and highest set bit.  Returns the per-node
    tag bytes, payload lengths, end offsets, and the column's total
    byte length.
    """
    tags = bytearray()
    lengths = array("Q")
    offsets = array("Q")
    position = 0
    for row in lists:
        dense = (row[-1] >> 3) + 1 if row else 0
        sparse = 8 * len(row)
        if sparse < dense:
            tag, body = _SPARSE, sparse
        else:
            tag, body = _DENSE, dense
        tags.append(tag)
        lengths.append(body)
        position += 1 + body
        offsets.append(position)
    return tags, lengths, offsets, position


def _write_column(writer: _ChecksumWriter, tags: bytearray, lengths: array,
                  lists: list[array], bigints) -> None:
    """Stream the planned bitset column through the checksum writer.

    Sparse entries are the int64 index ``lists``; dense entries — only
    nodes whose bitset is at least 1/8th full — fall back to the
    compiled big-int's raw bytes.
    """
    buffer = bytearray()
    for index, tag in enumerate(tags):
        buffer.append(tag)
        if tag == _SPARSE:
            buffer += lists[index].tobytes()
        else:
            buffer += bigints[index].to_bytes(lengths[index], "little")
        if len(buffer) >= _WRITE_BUFFER:
            writer.write(bytes(buffer))
            buffer.clear()
    if buffer:
        writer.write(bytes(buffer))


def save_index(compiled: CompiledTaxonomy, path: str | Path) -> Path:
    """Serialize a compiled index to ``path`` (atomically); returns it.

    The write streams section by section through a running checksum —
    peak transient memory is the flattened distance arrays plus a 1 MB
    bitset buffer, never a monolithic serialized copy of the index.
    """
    path = Path(path)
    state = compiled.state()
    names: list[str] = state["names"]
    maps = state["ancestor_distances"]
    encoded_names = [name.encode() for name in names]

    name_offsets = array("Q")
    position = 0
    for blob in encoded_names:
        position += len(blob)
        name_offsets.append(position)
    names_length = position

    depths = _array_q(state["depths"])
    longest = _array_q(state["longest"])
    parent_counts = _array_q(len(row) for row in state["parent_ids"])
    parent_flat = _array_q(parent for row in state["parent_ids"]
                           for parent in row)
    distance_counts = _array_q(len(distances) for distances in maps)
    distance_keys = array("q")
    distance_values = array("q")
    for distances in maps:
        distance_keys.extend(distances.keys())
        distance_values.extend(distances.values())

    descendant_lists = _transpose_descendants(maps)
    descendant_counts = _array_q(len(row) for row in descendant_lists)

    desc_tags, desc_lengths, desc_offsets, desc_total = _plan_column(
        descendant_lists)

    def write_names(writer: _ChecksumWriter) -> None:
        buffer = bytearray()
        for blob in encoded_names:
            buffer += blob
            if len(buffer) >= _WRITE_BUFFER:
                writer.write(bytes(buffer))
                buffer.clear()
        if buffer:
            writer.write(bytes(buffer))

    def array_section(column: array) -> tuple[int, Callable]:
        return (len(column) * column.itemsize,
                lambda writer: writer.write(column.tobytes()))

    sections: list[tuple[int, Callable]] = [
        (names_length, write_names),
        array_section(name_offsets),
        array_section(depths),
        array_section(longest),
        array_section(parent_counts),
        array_section(parent_flat),
        array_section(distance_counts),
        array_section(distance_keys),
        array_section(distance_values),
        array_section(desc_offsets),
        (desc_total, lambda writer: _write_column(
            writer, desc_tags, desc_lengths, descendant_lists,
            state["descendant_bits"])),
        array_section(descendant_counts),
    ]

    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        # This *is* the atomic pattern — stream to a scratch file, then
        # os.replace below — just binary and too big for
        # atomic_write_text.
        with open(scratch, "wb") as handle:  # sst: disable=nonatomic-write
            writer = _ChecksumWriter(handle)
            writer.write(_HEADER.pack(_MAGIC, _VERSION, len(names),
                                      state["max_depth"], _SECTIONS))
            for length, emit in sections:
                writer.write(_LENGTH.pack(length))
                emit(writer)
            handle.write(writer.digest.digest())
        os.replace(scratch, path)
    except BaseException:
        try:
            scratch.unlink()
        except OSError:
            pass
        raise
    return path


# ---------------------------------------------------------------------------
# Lazy loaded columns
# ---------------------------------------------------------------------------


class _LazyBitsets:
    """List-like bitset column decoded straight off the artifact mmap.

    A similarity query touches a handful of nodes, so entries decode on
    first access and are cached — warm-start cost stays O(touched)
    instead of O(corpus).  Racing duplicate decodes compute the same
    value, so the cache needs no lock (same discipline as the index's
    lazily built neighbor table).
    """

    __slots__ = ("_view", "_offsets", "_cache")

    def __init__(self, view: memoryview, offsets: array):
        self._view = view
        self._offsets = offsets
        self._cache: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._offsets)

    def __iter__(self) -> Iterator[int]:
        return (self[index] for index in range(len(self._offsets)))

    def __getitem__(self, index: int) -> int:
        offsets = self._offsets
        if index < 0:
            index += len(offsets)
        value = self._cache.get(index)
        if value is not None:
            return value
        start = offsets[index - 1] if index > 0 else 0
        entry = self._view[start:offsets[index]]
        tag = entry[0]
        if tag == _DENSE:
            value = int.from_bytes(entry[1:], "little")
        elif tag == _SPARSE:
            indices = array("q")
            indices.frombytes(entry[1:])
            value = _decode_sparse(indices)
        else:
            # The checksum already passed, so this is an encoder bug,
            # not disk corruption — surface it loudly.
            raise IndexArtifactError(
                f"unknown bitset tag {tag:#x} at entry {index}")
        self._cache[index] = value
        return value


class _LazyDistanceMaps:
    """List-like ancestor-distance maps, built per node on demand.

    The flat key/value int64 arrays are one ``frombytes`` memcpy at
    load; each node's dict materializes on first access and is cached.
    """

    __slots__ = ("_keys", "_values", "_offsets", "_cache")

    def __init__(self, keys: array, values: array, offsets: array):
        self._keys = keys
        self._values = values
        self._offsets = offsets
        self._cache: dict[int, dict[int, int]] = {}

    def __len__(self) -> int:
        return len(self._offsets)

    def __iter__(self) -> Iterator[dict[int, int]]:
        return (self[index] for index in range(len(self._offsets)))

    def __getitem__(self, index: int) -> dict[int, int]:
        offsets = self._offsets
        if index < 0:
            index += len(offsets)
        value = self._cache.get(index)
        if value is not None:
            return value
        start = offsets[index - 1] if index > 0 else 0
        end = offsets[index]
        value = dict(zip(self._keys[start:end], self._values[start:end]))
        self._cache[index] = value
        return value


def load_index(path: str | Path) -> CompiledTaxonomy:
    """Memory-load a persisted index without recompiling.

    Verifies the checksum and materializes the cheap columns eagerly;
    the descendant bitsets and ancestor-distance maps stay lazy views
    over the kept-open mmap (released when the index is
    garbage-collected).

    Raises :class:`~repro.errors.IndexArtifactError` on any corruption:
    bad magic, foreign version, truncation, checksum mismatch, or
    malformed sections; an older known version raises its private
    subclass, which :class:`IndexStore` rebuilds instead of
    quarantining.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as error:
        raise IndexArtifactError(
            f"cannot map index artifact {path}: {error}") from error
    view = memoryview(buffer)
    loaded = False
    try:
        if len(view) < _HEADER.size + 32:
            raise IndexArtifactError(f"truncated index artifact {path}")
        magic, version, node_count, max_depth, section_count = (
            _HEADER.unpack_from(view, 0))
        if magic != _MAGIC:
            raise IndexArtifactError(f"{path} is not an index artifact")
        if 0 < version < _VERSION:
            raise _OutdatedArtifact(
                f"{path}: artifact version {version} is older than "
                f"{_VERSION}")
        if version != _VERSION or section_count != _SECTIONS:
            raise IndexArtifactError(
                f"{path}: artifact version {version}/{section_count} does "
                f"not match expected {_VERSION}/{_SECTIONS}")
        digest = hashlib.sha256(view[:-32]).digest()
        if digest != bytes(view[-32:]):
            raise IndexArtifactError(f"checksum mismatch in {path}")

        position = _HEADER.size
        spans: list[tuple[int, int]] = []
        for _ in range(section_count):
            (length,) = _LENGTH.unpack_from(view, position)
            position += _LENGTH.size
            end = position + length
            if end > len(view) - 32:
                raise IndexArtifactError(
                    f"section overruns index artifact {path}")
            spans.append((position, end))
            position += length

        def section(index: int) -> memoryview:
            start, end = spans[index]
            return view[start:end]

        def int_column(index: int) -> array:
            column = array("q")
            column.frombytes(section(index))
            return column

        def offset_column(index: int) -> array:
            column = array("Q")
            column.frombytes(section(index))
            return column

        name_offsets = offset_column(1)
        blob = bytes(section(0)).decode()
        names: list[str] = []
        start = 0
        for end in name_offsets:
            names.append(blob[start:end])
            start = end

        depths = list(int_column(2))
        longest = list(int_column(3))

        parent_flat = int_column(5)
        parent_ids: list[tuple[int, ...]] = []
        start = 0
        for count in int_column(4):
            parent_ids.append(tuple(parent_flat[start:start + count]))
            start += count

        distance_keys = int_column(7)
        distance_values = int_column(8)
        distance_offsets = array("Q", accumulate(int_column(6)))
        if len(distance_values) != len(distance_keys) or (
                distance_offsets
                and distance_offsets[-1] != len(distance_keys)):
            raise IndexArtifactError(
                f"distance sections disagree in {path}")
        descendant_offsets = offset_column(9)
        descendant_blob = section(10)
        descendant_counts = int_column(11)
        for column in (names, depths, longest, parent_ids,
                       distance_offsets, descendant_offsets,
                       descendant_counts):
            if len(column) != node_count:
                raise IndexArtifactError(
                    f"column length mismatch in {path}")
        if (descendant_offsets
                and descendant_offsets[-1] != len(descendant_blob)):
            raise IndexArtifactError(
                f"bitset blob length mismatch in {path}")

        compiled = CompiledTaxonomy.from_state(
            names=names, parent_ids=parent_ids,
            ancestor_distances=_LazyDistanceMaps(
                distance_keys, distance_values, distance_offsets),
            descendant_bits=_LazyBitsets(descendant_blob,
                                         descendant_offsets),
            depths=depths, longest=longest, max_depth=max_depth,
            descendant_counts=descendant_counts)
        loaded = True
        return compiled
    except (ValueError, struct.error, UnicodeDecodeError) as error:
        raise IndexArtifactError(
            f"malformed index artifact {path}: {error}") from error
    finally:
        if not loaded:
            # On success the lazy columns keep sub-views of the mmap
            # alive; on failure nothing references it, so unmap now.
            view.release()
            buffer.close()


class IndexStore:
    """Fingerprint-keyed artifact directory with self-healing loads."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory).expanduser()
        #: Artifacts quarantined by this instance (tests/diagnostics).
        self.quarantined = 0

    def artifact_path(self, fingerprint: str) -> Path:
        """Where the artifact for ``fingerprint`` lives."""
        return self.directory / f"index-{fingerprint[:32]}{ARTIFACT_SUFFIX}"

    def _quarantine(self, path: Path) -> Path | None:
        from repro.core import telemetry

        if not path.exists():
            return None
        n = 1
        while True:
            candidate = path.with_name(f"{path.name}.corrupt-{n}")
            if not candidate.exists():
                break
            n += 1
        os.replace(path, candidate)
        self.quarantined += 1
        telemetry.count("index.persist.quarantined")
        return candidate

    def _scribble(self, path: Path) -> None:
        """Fault site ``index.corrupt``: overwrite the artifact header
        with garbage, exactly what a torn write leaves behind."""
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            # Deliberately non-atomic: the point is a torn write.
            with open(path, "wb") as handle:  # sst: disable=nonatomic-write
                handle.write(b"this is no longer an index artifact\0" * 4)
        except OSError:
            pass

    def load_or_compile(self, parents: Mapping[str, Iterable[str]],
                        fingerprint: str,
                        ) -> tuple[CompiledTaxonomy, dict]:
        """The compiled index for ``parents``, warm-started if possible.

        Returns ``(index, provenance)`` where provenance records whether
        the index was loaded from the persisted artifact or compiled
        fresh (and then persisted), with the time either path took.  An
        artifact of an older format version is deleted and rebuilt; a
        load failure of any other kind quarantines the artifact and
        falls back to a fresh compile — a broken artifact must never
        fail a run.
        """
        import time

        from repro.core import resilience, telemetry

        path = self.artifact_path(fingerprint)
        if resilience.maybe_fire("index.corrupt") is not None:
            self._scribble(path)
        if path.exists():
            started = time.perf_counter()
            try:
                with telemetry.span("index.persist.load", path=str(path)):
                    compiled = load_index(path)
            except _OutdatedArtifact:
                try:
                    path.unlink()
                except OSError:
                    pass
            except (IndexArtifactError, OSError):
                try:
                    self._quarantine(path)
                except OSError:
                    pass
            else:
                if compiled.nodes() == list(parents):
                    elapsed = time.perf_counter() - started
                    telemetry.count("index.persist.loads")
                    telemetry.observe("index.persist.load_seconds", elapsed)
                    return compiled, {
                        "source": "artifact", "seconds": elapsed,
                        "path": str(path), "nodes": len(compiled)}
                # A fingerprint collision (or an artifact written for a
                # different strategy) — treat as a miss, not corruption.
                telemetry.count("index.persist.mismatches")
        started = time.perf_counter()
        with telemetry.span("index.persist.compile", nodes=len(parents)):
            compiled = CompiledTaxonomy(parents)
        compile_seconds = time.perf_counter() - started
        try:
            with telemetry.span("index.persist.save", path=str(path)):
                save_index(compiled, path)
            telemetry.count("index.persist.saves")
        except OSError:
            telemetry.count("index.persist.save_failures")
        return compiled, {
            "source": "compiled", "seconds": compile_seconds,
            "path": str(path), "nodes": len(compiled)}
