"""Compiled taxonomy index: interned IDs, ancestor maps, O(1) lookups.

Every query of :class:`repro.soqa.graph.Taxonomy` is answered by this
index, compiled once on the first query.  A :class:`CompiledTaxonomy`
spends one topological pass up front and turns the hot queries into
integer arithmetic:

- node names are interned to dense integer IDs;
- each node stores its ancestors once, as an *ancestor-distance map*
  (ancestor-or-self ID -> minimum edge distance), so
  ``common_ancestors`` is a key-set intersection and MRCA an argmin
  over the smaller map's keys looked up in the larger one;
- min-depth and longest-path arrays make ``depth``/``max_depth`` O(1);
- *descendant bitsets* give exact DAG subtree sizes via popcount —
  the corpus frequencies behind the information-content measures — so
  IC probability lookups are O(1) array reads.

Tie-breaking is deterministic (MRCA prefers the smaller distance sum,
then the deeper ancestor, then the lexicographically smaller name;
``path_to_root`` picks the shallowest, then lexicographically smallest
parent).  The property tests check every query against answers derived
with networkx.  A parent map with an is-a cycle is rejected with
:class:`~repro.errors.OntologyParseError` naming the cycle.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Iterable, Iterator, Mapping

from repro.errors import OntologyParseError, UnknownConceptError

__all__ = ["CompiledTaxonomy", "TaxonomyTables", "iter_bits"]

# Mirrors of the ``repro.soqa.graph`` path policies; duplicated here so
# the index module stays import-cycle free.
_VIA_ANCESTOR = "via_ancestor"
_ANY_PATH = "any"


def iter_bits(bits: int) -> Iterator[int]:
    """Indices of the set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class TaxonomyTables:
    """Read-only columnar view of one :class:`CompiledTaxonomy`.

    The export surface for batch consumers (:mod:`repro.core.kernel`):
    instead of re-deriving per-node structure through the string-keyed
    query API pair by pair, a kernel reads these tables once and works
    in dense integer IDs.  Scalar per-node columns are stdlib
    ``array`` objects (cheap to scan); the ancestor-distance
    maps and descendant bitsets are shared with the index itself —
    tuples on a freshly compiled index, lazy mmap-backed views on an
    artifact-loaded one — and support only indexing; they must be
    treated as immutable.  ``child_ids`` lets a consumer walk down
    the DAG from any node.
    """

    __slots__ = ("names", "ids", "size", "max_depth", "depths",
                 "child_ids", "ancestor_distances", "descendant_bits",
                 "descendant_counts")

    def __init__(self, names: list[str], ids: dict[str, int],
                 depths: "array[int]", max_depth: int,
                 child_ids: list[tuple[int, ...]],
                 ancestor_distances,
                 descendant_bits,
                 descendant_counts: "array[int]"):
        self.names = names
        self.ids = ids
        self.size = len(names)
        self.depths = depths
        self.max_depth = max_depth
        self.child_ids = child_ids
        self.ancestor_distances = ancestor_distances
        self.descendant_bits = descendant_bits
        self.descendant_counts = descendant_counts


class CompiledTaxonomy:
    """Precomputed query structures over a specialization DAG.

    Serves the query API of :class:`repro.soqa.graph.Taxonomy`
    (``depth``/``max_depth``/``ancestors_with_distance``/
    ``common_ancestors``/``mrca``/``shortest_path_length``/
    ``descendant_count``/``descendants``/``path_to_root``), which
    delegates every query here.
    """

    __slots__ = (
        "_names", "_ids", "_parent_ids", "_child_ids",
        "_ancestor_distances",
        "_descendant_bits", "_descendant_counts", "_depths", "_longest",
        "_max_depth", "_neighbor_ids", "_tables",
    )

    def __init__(self, parents: Mapping[str, Iterable[str]]):
        self._names: list[str] = list(parents)
        self._ids: dict[str, int] = {
            name: index for index, name in enumerate(self._names)}
        self._parent_ids: list[tuple[int, ...]] = []
        child_ids: list[list[int]] = [[] for _ in self._names]
        for index, name in enumerate(self._names):
            row = []
            for parent in parents[name]:
                parent_id = self._ids.get(parent)
                if parent_id is None:
                    raise UnknownConceptError(parent)
                row.append(parent_id)
                child_ids[parent_id].append(index)
            self._parent_ids.append(tuple(row))
        self._child_ids: list[tuple[int, ...]] = [
            tuple(row) for row in child_ids]
        self._compile()
        self._neighbor_ids: list[tuple[int, ...]] | None = None
        self._tables: TaxonomyTables | None = None

    @classmethod
    def from_state(cls, names: list[str],
                   parent_ids: list[tuple[int, ...]],
                   ancestor_distances,
                   descendant_bits,
                   depths: list[int], longest: list[int],
                   max_depth: int,
                   descendant_counts=None) -> "CompiledTaxonomy":
        """Rebuild an index from previously compiled state.

        The deserialization entry point for persisted index artifacts
        (:mod:`repro.soqa.indexstore`): everything :meth:`_compile`
        derives is supplied, so construction is O(edges) for the child
        adjacency instead of a full topological recompile.  The bitset
        and distance columns only need indexing/iteration — the
        artifact loader passes lazy mmap-backed views, not lists — and
        ``descendant_counts``, when given, spares IC-style consumers
        from ever materializing a descendant bitset.
        """
        self = cls.__new__(cls)
        self._names = names
        self._ids = {name: index for index, name in enumerate(names)}
        self._parent_ids = parent_ids
        child_ids: list[list[int]] = [[] for _ in names]
        for index, row in enumerate(parent_ids):
            for parent in row:
                child_ids[parent].append(index)
        self._child_ids = [tuple(row) for row in child_ids]
        self._ancestor_distances = ancestor_distances
        self._descendant_bits = descendant_bits
        self._descendant_counts = descendant_counts
        self._depths = depths
        self._longest = longest
        self._max_depth = max_depth
        self._neighbor_ids = None
        self._tables = None
        return self

    def state(self) -> dict:
        """The compiled components, for artifact serialization."""
        return {
            "names": self._names,
            "parent_ids": self._parent_ids,
            "ancestor_distances": self._ancestor_distances,
            "descendant_bits": self._descendant_bits,
            "depths": self._depths,
            "longest": self._longest,
            "max_depth": self._max_depth,
        }

    # -- compilation --------------------------------------------------------------

    def _topological_ids(self) -> list[int]:
        in_degree = [len(row) for row in self._parent_ids]
        queue = deque(index for index, degree in enumerate(in_degree)
                      if degree == 0)
        order: list[int] = []
        while queue:
            index = queue.popleft()
            order.append(index)
            for child in self._child_ids[index]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    queue.append(child)
        if len(order) < len(self._names):
            raise OntologyParseError(
                f"is-a cycle detected: {self._cycle(in_degree)}")
        return order

    def _cycle(self, in_degree: list[int]) -> str:
        """One is-a cycle among the nodes a topological pass left over.

        Every left-over node keeps a left-over parent, so walking such
        parents from any of them must revisit a node.
        """
        current = next(index for index, degree in enumerate(in_degree)
                       if degree)
        trail: list[int] = []
        seen: dict[int, int] = {}
        while current not in seen:
            seen[current] = len(trail)
            trail.append(current)
            current = next(parent for parent in self._parent_ids[current]
                           if in_degree[parent])
        cycle = trail[seen[current]:] + [current]
        return " -> ".join(self._names[index] for index in cycle)

    def _compile(self) -> None:
        size = len(self._names)
        order = self._topological_ids()
        ancestor_distances: list[dict[int, int]] = [{}] * size
        depths = [0] * size
        longest = [0] * size
        for index in order:
            distances = {index: 0}
            row = self._parent_ids[index]
            for parent in row:
                for ancestor, distance in ancestor_distances[parent].items():
                    candidate = distance + 1
                    known = distances.get(ancestor)
                    if known is None or candidate < known:
                        distances[ancestor] = candidate
            if row:
                depths[index] = 1 + min(depths[parent] for parent in row)
                longest[index] = 1 + max(longest[parent] for parent in row)
            ancestor_distances[index] = distances
        descendant_bits = [0] * size
        for index in reversed(order):
            bits = 1 << index
            for child in self._child_ids[index]:
                bits |= descendant_bits[child]
            descendant_bits[index] = bits
        self._ancestor_distances = ancestor_distances
        self._descendant_bits = descendant_bits
        self._descendant_counts = None
        self._depths = depths
        self._longest = longest
        self._max_depth = max(longest, default=0)

    # -- table export -------------------------------------------------------------

    def export_tables(self) -> TaxonomyTables:
        """The columnar :class:`TaxonomyTables` view (built once).

        The descendant-popcount column (``descendant_counts``) is
        materialized here — one popcount per node — so IC-style
        consumers never touch the big-int bitsets on the hot path.  On
        an artifact-loaded index the distance and bitset columns are
        lazy mmap-backed views and the counts come persisted: they are
        handed over as-is, so exporting tables stays O(1) instead of
        decoding the whole corpus.
        """
        if self._tables is None:
            distances = self._ancestor_distances
            if isinstance(distances, list):
                distances = tuple(distances)
            descendant_bits = self._descendant_bits
            if isinstance(descendant_bits, list):
                descendant_bits = tuple(descendant_bits)
            counts = self._descendant_counts
            if counts is None:
                counts = array("l", (bits.bit_count()
                                     for bits in descendant_bits))
            self._tables = TaxonomyTables(
                names=self._names,
                ids=self._ids,
                depths=array("l", self._depths),
                max_depth=self._max_depth,
                child_ids=self._child_ids,
                ancestor_distances=distances,
                descendant_bits=descendant_bits,
                descendant_counts=counts,
            )
        return self._tables

    # -- basic structure ----------------------------------------------------------

    def __contains__(self, node: str) -> bool:
        return node in self._ids

    def __len__(self) -> int:
        return len(self._names)

    def nodes(self) -> list[str]:
        return list(self._names)

    def _id(self, node: str) -> int:
        index = self._ids.get(node)
        if index is None:
            raise UnknownConceptError(node)
        return index

    # -- depths -------------------------------------------------------------------

    def depth(self, node: str) -> int:
        return self._depths[self._id(node)]

    def max_depth(self) -> int:
        return self._max_depth

    # -- ancestors and MRCA -------------------------------------------------------

    def ancestors_with_distance(self, node: str) -> dict[str, int]:
        names = self._names
        return {names[ancestor]: distance
                for ancestor, distance
                in self._ancestor_distances[self._id(node)].items()}

    def common_ancestors(self, first: str, second: str) -> set[str]:
        first_distances = self._ancestor_distances[self._id(first)]
        second_distances = self._ancestor_distances[self._id(second)]
        names = self._names
        return {names[index] for index
                in first_distances.keys() & second_distances.keys()}

    def mrca(self, first: str, second: str) -> tuple[str, int, int] | None:
        return self._mrca_ids(self._id(first), self._id(second))

    def _mrca_ids(self, first: int,
                  second: int) -> tuple[str, int, int] | None:
        # Intersect the precomputed distance maps by iterating the
        # smaller one and probing the larger.
        first_distances = self._ancestor_distances[first]
        second_distances = self._ancestor_distances[second]
        if len(second_distances) < len(first_distances):
            smaller, larger = second_distances, first_distances
        else:
            smaller, larger = first_distances, second_distances
        lookup = larger.get
        best_sum = -1
        best_id = -1
        tied = False
        for ancestor, near in smaller.items():
            far = lookup(ancestor)
            if far is not None:
                total = near + far
                if best_sum < 0 or total < best_sum:
                    best_sum = total
                    best_id = ancestor
                    tied = False
                elif total == best_sum:
                    tied = True
        if best_sum < 0:
            return None
        names = self._names
        if tied:
            # Among the minimal-sum ancestors prefer the deeper one,
            # then the lexicographically smaller name.
            depths = self._depths
            best: tuple[int, str] | None = None
            for ancestor, near in smaller.items():
                far = lookup(ancestor)
                if far is not None and near + far == best_sum:
                    key = (-depths[ancestor], names[ancestor])
                    if best is None or key < best:
                        best = key
                        best_id = ancestor
        return (names[best_id], first_distances[best_id],
                second_distances[best_id])

    def _path_sum_ids(self, first: int, second: int) -> int | None:
        """Minimal ``n1 + n2`` over common ancestors (via-ancestor path).

        The full MRCA tie-break is irrelevant for the path *length* —
        every minimal-sum ancestor yields the same sum.
        """
        first_distances = self._ancestor_distances[first]
        second_distances = self._ancestor_distances[second]
        if len(second_distances) < len(first_distances):
            first_distances, second_distances = (second_distances,
                                                 first_distances)
        lookup = second_distances.get
        best = -1
        for ancestor, near in first_distances.items():
            far = lookup(ancestor)
            if far is not None:
                total = near + far
                if best < 0 or total < best:
                    best = total
        return best if best >= 0 else None

    # -- shortest paths -----------------------------------------------------------

    def shortest_path_length(self, first: str, second: str,
                             policy: str = _VIA_ANCESTOR) -> int | None:
        first_id = self._id(first)
        second_id = self._id(second)
        if first_id == second_id:
            return 0
        if policy == _VIA_ANCESTOR:
            return self._path_sum_ids(first_id, second_id)
        if policy == _ANY_PATH:
            return self._undirected_distance(first_id, second_id)
        raise ValueError(f"unknown path policy {policy!r}")

    def _neighbors(self) -> list[tuple[int, ...]]:
        adjacency = self._neighbor_ids
        if adjacency is None:
            adjacency = [parents + children
                         for parents, children
                         in zip(self._parent_ids, self._child_ids)]
            self._neighbor_ids = adjacency
        return adjacency

    def _undirected_distance(self, first: int, second: int) -> int | None:
        # Level-order BFS over integer adjacency — no string hashing, a
        # flat bytearray as the seen set.
        adjacency = self._neighbors()
        seen = bytearray(len(self._names))
        seen[first] = 1
        frontier = [first]
        distance = 0
        while frontier:
            distance += 1
            next_frontier: list[int] = []
            for index in frontier:
                for neighbor in adjacency[index]:
                    if neighbor == second:
                        return distance
                    if not seen[neighbor]:
                        seen[neighbor] = 1
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return None

    # -- subtree statistics -------------------------------------------------------

    def descendant_count(self, node: str) -> int:
        index = self._id(node)
        counts = self._descendant_counts
        if counts is not None:
            return counts[index]
        return self._descendant_bits[index].bit_count()

    def shared_descendant_count(self, first: str, second: str) -> int:
        """Descendants-or-self common to both nodes: one bitset popcount."""
        bits = self._descendant_bits
        return (bits[self._id(first)] & bits[self._id(second)]).bit_count()

    def descendants(self, node: str) -> set[str]:
        index = self._id(node)
        bits = self._descendant_bits[index] & ~(1 << index)
        names = self._names
        return {names[child] for child in iter_bits(bits)}

    def path_to_root(self, node: str) -> list[str]:
        current = self._id(node)
        names = self._names
        depths = self._depths
        path = [names[current]]
        while self._parent_ids[current]:
            current = min(self._parent_ids[current],
                          key=lambda parent: (depths[parent], names[parent]))
            path.append(names[current])
        return path
