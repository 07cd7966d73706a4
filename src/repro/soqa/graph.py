"""Taxonomy graph algorithms for distance-based similarity measures.

The distance-based and information-theoretic SimPack measures need graph
primitives over the specialization DAG: depths, shortest paths, most
recent common ancestors (MRCA), and subtree sizes.  The paper (section
2.2) notes that in a multiple-inheritance DAG the ontology distance is
"usually defined as the shortest path going through a common ancestor or
as the shortest path in general, potentially connecting two concepts
through common descendants"; both policies are implemented here and the
choice is benchmarked in the Figure-3 ablation.

A :class:`Taxonomy` is deliberately decoupled from the SOQA meta model —
it is built from ``(node, parents)`` pairs — so the same algorithms serve
single ontologies, the unified Super-Thing tree, and synthetic taxonomies
in the scaling benches.  Every query is served by the compiled index of
:mod:`repro.soqa.graphindex` (ancestors stored once per node, as
distance maps), built on the first query or warm-loaded from a
persisted artifact (:mod:`repro.soqa.indexstore`).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import UnknownConceptError
from repro.soqa.graphindex import CompiledTaxonomy

__all__ = ["PathPolicy", "Taxonomy"]

#: Shortest-path policies (paper section 2.2).
PathPolicy = str
VIA_ANCESTOR: PathPolicy = "via_ancestor"
ANY_PATH: PathPolicy = "any"


class Taxonomy:
    """An immutable specialization DAG with cached graph queries.

    Every query is answered by a
    :class:`~repro.soqa.graphindex.CompiledTaxonomy`, which is built
    lazily on the first query (construction never compiles).
    """

    def __init__(self, parents: Mapping[str, Iterable[str]]):
        self._parents: dict[str, tuple[str, ...]] = {
            node: tuple(node_parents)
            for node, node_parents in parents.items()
        }
        self._children: dict[str, list[str]] = {
            node: [] for node in self._parents}
        for node, node_parents in self._parents.items():
            for parent in node_parents:
                if parent not in self._parents:
                    raise UnknownConceptError(parent)
                self._children[parent].append(node)
        self._ancestor_cache: dict[str, dict[str, int]] = {}
        self._descendant_count_cache: dict[str, int] = {}
        self._compiled: CompiledTaxonomy | None = None
        self._index_store = None
        self._index_fingerprint = ""
        #: How the compiled index was obtained: ``None`` until built,
        #: else ``{"source": "compiled"|"artifact", "seconds": ...}``.
        self.index_provenance: dict | None = None

    # -- compiled index -----------------------------------------------------------

    @property
    def is_compiled(self) -> bool:
        """Whether the compiled index has been built."""
        return self._compiled is not None

    def compile(self) -> CompiledTaxonomy:
        """Build (once) and return the compiled index."""
        if self._compiled is None:
            self._compiled = self._build_index()
        return self._compiled

    def attach_index_store(self, store, fingerprint: str) -> None:
        """Warm-start the compiled index from a persisted artifact.

        ``store`` is a :class:`~repro.soqa.indexstore.IndexStore`;
        once attached, the (still lazy) index build goes through
        ``store.load_or_compile`` — loading the fingerprint-keyed
        artifact when one exists, else compiling and persisting the
        result for the next run.  Must be called before the first
        query; attaching after the index was built is a no-op.
        """
        self._index_store = store
        self._index_fingerprint = fingerprint

    def _build_index(self) -> CompiledTaxonomy:
        """Compile the index, reporting build time to telemetry."""
        # Imported lazily: the soqa layer must not import repro.core at
        # module load time (repro.core.__init__ imports back into soqa).
        import time

        from repro.core import telemetry

        if self._index_store is not None:
            compiled, provenance = self._index_store.load_or_compile(
                self._parents, self._index_fingerprint)
            self.index_provenance = provenance
            telemetry.gauge("graphindex.nodes", len(self._parents))
            return compiled
        with telemetry.span("graphindex.compile", nodes=len(self._parents)):
            started = time.perf_counter()
            compiled = CompiledTaxonomy(self._parents)
            elapsed = time.perf_counter() - started
        telemetry.count("graphindex.compiles")
        telemetry.gauge("graphindex.nodes", len(self._parents))
        telemetry.observe("graphindex.compile_seconds", elapsed)
        self.index_provenance = {"source": "compiled", "seconds": elapsed,
                                 "nodes": len(self._parents)}
        return compiled

    # -- basic structure ---------------------------------------------------------

    def __contains__(self, node: str) -> bool:
        return node in self._parents

    def __len__(self) -> int:
        return len(self._parents)

    def nodes(self) -> list[str]:
        """All node names, in insertion order."""
        return list(self._parents)

    def parents(self, node: str) -> tuple[str, ...]:
        """Direct superconcepts of ``node``."""
        self._require(node)
        return self._parents[node]

    def children(self, node: str) -> list[str]:
        """Direct subconcepts of ``node``."""
        self._require(node)
        return list(self._children[node])

    def roots(self) -> list[str]:
        """Nodes with no parent."""
        return [node for node, node_parents in self._parents.items()
                if not node_parents]

    def leaves(self) -> list[str]:
        """Nodes with no child."""
        return [node for node, node_children in self._children.items()
                if not node_children]

    def _require(self, node: str) -> None:
        if node not in self._parents:
            raise UnknownConceptError(node)

    # -- depths -------------------------------------------------------------------

    def depth(self, node: str) -> int:
        """Shortest edge distance from ``node`` up to any root."""
        return self.compile().depth(node)

    def max_depth(self) -> int:
        """Length of the longest root-to-leaf path (``MAX`` in Eq. 5).

        The longest path from any root, not the largest shortest root
        distance, which would underestimate multi-parent chains.
        """
        return self.compile().max_depth()

    # -- ancestors and MRCA ----------------------------------------------------------

    def ancestors_with_distance(self, node: str) -> dict[str, int]:
        """Map every ancestor-or-self of ``node`` to its minimum distance."""
        cached = self._ancestor_cache.get(node)
        if cached is None:
            cached = self.compile().ancestors_with_distance(node)
            self._ancestor_cache[node] = cached
        return cached

    def common_ancestors(self, first: str, second: str) -> set[str]:
        """All concepts subsuming both nodes (``S(Rx, Ry)`` in Eq. 7)."""
        return self.compile().common_ancestors(first, second)

    def mrca(self, first: str, second: str) -> tuple[str, int, int] | None:
        """The most recent common ancestor and the distances to it.

        Returns ``(ancestor, n1, n2)`` minimizing ``n1 + n2`` (ties broken
        by deeper ancestor, then name, for determinism), or ``None`` when
        the nodes share no ancestor (distinct components).
        """
        return self.compile().mrca(first, second)

    # -- shortest paths -----------------------------------------------------------------

    def shortest_path_length(self, first: str, second: str,
                             policy: PathPolicy = VIA_ANCESTOR) -> int | None:
        """Edge count of the shortest path between two concepts.

        ``policy="via_ancestor"`` restricts paths to those passing through
        a common ancestor (up from one concept, down to the other);
        ``policy="any"`` allows arbitrary up/down alternation, potentially
        connecting concepts through common descendants (paper section
        2.2).  Returns ``None`` if no such path exists.
        """
        return self.compile().shortest_path_length(first, second, policy)

    # -- subtree statistics ----------------------------------------------------------------

    def descendant_count(self, node: str) -> int:
        """Number of distinct descendants-or-self of ``node``.

        This is the subclass count used to estimate concept probabilities
        for the information-theoretic measures when the instance space is
        sparse (the paper's proposal in section 2.2).
        """
        cached = self._descendant_count_cache.get(node)
        if cached is None:
            cached = self.compile().descendant_count(node)
            self._descendant_count_cache[node] = cached
        return cached

    def shared_descendant_count(self, first: str, second: str) -> int:
        """Number of distinct descendants-or-self ``first`` and
        ``second`` have in common."""
        return self.compile().shared_descendant_count(first, second)

    def descendants(self, node: str) -> set[str]:
        """All distinct descendants of ``node`` (excluding itself)."""
        return self.compile().descendants(node)

    def path_to_root(self, node: str) -> list[str]:
        """One shortest node sequence from ``node`` up to a root.

        Used by mapping M2 to derive string sequences from concepts.
        Deterministic: among equally short parents the lexicographically
        smallest is taken.
        """
        return self.compile().path_to_root(node)
