"""The single ontology tree all loaded ontologies are incorporated into.

Using concepts from different ontologies in the same similarity
calculation requires a contiguous, traversable path between them (paper
section 3).  SST therefore builds one tree over all loaded ontologies;
two strategies exist (paper Fig. 3):

* **Super Thing** (``SUPER_THING``, the paper's choice): each ontology
  keeps its own root concept — a virtual per-ontology ``Thing`` is
  inserted above ontologies with several root concepts — and all these
  roots become direct subconcepts of one ``Super Thing``.  Domains stay
  separated: ``Student`` remains closer to ``Professor`` than to
  ``Blackbird``.
* **merged Thing** (``MERGED_THING``, the rejected alternative, kept for
  the Figure-3 ablation): the root concepts of all ontologies are
  replaced by one general ``Thing``, jumbling arbitrary domains into
  immediate neighborhood.

Nodes of the unified taxonomy are the ``ontology:Concept`` display
strings of :class:`~repro.core.results.QualifiedConcept`.
"""

from __future__ import annotations

from repro.core.results import QualifiedConcept
from repro.errors import SSTCoreError, UnknownConceptError
from repro.soqa.api import SOQA
from repro.soqa.graph import Taxonomy

__all__ = ["MERGED_THING", "SUPER_THING", "UnifiedTree"]

SUPER_THING = "super_thing"
MERGED_THING = "merged_thing"

#: Node name of the Super Thing root concept.
SUPER_THING_NODE = "Super Thing"

#: Node name of the merged Thing root (merged strategy only).
MERGED_THING_NODE = "Thing"


class UnifiedTree:
    """The unified taxonomy over all ontologies of a SOQA facade."""

    def __init__(self, soqa: SOQA, strategy: str = SUPER_THING):
        if strategy not in (SUPER_THING, MERGED_THING):
            raise SSTCoreError(
                f"unknown tree-building strategy {strategy!r}; expected "
                f"{SUPER_THING!r} or {MERGED_THING!r}")
        self.soqa = soqa
        self.strategy = strategy
        #: The global root plus every virtual per-ontology root.
        self._virtual_nodes: set[str] = {self.root}
        self.taxonomy = self._build()
        self._concepts: list[QualifiedConcept] | None = None

    # -- construction -----------------------------------------------------------

    def _build(self) -> Taxonomy:
        parents: dict[str, list[str]] = {}
        if self.strategy == SUPER_THING:
            parents[SUPER_THING_NODE] = []
        else:
            parents[MERGED_THING_NODE] = []
        for ontology in self.soqa.ontologies():
            if self.strategy == SUPER_THING:
                # One virtual Thing per ontology under Super Thing; each
                # ontology root hangs below it.  An ontology whose source
                # already has a single explicit root still gets the
                # virtual node, so every ontology root sits at the same
                # level — matching the paper's owl:Thing-per-ontology
                # picture.
                virtual = self.key(ontology.name, "Thing")
                self._virtual_nodes.add(virtual)
                parents[virtual] = [SUPER_THING_NODE]
                root_parent = [virtual]
            else:
                root_parent = [MERGED_THING_NODE]
            # The wholesale parent map instead of concept objects: on a
            # store-backed ontology this is one indexed edge scan, so
            # building the unified tree over 100k+ stored synsets never
            # materializes the concept set.
            for concept_name, super_names in (
                    ontology.superconcept_map().items()):
                node = self.key(ontology.name, concept_name)
                if super_names:
                    parents[node] = [
                        self.key(ontology.name, super_name)
                        for super_name in super_names]
                else:
                    parents[node] = list(root_parent)
        return Taxonomy(parents)

    # -- naming -------------------------------------------------------------------

    @staticmethod
    def key(ontology_name: str, concept_name: str) -> str:
        """The taxonomy node name of a qualified concept."""
        return f"{ontology_name}:{concept_name}"

    def node_of(self, concept: QualifiedConcept) -> str:
        """The taxonomy node of ``concept``; validates existence."""
        node = self.key(concept.ontology_name, concept.concept_name)
        if node not in self.taxonomy:
            # Distinguish a missing ontology from a missing concept.
            self.soqa.ontology(concept.ontology_name)
            raise UnknownConceptError(concept.concept_name,
                                      concept.ontology_name)
        return node

    @property
    def root(self) -> str:
        """The unified tree's root node name."""
        if self.strategy == SUPER_THING:
            return SUPER_THING_NODE
        return MERGED_THING_NODE

    def is_virtual(self, node: str) -> bool:
        """Whether ``node`` is the global root or a virtual per-ontology one."""
        return node in self._virtual_nodes

    def concept_of(self, node: str) -> QualifiedConcept | None:
        """The qualified concept a node stands for (None for virtual nodes)."""
        if self.is_virtual(node):
            return None
        ontology_name, _, concept_name = node.partition(":")
        return QualifiedConcept(ontology_name, concept_name)

    # -- concept enumeration ----------------------------------------------------------

    def all_concepts(self) -> list[QualifiedConcept]:
        """Every real (non-virtual) concept in the unified tree.

        Built once per tree (the facade builds a new tree on
        ``refresh()``); each call returns a fresh copy.
        """
        if self._concepts is None:
            concepts = []
            for node in self.taxonomy.nodes():
                concept = self.concept_of(node)
                if concept is not None:
                    concepts.append(concept)
            self._concepts = concepts
        return list(self._concepts)

    def subtree_concepts(self, root: QualifiedConcept,
                         include_root: bool = True,
                         ) -> list[QualifiedConcept]:
        """All concepts in the taxonomy subtree under ``root``.

        This backs the paper's "all concepts from an ontology taxonomy
        (sub)tree" variant of the set-based services.
        """
        node = self.node_of(root)
        concepts: list[QualifiedConcept] = []
        if include_root:
            concepts.append(root)
        for descendant in sorted(self.taxonomy.descendants(node)):
            concept = self.concept_of(descendant)
            if concept is not None:
                concepts.append(concept)
        return concepts

    def path_to_root(self, concept: QualifiedConcept) -> list[str]:
        """Node names from the concept up to the unified root."""
        return self.taxonomy.path_to_root(self.node_of(concept))

    def index_info(self) -> dict:
        """State of the compiled graph index behind the unified taxonomy.

        The underlying :class:`~repro.soqa.graph.Taxonomy` builds its
        :class:`~repro.soqa.graphindex.CompiledTaxonomy` lazily on the
        first heavy query once the node count reaches the threshold;
        asking for the info triggers that build when eligible, so the
        report reflects how queries will actually be served.
        """
        self.taxonomy.index()
        return {
            "nodes": len(self.taxonomy),
            "index_threshold": self.taxonomy.index_threshold,
            "compiled": self.taxonomy.is_compiled,
        }
