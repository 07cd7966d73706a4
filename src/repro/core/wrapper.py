"""The SOQAWrapper for SimPack (paper section 3).

The internal SST component "in charge of retrieving ontological data as
required by the SimPack similarity measure classes":

* root/super/sub concepts, depths and distances come from the unified
  taxonomy (:class:`~repro.core.unified.UnifiedTree`),
* feature sets (mapping M1) and string sequences (mapping M2) come from
  the concepts' SOQA meta-model data,
* the full-text corpus index for the TFIDF measure is built lazily over
  the exported descriptions of *all* loaded concepts,
* information content over the unified tree backs Resnik/Lin/
  Jiang-Conrath.

Everything is cached per wrapper instance; the facade creates a fresh
wrapper whenever the set of loaded ontologies changes.
"""

from __future__ import annotations

import threading

from repro.core.results import QualifiedConcept
from repro.core.unified import UnifiedTree
from repro.simpack.infocontent import InformationContent
from repro.simpack.text.index import InvertedIndex
from repro.simpack.text.tfidf import TfidfVectorSpace
from repro.soqa.api import SOQA

__all__ = ["SOQAWrapperForSimPack"]


class SOQAWrapperForSimPack:
    """Adapter between SOQA ontology data and SimPack measure inputs."""

    def __init__(self, soqa: SOQA, tree: UnifiedTree):
        self.soqa = soqa
        self.tree = tree
        self._feature_cache: dict[QualifiedConcept, frozenset[str]] = {}
        self._sequence_cache: dict[QualifiedConcept, tuple[str, ...]] = {}
        self._vector_space: TfidfVectorSpace | None = None
        self._bm25: "object | None" = None
        self._information_content: dict[str, InformationContent] = {}
        self._kernel: "object | None" = None
        # Guards every lazy single-build attribute below.  The wrapper is
        # shared across server request threads; without the lock two
        # concurrent first calls each build (and then disagree on) the
        # kernel / vector space / IC tables.  A built kernel is read
        # without it.
        self._lazy_lock = threading.RLock()

    def __getstate__(self) -> dict:
        # Locks cannot cross process boundaries; each copy gets its own.
        state = dict(self.__dict__)
        del state["_lazy_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lazy_lock = threading.RLock()

    # -- taxonomy ------------------------------------------------------------

    @property
    def taxonomy(self):
        """The unified specialization DAG over all loaded ontologies."""
        return self.tree.taxonomy

    def node(self, concept: QualifiedConcept) -> str:
        """The unified-tree node of a qualified concept."""
        return self.tree.node_of(concept)

    def kernel(self):
        """The batch :class:`~repro.core.kernel.SimilarityKernel`.

        Built once per wrapper (and therefore once per corpus state —
        the facade swaps the wrapper when the loaded ontologies
        change).  Imported lazily to keep the wrapper importable from
        the kernel module itself.
        """
        kernel = self._kernel
        if kernel is not None:  # built: no lock to wait on
            return kernel
        with self._lazy_lock:
            if self._kernel is None:
                from repro.core.kernel import SimilarityKernel
                self._kernel = SimilarityKernel(self)
            return self._kernel

    @property
    def has_kernel(self) -> bool:
        """Whether :meth:`kernel` is built; never builds or locks."""
        return self._kernel is not None

    def depth(self, concept: QualifiedConcept) -> int:
        """Depth of the concept below the unified root."""
        return self.taxonomy.depth(self.node(concept))

    def distance(self, first: QualifiedConcept, second: QualifiedConcept,
                 policy: str = "via_ancestor") -> int | None:
        """Shortest path length between two concepts in the unified tree."""
        return self.taxonomy.shortest_path_length(
            self.node(first), self.node(second), policy=policy)

    # -- mapping M1: feature sets ---------------------------------------------------

    def feature_set(self, concept: QualifiedConcept) -> frozenset[str]:
        """The concept's feature set (attribute/method/relationship and
        superconcept names), for the vector-based measures."""
        cached = self._feature_cache.get(concept)
        if cached is None:
            meta_concept = self.soqa.concept(concept.concept_name,
                                             concept.ontology_name)
            cached = meta_concept.feature_set()
            self._feature_cache[concept] = cached
        return cached

    # -- mapping M2: string sequences --------------------------------------------------

    def string_sequence(self, concept: QualifiedConcept) -> tuple[str, ...]:
        """The concept's string sequence for the sequence Levenshtein.

        Mapping M2 traverses the graph from the resource along its edges.
        The sequence walks *up* the specialization path to the unified
        root (so related concepts share a long suffix) and then lists the
        concept's property names (so structural overlap also counts):
        ``(name, super, ..., root, prop1, prop2, ...)``.
        """
        cached = self._sequence_cache.get(concept)
        if cached is None:
            path = self.tree.path_to_root(concept)
            meta_concept = self.soqa.concept(concept.concept_name,
                                             concept.ontology_name)
            properties = sorted(
                set(meta_concept.attribute_names())
                | set(meta_concept.method_names())
                | set(meta_concept.relationship_names()))
            cached = tuple(path) + tuple(properties)
            self._sequence_cache[concept] = cached
        return cached

    # -- full-text corpus ----------------------------------------------------------------

    def vector_space(self) -> TfidfVectorSpace:
        """The TFIDF vector space over all concepts' text descriptions.

        Document ids are unified-tree node names; built on first use.
        """
        with self._lazy_lock:
            if self._vector_space is None:
                index = InvertedIndex()
                for ontology in self.soqa.ontologies():
                    for concept in ontology:
                        node = self.tree.key(ontology.name, concept.name)
                        index.add_document(
                            node, ontology.concept_description(concept.name))
                self._vector_space = TfidfVectorSpace(index)
            return self._vector_space

    def bm25(self):
        """A BM25 scorer over the same concept-description index."""
        with self._lazy_lock:
            if self._bm25 is None:
                from repro.simpack.text.bm25 import BM25Scorer

                self._bm25 = BM25Scorer(self.vector_space().index)
            return self._bm25

    # -- information content ----------------------------------------------------------------

    def information_content(self, source: str = "subclasses",
                            ) -> InformationContent:
        """IC values over the unified taxonomy.

        ``source="instances"`` counts the direct instances of every
        concept across all ontologies (the alternative estimator the
        paper discusses for richly-instantiated ontologies).
        """
        with self._lazy_lock:
            cached = self._information_content.get(source)
            if cached is None:
                instance_counts: dict[str, int] | None = None
                if source == "instances":
                    instance_counts = {}
                    for ontology in self.soqa.ontologies():
                        for concept in ontology:
                            node = self.tree.key(ontology.name, concept.name)
                            instance_counts[node] = len(concept.instances)
                cached = InformationContent(self.taxonomy, source=source,
                                            instance_counts=instance_counts)
                self._information_content[source] = cached
            return cached
