"""Deriving concept correspondences from SST similarity calculations."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.facade import SOQASimPackToolkit
from repro.core.registry import Measure
from repro.core.results import QualifiedConcept
from repro.errors import SSTCoreError

__all__ = ["Correspondence", "InstanceMatcher", "OntologyMatcher"]


@dataclass(frozen=True)
class Correspondence:
    """One proposed concept correspondence between two ontologies."""

    first: QualifiedConcept
    second: QualifiedConcept
    confidence: float

    def as_pair(self) -> tuple[str, str]:
        """The correspondence as a bare concept-name pair."""
        return self.first.concept_name, self.second.concept_name

    def __str__(self) -> str:
        return f"{self.first} = {self.second} ({self.confidence:.3f})"


class OntologyMatcher:
    """Greedy one-to-one matcher over SST similarity scores.

    The matcher scores every concept pair of the two ontologies with a
    measure (or an amalgamation of measures registered with the facade),
    then selects correspondences greedily by descending score — the
    standard baseline strategy of alignment systems — subject to a
    confidence ``threshold`` and one-to-one mapping constraints.
    """

    def __init__(self, sst: SOQASimPackToolkit,
                 measure: int | str | Measure = Measure.TFIDF,
                 threshold: float = 0.5,
                 workers: int | None = None):
        if not 0.0 <= threshold <= 1.0:
            raise SSTCoreError(
                f"threshold must be within [0, 1], got {threshold}")
        self.sst = sst
        self.measure = measure
        self.threshold = threshold
        self.workers = workers

    def _concepts_of(self, ontology_name: str) -> list[QualifiedConcept]:
        ontology = self.sst.soqa.ontology(ontology_name)
        return [QualifiedConcept(ontology_name, concept.name)
                for concept in ontology]

    def score_pairs(self, first_ontology: str, second_ontology: str,
                    ) -> list[Correspondence]:
        """All cross-ontology pairs with their scores, best first.

        Candidate scoring is the matcher's hot loop (|O1| x |O2| pairs);
        it runs through the batch engine, so ``workers`` set on the
        matcher parallelizes it.
        """
        runner = self.sst.runner(self.measure)
        if not runner.is_normalized():
            raise SSTCoreError(
                f"matching needs a normalized measure; {runner.name} "
                "returns raw values")
        first_concepts = self._concepts_of(first_ontology)
        second_concepts = self._concepts_of(second_ontology)
        candidate_pairs = [(first, second)
                           for first in first_concepts
                           for second in second_concepts]
        engine = self.sst.engine(self.measure, workers=self.workers)
        scores = engine.score_pairs(candidate_pairs)
        pairs = [Correspondence(first, second, score)
                 for (first, second), score in zip(candidate_pairs, scores)]
        pairs.sort(key=lambda correspondence: (
            -correspondence.confidence,
            correspondence.first.concept_name,
            correspondence.second.concept_name))
        return pairs

    def match(self, first_ontology: str, second_ontology: str,
              ) -> list[Correspondence]:
        """A one-to-one alignment of the two ontologies.

        Greedy selection by descending confidence; every concept takes
        part in at most one correspondence and scores below the
        threshold are discarded.
        """
        matched_first: set[str] = set()
        matched_second: set[str] = set()
        alignment: list[Correspondence] = []
        for correspondence in self.score_pairs(first_ontology,
                                               second_ontology):
            if correspondence.confidence < self.threshold:
                break  # pairs are sorted; everything below is too weak
            if correspondence.first.concept_name in matched_first:
                continue
            if correspondence.second.concept_name in matched_second:
                continue
            matched_first.add(correspondence.first.concept_name)
            matched_second.add(correspondence.second.concept_name)
            alignment.append(correspondence)
        return alignment

    def top_candidates(self, concept_name: str, ontology_name: str,
                       target_ontology: str, k: int = 5,
                       ) -> list[Correspondence]:
        """The k best correspondence candidates for one concept."""
        anchor = QualifiedConcept(ontology_name, concept_name)
        targets = self._concepts_of(target_ontology)
        engine = self.sst.engine(self.measure, workers=self.workers)
        scores = engine.score_against(anchor, targets)
        candidates = [Correspondence(anchor, target, score)
                      for target, score in zip(targets, scores)]
        candidates.sort(key=lambda correspondence: (
            -correspondence.confidence,
            correspondence.second.concept_name))
        return candidates[:k]


class InstanceMatcher:
    """Record linkage: one-to-one matching of *individuals*.

    The paper motivates SST with finding "semantically equivalent schema
    elements" for data integration; the instance-level counterpart is
    linking the individuals themselves.  Scores come from the
    :class:`~repro.core.instances.InstanceSimilarityService` views
    (``features``, ``text``, or ``concepts``); selection is the same
    greedy one-to-one strategy as the concept matcher.
    """

    def __init__(self, sst: SOQASimPackToolkit, view: str = "text",
                 threshold: float = 0.5):
        from repro.core.instances import InstanceSimilarityService

        if not 0.0 <= threshold <= 1.0:
            raise SSTCoreError(
                f"threshold must be within [0, 1], got {threshold}")
        self.service = InstanceSimilarityService(sst)
        self.view = view
        self.threshold = threshold

    def _instances_of(self, ontology_name: str) -> list[str]:
        return [key.instance_name
                for key in self.service.all_instances()
                if key.ontology_name == ontology_name]

    def match(self, first_ontology: str, second_ontology: str,
              ) -> list[Correspondence]:
        """A one-to-one linkage of the two ontologies' individuals."""
        pairs = []
        for first in self._instances_of(first_ontology):
            for second in self._instances_of(second_ontology):
                confidence = self.service.get_similarity(
                    first, first_ontology, second, second_ontology,
                    self.view)
                pairs.append(Correspondence(
                    QualifiedConcept(first_ontology, first),
                    QualifiedConcept(second_ontology, second),
                    confidence))
        pairs.sort(key=lambda correspondence: (
            -correspondence.confidence,
            correspondence.first.concept_name,
            correspondence.second.concept_name))
        matched_first: set[str] = set()
        matched_second: set[str] = set()
        linkage = []
        for correspondence in pairs:
            if correspondence.confidence < self.threshold:
                break
            if correspondence.first.concept_name in matched_first:
                continue
            if correspondence.second.concept_name in matched_second:
                continue
            matched_first.add(correspondence.first.concept_name)
            matched_second.add(correspondence.second.concept_name)
            linkage.append(correspondence)
        return linkage
