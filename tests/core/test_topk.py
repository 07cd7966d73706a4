"""The k-most services select with a heap: same list as a full sort."""

import pytest

from repro.core.facade import _top_k
from repro.core.registry import Measure
from repro.core.results import ConceptAndSimilarity, QualifiedConcept


def _sorted_reference(candidates, values, k, best_first):
    """The full-sort ranking the heap selection must reproduce."""
    scored = [ConceptAndSimilarity(candidate.concept_name,
                                   candidate.ontology_name, value)
              for candidate, value in zip(candidates, values)]
    sign = -1.0 if best_first else 1.0
    scored.sort(key=lambda entry: (sign * entry.similarity,
                                   entry.ontology_name, entry.concept_name))
    return scored[:k]


#: Scores with a three-way tie at 0.5 and names that sort against the
#: candidate order, so only the name tie-break orders the tie group.
CANDIDATES = [QualifiedConcept(ontology, name) for ontology, name in (
    ("b", "z"), ("a", "y"), ("b", "a"), ("a", "x"), ("c", "c"),
    ("a", "b"))]
VALUES = [0.5, 0.9, 0.5, 0.1, 0.5, 0.0]


class TestTopK:
    @pytest.mark.parametrize("best_first", [True, False])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 6, 7, 100, -2])
    def test_matches_full_sort(self, k, best_first):
        assert _top_k(CANDIDATES, VALUES, k, best_first) \
            == _sorted_reference(CANDIDATES, VALUES, k, best_first)

    def test_tie_group_straddling_k(self):
        # Best-first: 0.9, then the 0.5 tie group, ordered by ontology
        # and then name, straddles k=2.
        ranked = _top_k(CANDIDATES, VALUES, 2, best_first=True)
        assert [(entry.ontology_name, entry.concept_name)
                for entry in ranked] == [("a", "y"), ("b", "a")]

    def test_empty_candidates(self):
        assert _top_k([], [], 10, best_first=True) == []


class TestServices:
    def _full_ranking(self, mini_sst, measure):
        candidates = mini_sst._candidates(
            None, None, QualifiedConcept("univ", "Professor"))
        values = [entry.similarity for entry in
                  mini_sst.get_similarity_to_set("Professor", "univ",
                                                 candidates, measure)]
        return candidates, values

    @pytest.mark.parametrize("best_first", [True, False])
    def test_services_equal_sorted_slice(self, mini_sst, best_first):
        measure = Measure.SHORTEST_PATH
        candidates, values = self._full_ranking(mini_sst, measure)
        service = (mini_sst.get_most_similar_concepts if best_first
                   else mini_sst.get_most_dissimilar_concepts)
        full = _sorted_reference(candidates, values, len(candidates),
                                 best_first)
        # A k whose cut falls inside a tie group.
        straddling = next(
            k for k in range(1, len(full))
            if full[k - 1].similarity == full[k].similarity)
        for k in (0, straddling, len(candidates), len(candidates) + 5):
            assert service("Professor", "univ", k=k, measure=measure) \
                == _sorted_reference(candidates, values, k, best_first)
