"""TFIDF weighting and cosine similarity over an inverted index.

The standard full-text scheme described in Baeza-Yates & Ribeiro-Neto
(the paper's reference for its TFIDF measure): term weights are
``tf * idf`` with logarithmic term frequency and ``log(N / df)`` inverse
document frequency; document vectors are compared with the cosine
measure from the vector family.
"""

from __future__ import annotations

import math

from repro.errors import EmptyCorpusError
from repro.simpack.base import clamp_similarity
from repro.simpack.text.index import InvertedIndex

__all__ = ["TfidfVectorSpace"]


class TfidfVectorSpace:
    """Weighted term vectors and similarities over one corpus index."""

    def __init__(self, index: InvertedIndex):
        self.index = index
        self._vector_cache: dict[str, dict[str, float]] = {}

    def _idf(self, term: str) -> float:
        document_frequency = self.index.document_frequency(term)
        if document_frequency == 0:
            return 0.0
        total = self.index.document_count
        # Smoothed idf: terms in every document keep a tiny weight, so a
        # corpus of near-identical documents still compares sensibly.
        return math.log(1.0 + total / document_frequency)

    def vector(self, document_id: str) -> dict[str, float]:
        """The L2-normalized TFIDF weight vector of a document.

        Raises :class:`~repro.errors.EmptyCorpusError` when the document
        is unknown; a known document with no terms yields an empty
        vector.
        """
        cached = self._vector_cache.get(document_id)
        if cached is not None:
            return cached
        if not self._vector_cache and document_id in self.index:
            # First use: weigh every document from one pass over the
            # postings; the term maps are dropped once weighed.
            self._vector_cache.update(
                (document, self._weigh(terms)) for document, terms
                in self.index.document_term_maps().items())
            return self._vector_cache[document_id]
        weights = self._weigh(self.index.document_terms(document_id))
        self._vector_cache[document_id] = weights
        return weights

    def _weigh(self, frequencies: dict[str, int]) -> dict[str, float]:
        """L2-normalized ``(1 + log tf) * idf`` weights, in term order."""
        weights: dict[str, float] = {}
        for term, frequency in frequencies.items():
            term_weight = (1.0 + math.log(frequency)) * self._idf(term)
            if term_weight > 0.0:
                weights[term] = term_weight
        norm = math.sqrt(sum(value * value for value in weights.values()))
        if norm > 0.0:
            weights = {term: value / norm for term, value in weights.items()}
        return weights

    def similarity(self, first_id: str, second_id: str) -> float:
        """Cosine similarity of two documents' TFIDF vectors."""
        first_vector = self.vector(first_id)
        second_vector = self.vector(second_id)
        if len(second_vector) < len(first_vector):
            first_vector, second_vector = second_vector, first_vector
        score = sum(weight * second_vector.get(term, 0.0)
                    for term, weight in first_vector.items())
        return clamp_similarity(score)

    def rank(self, query_id: str, candidate_ids: list[str] | None = None,
             ) -> list[tuple[str, float]]:
        """Rank documents by similarity to ``query_id``, best first.

        ``candidate_ids`` defaults to the whole corpus (excluding the
        query document itself).
        """
        if query_id not in self.index:
            raise EmptyCorpusError(f"document {query_id!r} is not indexed")
        if candidate_ids is None:
            candidate_ids = [document_id
                             for document_id in self.index.document_ids()
                             if document_id != query_id]
        scored = [(candidate, self.similarity(query_id, candidate))
                  for candidate in candidate_ids]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored

    def query_vector(self, text: str) -> dict[str, float]:
        """The L2-normalized TFIDF vector of a free-text query.

        The query is analyzed with the index's tokenizer/stemmer, so a
        query matches documents exactly as another document would.
        """
        from collections import Counter

        return self._weigh(Counter(self.index.analyze(text)))

    def search(self, text: str, k: int = 10) -> list[tuple[str, float]]:
        """Free-text retrieval: the ``k`` best documents for ``text``.

        Scores are query-document cosines; documents sharing no term
        with the query are omitted.
        """
        query = self.query_vector(text)
        if not query:
            return []
        scores: dict[str, float] = {}
        for term, weight in query.items():
            for document_id in self.index.documents_containing(term):
                scores[document_id] = (
                    scores.get(document_id, 0.0)
                    + weight * self.vector(document_id).get(term, 0.0))
        ranked = sorted(scores.items(),
                        key=lambda pair: (-pair[1], pair[0]))
        return [(document_id, clamp_similarity(score))
                for document_id, score in ranked[:k]]

    def invalidate(self) -> None:
        """Drop cached vectors (call after re-indexing documents)."""
        self._vector_cache.clear()
