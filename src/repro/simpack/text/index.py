"""An inverted index over tokenized, stemmed documents.

The mini-Lucene at the bottom of the TFIDF measure: documents go in as
raw text, get tokenized and Porter-stemmed, and the index keeps the
postings (term -> {document -> term frequency}) plus the document
statistics TFIDF weighting needs.  Each distinct token is stemmed once
per index: a corpus repeats its words, and the stemmer is the costly
step of indexing.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable

from repro.errors import EmptyCorpusError
from repro.simpack.text.porter import porter_stem
from repro.simpack.text.tokenizer import tokenize

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """Postings and statistics over a document corpus."""

    def __init__(self, stem: Callable[[str], str] = porter_stem,
                 tokenizer: Callable[[str], list[str]] = tokenize):
        self._stem = stem
        self._tokenize = tokenizer
        self._postings: dict[str, dict[str, int]] = {}
        self._document_lengths: dict[str, int] = {}
        self._stems: dict[str, str] = {}

    # -- building -----------------------------------------------------------

    def analyze(self, text: str) -> list[str]:
        """Tokenize and stem ``text`` into index terms."""
        stems = self._stems
        terms = []
        for token in self._tokenize(text):
            term = stems.get(token)
            if term is None:
                term = stems[token] = self._stem(token)
            terms.append(term)
        return terms

    def add_document(self, document_id: str, text: str) -> None:
        """Index ``text`` under ``document_id`` (replacing any old copy)."""
        if document_id in self._document_lengths:
            self.remove_document(document_id)
        terms = self.analyze(text)
        self._document_lengths[document_id] = len(terms)
        for term, frequency in Counter(terms).items():
            self._postings.setdefault(term, {})[document_id] = frequency

    def add_documents(self, documents: Iterable[tuple[str, str]]) -> None:
        """Index many ``(document_id, text)`` pairs."""
        for document_id, text in documents:
            self.add_document(document_id, text)

    def remove_document(self, document_id: str) -> None:
        """Drop a document and its postings."""
        self._document_lengths.pop(document_id, None)
        empty_terms = []
        for term, posting in self._postings.items():
            posting.pop(document_id, None)
            if not posting:
                empty_terms.append(term)
        for term in empty_terms:
            del self._postings[term]

    # -- statistics -----------------------------------------------------------

    @property
    def document_count(self) -> int:
        """Number of indexed documents."""
        return len(self._document_lengths)

    def document_ids(self) -> list[str]:
        """Ids of all indexed documents, in indexing order."""
        return list(self._document_lengths)

    def __contains__(self, document_id: str) -> bool:
        return document_id in self._document_lengths

    def vocabulary(self) -> list[str]:
        """All index terms."""
        return list(self._postings)

    def term_frequency(self, term: str, document_id: str) -> int:
        """Occurrences of ``term`` in the document (term already stemmed)."""
        return self._postings.get(term, {}).get(document_id, 0)

    def document_frequency(self, term: str) -> int:
        """Number of documents containing ``term``."""
        return len(self._postings.get(term, {}))

    def document_terms(self, document_id: str) -> dict[str, int]:
        """All ``term -> frequency`` entries of one document."""
        if document_id not in self._document_lengths:
            raise EmptyCorpusError(
                f"document {document_id!r} is not indexed")
        return {term: posting[document_id]
                for term, posting in self._postings.items()
                if document_id in posting}

    def document_term_maps(self) -> dict[str, dict[str, int]]:
        """:meth:`document_terms` of every document, in one pass.

        One walk over the postings instead of one per document; each
        map lists its terms in the same (postings) order.
        """
        maps: dict[str, dict[str, int]] = {
            document_id: {} for document_id in self._document_lengths}
        for term, posting in self._postings.items():
            for document_id, frequency in posting.items():
                maps[document_id][term] = frequency
        return maps

    def documents_containing(self, term: str) -> dict[str, int]:
        """The posting list of ``term``: ``document_id -> frequency``."""
        return dict(self._postings.get(term, {}))
