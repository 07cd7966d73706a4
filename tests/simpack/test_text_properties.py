"""Property-based tests for the text engine."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simpack.text.index import InvertedIndex
from repro.simpack.text.porter import porter_stem
from repro.simpack.text.tfidf import TfidfVectorSpace
from repro.simpack.text.tokenizer import tokenize

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1,
                max_size=15)
texts = st.lists(words, min_size=1, max_size=12).map(" ".join)


@given(words)
@settings(max_examples=200, deadline=None)
def test_porter_output_never_longer_than_input(word):
    assert len(porter_stem(word)) <= len(word)


@given(words)
@settings(max_examples=200, deadline=None)
def test_porter_output_nonempty_and_lowercase(word):
    stem = porter_stem(word)
    assert stem
    assert stem == stem.lower()


@given(words)
@settings(max_examples=200, deadline=None)
def test_porter_deterministic(word):
    assert porter_stem(word) == porter_stem(word)


@given(st.text(max_size=60))
@settings(max_examples=150, deadline=None)
def test_tokenizer_outputs_lowercase_words(text):
    for token in tokenize(text):
        assert token == token.lower()
        assert token
        assert not token.isdigit()


@given(st.lists(texts, min_size=2, max_size=6, unique=True))
@settings(max_examples=60, deadline=None)
def test_tfidf_similarity_symmetric_and_bounded(documents):
    index = InvertedIndex()
    for number, document in enumerate(documents):
        index.add_document(f"d{number}", document)
    space = TfidfVectorSpace(index)
    for first in range(len(documents)):
        for second in range(len(documents)):
            forward = space.similarity(f"d{first}", f"d{second}")
            backward = space.similarity(f"d{second}", f"d{first}")
            assert abs(forward - backward) < 1e-9
            assert 0.0 <= forward <= 1.0


@given(st.lists(texts, min_size=2, max_size=6, unique=True))
@settings(max_examples=60, deadline=None)
def test_tfidf_query_with_own_text_ranks_self_maximal(documents):
    """Querying with a document's full text scores that document at
    least as high as any other."""
    index = InvertedIndex()
    for number, document in enumerate(documents):
        index.add_document(f"d{number}", document)
    space = TfidfVectorSpace(index)
    for number, document in enumerate(documents):
        if not index.document_terms(f"d{number}"):
            continue  # tokenizer dropped everything (stop words)
        ranked = dict(space.search(document, k=len(documents)))
        own_score = ranked.get(f"d{number}", 0.0)
        assert own_score >= max(ranked.values()) - 1e-9


@given(st.lists(texts, min_size=2, max_size=5, unique=True))
@settings(max_examples=40, deadline=None)
def test_bm25_self_similarity_maximal(documents):
    from repro.simpack.text.bm25 import BM25Scorer

    index = InvertedIndex()
    for number, document in enumerate(documents):
        index.add_document(f"d{number}", document)
    scorer = BM25Scorer(index)
    for number in range(len(documents)):
        if not index.document_terms(f"d{number}"):
            continue
        own = scorer.similarity(f"d{number}", f"d{number}")
        for other in range(len(documents)):
            assert own >= scorer.similarity(f"d{number}",
                                            f"d{other}") - 1e-9


@given(st.lists(texts, min_size=1, max_size=6, unique=True))
@settings(max_examples=60, deadline=None)
def test_tfidf_vectors_equal_the_one_document_reference(documents):
    """Every vector, weighed at first use from one pass over the
    postings, equals the per-document formula float for float, in the
    same term order."""
    index = InvertedIndex()
    for number, document in enumerate(documents):
        index.add_document(f"d{number}", document)
    space = TfidfVectorSpace(index)
    total = index.document_count
    for document_id in reversed(index.document_ids()):
        weights = {}
        for term, frequency in index.document_terms(document_id).items():
            weight = (1.0 + math.log(frequency)) * math.log(
                1.0 + total / index.document_frequency(term))
            if weight > 0.0:
                weights[term] = weight
        norm = math.sqrt(sum(value * value for value in weights.values()))
        if norm > 0.0:
            weights = {term: value / norm for term, value in weights.items()}
        assert list(space.vector(document_id).items()) == list(
            weights.items())
