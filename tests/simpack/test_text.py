"""Unit tests for the mini-Lucene text engine (tokenizer, Porter, TFIDF)."""

import pytest

from repro.errors import EmptyCorpusError
from repro.simpack.text.index import InvertedIndex
from repro.simpack.text.porter import porter_stem
from repro.simpack.text.tfidf import TfidfVectorSpace
from repro.simpack.text.tokenizer import STOP_WORDS, tokenize


class TestTokenizer:
    def test_lowercases_and_splits(self):
        assert tokenize("Hello World") == ["hello", "world"]

    def test_camel_case_split(self):
        assert tokenize("AssistantProfessor") == ["assistant", "professor"]

    def test_acronym_preserved(self):
        assert tokenize("OWLClass") == ["owl", "class"]

    def test_snake_and_dash_split(self):
        assert tokenize("univ-bench_owl") == ["univ", "bench", "owl"]

    def test_stop_words_dropped(self):
        assert tokenize("the professor of the university") == [
            "professor", "university"]

    def test_stop_words_kept_on_request(self):
        assert "the" in tokenize("the professor", drop_stop_words=False)

    def test_pure_numbers_dropped(self):
        assert tokenize("room 42") == ["room"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_stop_word_list_contents(self):
        assert "the" in STOP_WORDS
        assert "professor" not in STOP_WORDS


class TestPorterStemmer:
    # Expected outputs from Porter's published vocabulary.
    CASES = {
        "caresses": "caress",
        "ponies": "poni",
        "ties": "ti",
        "caress": "caress",
        "cats": "cat",
        "feed": "feed",
        "agreed": "agre",
        "plastered": "plaster",
        "bled": "bled",
        "motoring": "motor",
        "sing": "sing",
        "conflated": "conflat",
        "troubled": "troubl",
        "sized": "size",
        "hopping": "hop",
        "tanned": "tan",
        "falling": "fall",
        "hissing": "hiss",
        "fizzed": "fizz",
        "failing": "fail",
        "filing": "file",
        "happy": "happi",
        "sky": "sky",
        "relational": "relat",
        "conditional": "condit",
        "rational": "ration",
        "valenci": "valenc",
        "hesitanci": "hesit",
        "digitizer": "digit",
        "conformabli": "conform",
        "radicalli": "radic",
        "differentli": "differ",
        "vileli": "vile",
        "analogousli": "analog",
        "vietnamization": "vietnam",
        "predication": "predic",
        "operator": "oper",
        "feudalism": "feudal",
        "decisiveness": "decis",
        "hopefulness": "hope",
        "callousness": "callous",
        "formaliti": "formal",
        "sensitiviti": "sensit",
        "sensibiliti": "sensibl",
        "triplicate": "triplic",
        "formative": "form",
        "formalize": "formal",
        "electriciti": "electr",
        "electrical": "electr",
        "hopeful": "hope",
        "goodness": "good",
        "revival": "reviv",
        "allowance": "allow",
        "inference": "infer",
        "airliner": "airlin",
        "gyroscopic": "gyroscop",
        "adjustable": "adjust",
        "defensible": "defens",
        "irritant": "irrit",
        "replacement": "replac",
        "adjustment": "adjust",
        "dependent": "depend",
        "adoption": "adopt",
        "homologou": "homolog",
        "communism": "commun",
        "activate": "activ",
        "angulariti": "angular",
        "homologous": "homolog",
        "effective": "effect",
        "bowdlerize": "bowdler",
        "probate": "probat",
        "rate": "rate",
        "cease": "ceas",
        "controll": "control",
        "roll": "roll",
        "universities": "univers",
    }

    @pytest.mark.parametrize("word,stem", sorted(CASES.items()))
    def test_vocabulary(self, word, stem):
        assert porter_stem(word) == stem

    def test_short_words_untouched(self):
        assert porter_stem("at") == "at"
        assert porter_stem("by") == "by"

    def test_uppercase_normalized(self):
        assert porter_stem("Universities") == "univers"


class TestInvertedIndex:
    @pytest.fixture
    def index(self) -> InvertedIndex:
        index = InvertedIndex()
        index.add_documents([
            ("prof", "The professor teaches courses and advises students"),
            ("student", "A student takes courses at the university"),
            ("bird", "The blackbird sings in the garden"),
        ])
        return index

    def test_document_count(self, index):
        assert index.document_count == 3
        assert index.document_ids() == ["prof", "student", "bird"]

    def test_contains(self, index):
        assert "prof" in index
        assert "ghost" not in index

    def test_term_frequency_uses_stems(self, index):
        # 'teaches' stems to 'teach'; 'courses' stems to 'cours'.
        assert index.term_frequency("teach", "prof") == 1
        assert index.term_frequency("cours", "prof") == 1
        assert index.term_frequency("cours", "bird") == 0

    def test_document_frequency(self, index):
        assert index.document_frequency("cours") == 2
        assert index.document_frequency("blackbird") == 1
        assert index.document_frequency("nothing") == 0

    def test_document_terms(self, index):
        terms = index.document_terms("bird")
        assert "blackbird" in terms
        assert "sing" in terms

    def test_unknown_document_raises(self, index):
        with pytest.raises(EmptyCorpusError):
            index.document_terms("ghost")

    def test_reindex_replaces(self, index):
        index.add_document("prof", "completely different words")
        assert index.term_frequency("teach", "prof") == 0
        assert index.document_count == 3

    def test_remove_document_drops_postings(self, index):
        index.remove_document("bird")
        assert index.document_count == 2
        assert index.document_frequency("blackbird") == 0

    def test_documents_containing(self, index):
        assert set(index.documents_containing("cours")) == {"prof",
                                                            "student"}

    def test_document_term_maps_match_document_terms(self, index):
        index.add_document("empty", "the and a")
        maps = index.document_term_maps()
        assert list(maps) == index.document_ids()
        for document_id, terms in maps.items():
            expected = index.document_terms(document_id)
            assert list(terms.items()) == list(expected.items())
        assert maps["empty"] == {}

    def test_each_distinct_token_is_stemmed_once(self):
        stemmed: list[str] = []

        def counting_stem(token: str) -> str:
            stemmed.append(token)
            return porter_stem(token)

        index = InvertedIndex(stem=counting_stem)
        index.add_documents([("one", "courses teach courses"),
                             ("two", "teach courses students")])
        assert sorted(stemmed) == ["courses", "students", "teach"]
        assert index.term_frequency("cours", "one") == 2


class TestTfidf:
    @pytest.fixture
    def space(self) -> TfidfVectorSpace:
        index = InvertedIndex()
        index.add_documents([
            ("prof", "The professor teaches courses and advises students"),
            ("student", "A student takes courses at the university"),
            ("bird", "The blackbird sings in the garden"),
            ("prof2", "The professor teaches courses and advises students"),
        ])
        return TfidfVectorSpace(index)

    def test_identical_documents_similarity_one(self, space):
        assert space.similarity("prof", "prof2") == pytest.approx(1.0)

    def test_self_similarity_one(self, space):
        assert space.similarity("prof", "prof") == pytest.approx(1.0)

    def test_related_above_unrelated(self, space):
        assert space.similarity("prof", "student") > space.similarity(
            "prof", "bird")

    def test_disjoint_documents_zero(self, space):
        assert space.similarity("student", "bird") == 0.0

    def test_vectors_l2_normalized(self, space):
        vector = space.vector("prof")
        norm = sum(weight * weight for weight in vector.values())
        assert norm == pytest.approx(1.0)

    def test_rank_orders_best_first(self, space):
        ranked = space.rank("prof")
        assert ranked[0][0] == "prof2"
        assert ranked[0][1] >= ranked[-1][1]

    def test_rank_with_explicit_candidates(self, space):
        ranked = space.rank("prof", candidate_ids=["bird", "student"])
        assert [doc for doc, _ in ranked] == ["student", "bird"]

    def test_rank_unknown_query_raises(self, space):
        with pytest.raises(EmptyCorpusError):
            space.rank("ghost")

    def test_invalidate_clears_cache(self, space):
        space.vector("prof")
        space.invalidate()
        assert space.vector("prof")  # recomputed without error
