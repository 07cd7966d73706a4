"""Differential tests of the kernel sweep behind the k-most services.

``get_most_similar_concepts``/``get_most_dissimilar_concepts`` score a
batch-kernel measure with one sweep per anchor and rank on node IDs.
Re-scoring the returned entries only shows that their scores are right;
these tests show that they are the global top k.  For every kernel
measure, both directions, the full corpus and a named subtree, and k
values at and around the edges, the sweep's ranking equals ranking the
pairwise kernel's scores, which equals the per-pair ``engine="naive"``
service — compared by name and by ``float.hex()``.
"""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import kernel
from repro.core.facade import SOQASimPackToolkit, _top_k
from repro.core.registry import Measure
from repro.core.results import QualifiedConcept
from repro.ontologies.generator import generate_random_dag
from repro.soqa.api import SOQA
from repro.soqa.graph import Taxonomy
from repro.soqa.metamodel import Concept, Ontology, OntologyMetadata
from tests.core.test_kernel_properties import BATCHABLE_MEASURES

#: Children listed before their parents, so node IDs are not
#: topological, and a Wu-Palmer tie: ``x`` and ``c`` meet at ``A`` and
#: at the deeper ``B`` with the same distance sum, and the deeper one
#: decides the score.
TIE_DAG = {
    "c": ["A", "B"], "x": ["A", "B"], "y": ["x"], "B": ["A"], "A": ["R"],
    "S": ["R"], "R": [],
}


def facade_over(parents: dict[str, list[str]],
                **options) -> SOQASimPackToolkit:
    """A facade over one ontology ``hyp`` with the ``{node: parents}``
    DAG, its concepts in the mapping's order."""
    soqa = SOQA()
    soqa.add_ontology(Ontology(
        OntologyMetadata(name="hyp", language="OWL"),
        [Concept(name=name, documentation=f"doc {name}",
                 superconcept_names=list(node_parents))
         for name, node_parents in parents.items()]))
    options.setdefault("cache", False)
    return SOQASimPackToolkit(soqa, **options)


def _entries(ranked) -> list[tuple[str, str, str]]:
    return [(entry.ontology_name, entry.concept_name,
             entry.similarity.hex()) for entry in ranked]


def assert_sweep_is_top_k(sst: SOQASimPackToolkit, anchor: QualifiedConcept,
                          subtree: QualifiedConcept | None = None,
                          naive_service: bool = True) -> None:
    """Sweep top-k == pairwise-kernel top-k == naive top-k, every k.

    ``naive_service=False`` ranks the naive scores directly instead of
    calling the naive service once per k (the same ranking, cheaper on
    the bundled corpus).
    """
    root = {} if subtree is None else {
        "subtree_root_concept_name": subtree.concept_name,
        "subtree_ontology_name": subtree.ontology_name}
    candidates = sst._candidates(root.get("subtree_root_concept_name"),
                                 root.get("subtree_ontology_name"), anchor)
    size = len(candidates)
    for measure in BATCHABLE_MEASURES:
        pairwise = sst.engine(measure).score_against(anchor, candidates)
        naive = sst.engine(measure, engine="naive").score_against(
            anchor, candidates)
        for best_first in (True, False):
            service = (sst.get_most_similar_concepts if best_first
                       else sst.get_most_dissimilar_concepts)
            for k in (0, 1, size - 1, size, size + 5, -2):
                label = (measure, best_first, k)
                swept = _entries(service(
                    anchor.concept_name, anchor.ontology_name, k=k,
                    measure=measure, **root))
                assert swept == _entries(
                    _top_k(candidates, pairwise, k, best_first)), label
                expected = (service(anchor.concept_name,
                                    anchor.ontology_name, k=k,
                                    measure=measure, engine="naive", **root)
                            if naive_service else
                            _top_k(candidates, naive, k, best_first))
                assert swept == _entries(expected), label


def _ids_are_topological(sst: SOQASimPackToolkit) -> bool:
    tables = sst.wrapper.kernel().tables
    return all(parent < node for node in range(tables.size)
               for parent in tables.parent_ids[node])


@st.composite
def dag_queries(draw):
    """A random multi-parent DAG (forests included), optionally listed
    children-first, with an anchor and a subtree root from it."""
    size = draw(st.integers(min_value=2, max_value=20))
    parents = generate_random_dag(
        size, seed=draw(st.integers(min_value=0, max_value=10_000)),
        max_parents=draw(st.integers(min_value=1, max_value=3)))
    if draw(st.booleans()):
        parents = dict(reversed(list(parents.items())))
    names = sorted(parents)
    return (parents, draw(st.sampled_from(names)),
            draw(st.sampled_from(names)))


@given(dag_queries())
@example((TIE_DAG, "x", "A"))
@example((TIE_DAG, "c", "R"))
@settings(max_examples=20, deadline=None)
def test_sweep_is_top_k_on_random_dags(query):
    parents, anchor, subtree = query
    sst = facade_over(parents)
    assert_sweep_is_top_k(sst, QualifiedConcept("hyp", anchor))
    assert_sweep_is_top_k(sst, QualifiedConcept("hyp", anchor),
                          QualifiedConcept("hyp", subtree))


def test_tie_dag_ids_are_not_topological():
    # The explicit examples above only test the order if they have to.
    assert not _ids_are_topological(facade_over(TIE_DAG))


def test_wu_palmer_takes_the_deeper_tied_ancestor():
    sst = facade_over(TIE_DAG)
    ranked = sst.get_most_similar_concepts(
        "x", "hyp", k=10, measure=Measure.CONCEPTUAL_SIMILARITY)
    scores = {entry.concept_name: entry.similarity for entry in ranked}
    # Under Super Thing and the virtual hyp:Thing, B has depth 4: five
    # nodes to the root, against four for A.
    assert scores["c"] == 2.0 * 5 / (2 + 2.0 * 5)


@pytest.mark.parametrize("anchor", [("univ-bench_owl", "Professor"),
                                    ("SUMO_owl_txt", "Entity")])
def test_sweep_is_top_k_on_the_bundled_corpus(corpus_sst, anchor):
    assert_sweep_is_top_k(corpus_sst, QualifiedConcept(*anchor),
                          naive_service=False)


def test_sweep_is_top_k_on_a_bundled_subtree(corpus_sst):
    assert_sweep_is_top_k(corpus_sst,
                          QualifiedConcept("COURSES", "PROFESSOR"),
                          QualifiedConcept("COURSES", "PERSON"),
                          naive_service=False)


def test_sweep_on_a_warm_loaded_index(tmp_path, monkeypatch):
    monkeypatch.setenv("SST_INDEX_PERSIST", "0")
    parents = dict(reversed(list(generate_random_dag(60, seed=3).items())))
    cold = facade_over(parents, cache=True, cache_dir=tmp_path)
    cold.tree.taxonomy.compile()
    warm = facade_over(parents, cache=True, cache_dir=tmp_path)
    compiled = warm.tree.taxonomy.compile()
    assert warm.tree.taxonomy.index_provenance["source"] == "artifact"
    assert not _ids_are_topological(warm)
    # Loading does not derive the order; the first sweep does.
    assert compiled._order is None
    anchor = QualifiedConcept("hyp", sorted(parents)[7])
    assert_sweep_is_top_k(warm, anchor)
    assert_sweep_is_top_k(warm, anchor,
                          QualifiedConcept("hyp", sorted(parents)[0]))
    assert compiled._order is not None


@pytest.mark.parametrize("measure", BATCHABLE_MEASURES)
@pytest.mark.parametrize("seed", [0, 1])
def test_sweep_matches_batch_statistics_on_a_forest(measure, seed):
    # The unified tree always has one root; on a bare forest some
    # (anchor, node) pairs share no ancestor at all.
    parents = dict(reversed(list(generate_random_dag(40, seed=seed).items())))
    sst = facade_over(parents)
    runner = sst.runner(measure)
    built = kernel.SimilarityKernel(
        SimpleNamespace(taxonomy=Taxonomy(parents)))
    statistic, formula = kernel._BATCH_FORMS[type(runner)]
    size = built.tables.size
    for anchor in range(size):
        id_pairs = [(anchor, node) for node in range(size)]
        expected = getattr(built, formula)(
            id_pairs, getattr(built, "_pair_" + statistic)(id_pairs))
        assert built.sweep(runner, anchor) == expected, anchor
