"""Differential tests of the kernel walk behind the k-most services.

``get_most_similar_concepts``/``get_most_dissimilar_concepts`` score a
batch-kernel measure with one best-first walk per anchor and rank on
node IDs; a similar query stops the walk once its top k is proven.
Re-scoring the returned entries only shows that their scores are right;
these tests show that they are the global top k.  For every kernel
measure, both directions, the full corpus and a named subtree, and k
values at and around the edges, the walk's ranking equals ranking the
pairwise kernel's scores, which equals the per-pair ``engine="naive"``
service — compared by name and by ``float.hex()``.

The walk replaced a one-pass sweep over every node; the tests it
inherited keep their ``test_sweep_*`` names, so their IDs stay stable.
"""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import kernel, telemetry
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

#: ``X`` hangs off the root ``R`` and off the end of a chain, so its
#: ancestor ``C4`` lies deeper than ``X`` itself (depths are shortest
#: depths).  ``Y`` meets ``X`` at ``C4`` two edges away and outscores
#: ``R``, one edge away: a Wu-Palmer bound from the anchor's own depth
#: would stop the walk before it reaches ``Y``.
DEEP_ANCESTOR_DAG = {
    "R": [], "C1": ["R"], "C2": ["C1"], "C3": ["C2"], "C4": ["C3"],
    "X": ["R", "C4"], "Y": ["C4"],
}


#: Two chains in two ontologies, so they meet only at Super Thing.  From
#: ``a:A3`` the maximal depth is 4 and Leacock-Chodorow scores 0.0 from
#: distance 7 on: ``b:Q`` at 7, then ``b:P`` at 8.  With four candidates
#: above or at ``b:Q``, the bound after it is 0.0 and ties the k-th best;
#: only going on to ``b:P`` finds that it sorts first.
TWO_CHAINS = {
    "a": {"A1": [], "A2": ["A1"], "A3": ["A2"]},
    "b": {"B1": [], "Q": ["B1"], "P": ["Q"]},
}


def facade_over(parents: dict[str, list[str]],
                **options) -> SOQASimPackToolkit:
    """A facade over one ontology ``hyp`` with the ``{node: parents}``
    DAG, its concepts in the mapping's order."""
    return facade_over_ontologies({"hyp": parents}, **options)


def facade_over_ontologies(ontologies: dict[str, dict[str, list[str]]],
                           **options) -> SOQASimPackToolkit:
    """A facade over one ontology per ``{name: {node: parents}}`` entry."""
    soqa = SOQA()
    for ontology, parents in ontologies.items():
        soqa.add_ontology(Ontology(
            OntologyMetadata(name=ontology, language="OWL"),
            [Concept(name=name, documentation=f"doc {name}",
                     superconcept_names=list(node_parents))
             for name, node_parents in parents.items()]))
    options.setdefault("cache", False)
    return SOQASimPackToolkit(soqa, **options)


def _entries(ranked) -> list[tuple[str, str, str]]:
    return [(entry.ontology_name, entry.concept_name,
             entry.similarity.hex()) for entry in ranked]


def assert_walk_is_top_k(sst: SOQASimPackToolkit, anchor: QualifiedConcept,
                         subtree: QualifiedConcept | None = None,
                         naive_service: bool = True,
                         ks: tuple[int, ...] | None = None,
                         measures=BATCHABLE_MEASURES) -> None:
    """Walk top-k == pairwise-kernel top-k == naive top-k, every k.

    ``naive_service=False`` ranks the naive scores directly instead of
    calling the naive service once per k (the same ranking, cheaper on
    the bundled corpus).  ``ks`` defaults to the edges of the candidate
    count.
    """
    root = {} if subtree is None else {
        "subtree_root_concept_name": subtree.concept_name,
        "subtree_ontology_name": subtree.ontology_name}
    candidates = sst._candidates(root.get("subtree_root_concept_name"),
                                 root.get("subtree_ontology_name"), anchor)
    size = len(candidates)
    if ks is None:
        ks = (0, 1, size - 1, size, size + 5, -2)
    for measure in measures:
        pairwise = sst.engine(measure).score_against(anchor, candidates)
        naive = sst.engine(measure, engine="naive").score_against(
            anchor, candidates)
        for best_first in (True, False):
            service = (sst.get_most_similar_concepts if best_first
                       else sst.get_most_dissimilar_concepts)
            for k in ks:
                label = (measure, best_first, k)
                walked = _entries(service(
                    anchor.concept_name, anchor.ontology_name, k=k,
                    measure=measure, **root))
                assert walked == _entries(
                    _top_k(candidates, pairwise, k, best_first)), label
                expected = (service(anchor.concept_name,
                                    anchor.ontology_name, k=k,
                                    measure=measure, engine="naive", **root)
                            if naive_service else
                            _top_k(candidates, naive, k, best_first))
                assert walked == _entries(expected), label


def assert_every_k_is_top_k(sst: SOQASimPackToolkit,
                            anchor: QualifiedConcept) -> None:
    """Walk top-k == pairwise-kernel top-k for every k up to the
    candidate count: each k moves the cut, and with it the point where
    a similar query may stop."""
    candidates = sst._candidates(None, None, anchor)
    for measure in BATCHABLE_MEASURES:
        pairwise = sst.engine(measure).score_against(anchor, candidates)
        for k in range(1, len(candidates) + 1):
            walked = sst.get_most_similar_concepts(
                anchor.concept_name, anchor.ontology_name, k=k,
                measure=measure)
            assert _entries(walked) == _entries(
                _top_k(candidates, pairwise, k, True)), (measure, k)


def _ids_are_topological(sst: SOQASimPackToolkit) -> bool:
    tables = sst.wrapper.kernel().tables
    return all(node < child for node in range(tables.size)
               for child in tables.child_ids[node])


@st.composite
def dag_queries(draw, min_size: int = 2, max_size: int = 20):
    """A random multi-parent DAG (forests included), optionally listed
    children-first, with an anchor and a subtree root from it."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
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
    assert_walk_is_top_k(sst, QualifiedConcept("hyp", anchor))
    assert_walk_is_top_k(sst, QualifiedConcept("hyp", anchor),
                         QualifiedConcept("hyp", subtree))
    assert_every_k_is_top_k(sst, QualifiedConcept("hyp", anchor))


@given(dag_queries(min_size=200, max_size=500))
@settings(max_examples=8, deadline=None)
def test_walk_stops_early_and_is_top_k_on_larger_dags(query):
    parents, anchor, subtree = query
    sst = facade_over(parents)
    anchor = QualifiedConcept("hyp", anchor)
    telemetry.reset()
    assert_walk_is_top_k(sst, anchor, naive_service=False, ks=(1, 3, 10))
    # 9 measures x 2 directions x 3 values of k, one walk each.
    assert telemetry.get_registry().value("kernel.walks") \
        == len(BATCHABLE_MEASURES) * 2 * 3
    telemetry.reset()
    sst.get_most_similar_concepts(anchor.concept_name, "hyp", k=1,
                                  measure=Measure.SHORTEST_PATH)
    assert telemetry.get_registry().value("kernel.walk.nodes") \
        < len(sst.tree.taxonomy)
    assert_walk_is_top_k(sst, anchor, QualifiedConcept("hyp", subtree),
                         naive_service=False, ks=(1, 3, 10))


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


def test_wu_palmer_bound_takes_an_ancestor_deeper_than_the_anchor():
    sst = facade_over(DEEP_ANCESTOR_DAG)
    taxonomy = sst.tree.taxonomy
    x_node = sst.tree.node_of(QualifiedConcept("hyp", "X"))
    c4_node = sst.tree.node_of(QualifiedConcept("hyp", "C4"))
    assert taxonomy.depth(c4_node) > taxonomy.depth(x_node)
    ranked = sst.get_most_similar_concepts(
        "X", "hyp", k=2, measure=Measure.CONCEPTUAL_SIMILARITY)
    assert [entry.concept_name for entry in ranked] == ["C4", "Y"]
    assert_every_k_is_top_k(sst, QualifiedConcept("hyp", "X"))


def test_a_zero_bound_tied_at_the_cut_is_expanded():
    sst = facade_over_ontologies(TWO_CHAINS)
    ranked = sst.get_most_similar_concepts(
        "A3", "a", k=4, measure=Measure.LEACOCK_CHODOROW)
    assert [(entry.concept_name, entry.similarity) for entry in ranked][2:] \
        == [("B1", ranked[2].similarity), ("P", 0.0)]
    assert ranked[2].similarity > 0.0
    assert_every_k_is_top_k(sst, QualifiedConcept("a", "A3"))


def test_extensional_leaf_ranks_the_zero_tier():
    # A leaf overlaps only its ancestors-or-self: fewer candidates than
    # k score above 0.0, so the walk runs out and the rest of the top k
    # are zero-overlap nodes it never reached, in name order.
    parents = generate_random_dag(40, seed=5)
    leaves = sorted(set(parents) - {parent for row in parents.values()
                                    for parent in row})
    sst = facade_over(parents)
    anchor = QualifiedConcept("hyp", leaves[0])
    ranked = sst.get_most_similar_concepts(
        anchor.concept_name, "hyp", k=20, measure=Measure.EXTENSIONAL)
    assert len(ranked) == 20
    assert ranked[-1].similarity == 0.0
    assert_walk_is_top_k(sst, anchor, ks=(1, 10, 20, 39),
                         measures=(Measure.EXTENSIONAL,))


@pytest.mark.parametrize("anchor", [("univ-bench_owl", "Professor"),
                                    ("SUMO_owl_txt", "Entity")])
def test_sweep_is_top_k_on_the_bundled_corpus(corpus_sst, anchor):
    assert_walk_is_top_k(corpus_sst, QualifiedConcept(*anchor),
                         naive_service=False)


def test_sweep_is_top_k_on_a_bundled_subtree(corpus_sst):
    assert_walk_is_top_k(corpus_sst,
                         QualifiedConcept("COURSES", "PROFESSOR"),
                         QualifiedConcept("COURSES", "PERSON"),
                         naive_service=False)


def test_sweep_on_a_warm_loaded_index(tmp_path, monkeypatch):
    monkeypatch.setenv("SST_INDEX_PERSIST", "0")
    parents = dict(reversed(list(generate_random_dag(60, seed=3).items())))
    cold = facade_over(parents, cache=True, cache_dir=tmp_path)
    cold.tree.taxonomy.compile()
    warm = facade_over(parents, cache=True, cache_dir=tmp_path)
    warm.tree.taxonomy.compile()
    assert warm.tree.taxonomy.index_provenance["source"] == "artifact"
    assert not _ids_are_topological(warm)
    anchor = QualifiedConcept("hyp", sorted(parents)[7])
    assert_walk_is_top_k(warm, anchor)
    assert_walk_is_top_k(warm, anchor,
                         QualifiedConcept("hyp", sorted(parents)[0]))


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
        walked = [0.0] * size
        yielded: list[int] = []
        bound = None
        for node_ids, scores, next_bound in built.walk(runner, anchor):
            for score in scores:
                # No later batch beats an earlier bound.
                assert bound is None or score <= bound, anchor
            for node, score in zip(node_ids, scores):
                walked[node] = score
            yielded.extend(node_ids)
            bound = next_bound
        assert sorted(yielded) == sorted(set(yielded)), anchor
        # Every node the walk never reached scores exactly 0.0.
        assert walked == expected, anchor
