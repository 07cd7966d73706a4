"""The Extensional runner scores one pair from two descendant bitsets.

The reference is the set formula the bitsets replace: the Jaccard ratio
of the two descendants-or-self name sets, compared by ``float.hex()``.
"""

from hypothesis import given, settings

from repro.core.registry import Measure
from repro.core.results import QualifiedConcept
from repro.ontologies.generator import generate_wordnet_taxonomy
from tests.core.test_sweep import dag_queries, facade_over


def set_jaccard(sst, first: QualifiedConcept,
                second: QualifiedConcept) -> float:
    taxonomy = sst.tree.taxonomy
    first_node = sst.tree.node_of(first)
    second_node = sst.tree.node_of(second)
    first_set = taxonomy.descendants(first_node) | {first_node}
    second_set = taxonomy.descendants(second_node) | {second_node}
    return len(first_set & second_set) / len(first_set | second_set)


def assert_matches_set_formula(sst, pairs) -> None:
    runner = sst.runner(Measure.EXTENSIONAL)
    for first, second in pairs:
        assert runner.run(first, second).hex() \
            == set_jaccard(sst, first, second).hex(), (first, second)


@given(dag_queries())
@settings(max_examples=30, deadline=None)
def test_extensional_matches_the_set_formula_on_random_dags(query):
    parents, _, _ = query
    concepts = [QualifiedConcept("hyp", name) for name in parents]
    assert_matches_set_formula(
        facade_over(parents),
        [(first, second) for first in concepts for second in concepts])


def test_extensional_root_pair_of_a_generated_corpus():
    parents = generate_wordnet_taxonomy(2000, seed=1)
    sst = facade_over(parents)
    (root,) = [QualifiedConcept("hyp", name)
               for name, row in parents.items() if not row]
    leaf = QualifiedConcept("hyp", min(
        set(parents) - {parent for row in parents.values()
                        for parent in row}))
    assert_matches_set_formula(sst, [(root, root), (root, leaf),
                                     (leaf, root)])
    assert sst.get_similarity(root.concept_name, "hyp", root.concept_name,
                              "hyp", Measure.EXTENSIONAL) == 1.0
