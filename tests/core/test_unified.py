"""Unit tests for the unified ontology tree (paper Fig. 3)."""

import pytest

from repro.core.results import QualifiedConcept
from repro.core.unified import MERGED_THING, UnifiedTree
from repro.errors import SSTCoreError, UnknownConceptError
from repro.soqa.api import SOQA
from tests.conftest import MINI_ORNITHOLOGY_OWL, MINI_OWL


@pytest.fixture
def two_domain_soqa() -> SOQA:
    """The Figure-3 setting: a university and an ornithology ontology."""
    soqa = SOQA()
    soqa.load_text(MINI_OWL, "univ", "OWL")
    soqa.load_text(MINI_ORNITHOLOGY_OWL, "birds", "OWL")
    return soqa


class TestSuperThingStrategy:
    def test_single_root(self, two_domain_soqa):
        tree = UnifiedTree(two_domain_soqa)
        assert tree.root == "Super Thing"
        assert tree.taxonomy.roots() == ["Super Thing"]

    def test_ontology_roots_under_virtual_things(self, two_domain_soqa):
        tree = UnifiedTree(two_domain_soqa)
        assert tree.taxonomy.parents("univ:Person") == ("univ:Thing",)
        assert tree.taxonomy.parents("univ:Thing") == ("Super Thing",)
        assert tree.taxonomy.parents("birds:Blackbird") == ("birds:Thing",)

    def test_within_ontology_structure_preserved(self, two_domain_soqa):
        tree = UnifiedTree(two_domain_soqa)
        assert tree.taxonomy.parents("univ:Professor") == ("univ:Employee",)

    def test_domains_stay_separated(self, two_domain_soqa):
        """Student is closer to Professor than to Blackbird (Fig. 3a)."""
        tree = UnifiedTree(two_domain_soqa)
        to_professor = tree.taxonomy.shortest_path_length(
            "univ:Student", "univ:Professor")
        to_blackbird = tree.taxonomy.shortest_path_length(
            "univ:Student", "birds:Blackbird")
        assert to_professor < to_blackbird

    def test_cross_ontology_path_exists(self, two_domain_soqa):
        tree = UnifiedTree(two_domain_soqa)
        assert tree.taxonomy.shortest_path_length(
            "univ:Student", "birds:Blackbird") is not None


class TestMergedThingStrategy:
    def test_single_merged_root(self, two_domain_soqa):
        tree = UnifiedTree(two_domain_soqa, strategy=MERGED_THING)
        assert tree.root == "Thing"
        assert tree.taxonomy.parents("univ:Person") == ("Thing",)
        assert tree.taxonomy.parents("birds:Blackbird") == ("Thing",)

    def test_domains_jumbled(self, two_domain_soqa):
        """Root concepts of arbitrary domains become immediate
        neighbors — the distances equalize (Fig. 3b)."""
        tree = UnifiedTree(two_domain_soqa, strategy=MERGED_THING)
        to_person = tree.taxonomy.shortest_path_length(
            "univ:Course", "univ:Person")
        to_blackbird = tree.taxonomy.shortest_path_length(
            "univ:Course", "birds:Blackbird")
        assert to_person == to_blackbird == 2

    def test_unknown_strategy_rejected(self, two_domain_soqa):
        with pytest.raises(SSTCoreError):
            UnifiedTree(two_domain_soqa, strategy="galaxy")


class TestConceptMapping:
    def test_node_of_roundtrip(self, two_domain_soqa):
        tree = UnifiedTree(two_domain_soqa)
        concept = QualifiedConcept("univ", "Professor")
        node = tree.node_of(concept)
        assert node == "univ:Professor"
        assert tree.concept_of(node) == concept

    def test_node_of_unknown_concept_raises(self, two_domain_soqa):
        tree = UnifiedTree(two_domain_soqa)
        with pytest.raises(UnknownConceptError):
            tree.node_of(QualifiedConcept("univ", "Ghost"))

    def test_virtual_nodes_have_no_concept(self, two_domain_soqa):
        tree = UnifiedTree(two_domain_soqa)
        assert tree.concept_of("Super Thing") is None
        assert tree.concept_of("univ:Thing") is None
        assert tree.is_virtual("univ:Thing")
        assert not tree.is_virtual("univ:Person")

    def test_all_concepts_excludes_virtual(self, two_domain_soqa):
        tree = UnifiedTree(two_domain_soqa)
        concepts = tree.all_concepts()
        assert len(concepts) == two_domain_soqa.concept_count()
        assert all(isinstance(concept, QualifiedConcept)
                   for concept in concepts)

    def test_all_concepts_hands_out_copies(self, two_domain_soqa):
        tree = UnifiedTree(two_domain_soqa)
        first = tree.all_concepts()
        first.clear()
        assert tree.all_concepts() == UnifiedTree(
            two_domain_soqa).all_concepts()
        assert tree.all_concepts() is not tree.all_concepts()

    def test_subtree_concepts(self, two_domain_soqa):
        tree = UnifiedTree(two_domain_soqa)
        subtree = tree.subtree_concepts(QualifiedConcept("univ", "Person"))
        names = sorted(concept.concept_name for concept in subtree)
        assert names == ["Employee", "Person", "Professor", "Student"]

    def test_subtree_without_root(self, two_domain_soqa):
        tree = UnifiedTree(two_domain_soqa)
        subtree = tree.subtree_concepts(QualifiedConcept("univ", "Person"),
                                        include_root=False)
        assert all(concept.concept_name != "Person" for concept in subtree)

    def test_path_to_root(self, two_domain_soqa):
        tree = UnifiedTree(two_domain_soqa)
        path = tree.path_to_root(QualifiedConcept("univ", "Professor"))
        assert path == ["univ:Professor", "univ:Employee", "univ:Person",
                        "univ:Thing", "Super Thing"]

    def test_qualified_concept_display(self):
        assert str(QualifiedConcept("base1_0_daml", "Professor")) == \
            "base1_0_daml:Professor"
