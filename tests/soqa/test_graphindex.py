"""Unit tests for the compiled taxonomy index and its lazy delegation."""

import pytest

from repro.errors import OntologyParseError, SOQAError, UnknownConceptError
from repro.soqa.graph import ANY_PATH, VIA_ANCESTOR, Taxonomy
from repro.soqa.graphindex import CompiledTaxonomy

#      Root
#     /    \
#   Left  Right      (diamond: Bottom has two parents)
#     \    /
#     Bottom ── Leaf
DIAMOND = {
    "Root": [],
    "Left": ["Root"],
    "Right": ["Root"],
    "Bottom": ["Left", "Right"],
    "Leaf": ["Bottom"],
}


class TestLazyDelegation:
    def test_first_query_compiles(self):
        taxonomy = Taxonomy(DIAMOND)
        assert not taxonomy.is_compiled  # construction never compiles
        taxonomy.mrca("Left", "Right")
        assert taxonomy.is_compiled

    def test_compile_is_idempotent(self):
        taxonomy = Taxonomy(DIAMOND)
        first = taxonomy.compile()
        assert taxonomy.compile() is first


class TestCycles:
    CYCLIC = {"r": (), "a": ("r", "b"), "b": ("a",)}

    @staticmethod
    def cycle_of(parents) -> list[str]:
        """The node trail named by the error for a cyclic parent map."""
        with pytest.raises(OntologyParseError, match="is-a cycle") as caught:
            CompiledTaxonomy(parents)
        return str(caught.value).split(": ", 1)[1].split(" -> ")

    def test_compile_names_the_cycle(self):
        cycle = self.cycle_of(self.CYCLIC)
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {"a", "b"}

    def test_descendant_of_a_cycle_is_not_named(self):
        # "c" is left over by the topological pass too, but only
        # descends from the cycle.
        cycle = self.cycle_of({"c": ("b",), **self.CYCLIC})
        assert set(cycle) == {"a", "b"}

    def test_self_loop(self):
        assert self.cycle_of({"x": ("x",)}) == ["x", "x"]

    def test_taxonomy_query_raises_instead_of_hanging(self):
        taxonomy = Taxonomy(self.CYCLIC)  # construction stays lazy
        for query in (lambda: taxonomy.depth("a"),
                      lambda: taxonomy.ancestors_with_distance("a"),
                      lambda: taxonomy.mrca("a", "b"),
                      lambda: taxonomy.descendant_count("r")):
            with pytest.raises(SOQAError):
                query()
        assert not taxonomy.is_compiled


class TestCompiledQueries:
    @pytest.fixture
    def compiled(self) -> CompiledTaxonomy:
        return CompiledTaxonomy(DIAMOND)

    def test_structure(self, compiled):
        assert len(compiled) == 5
        assert "Bottom" in compiled and "Elsewhere" not in compiled
        assert compiled.nodes() == list(DIAMOND)

    def test_depths(self, compiled):
        assert compiled.depth("Root") == 0
        assert compiled.depth("Bottom") == 2
        assert compiled.max_depth() == 3

    def test_ancestors(self, compiled):
        assert compiled.ancestors_with_distance("Bottom") == {
            "Bottom": 0, "Left": 1, "Right": 1, "Root": 2}
        assert compiled.common_ancestors("Left", "Right") == {"Root"}

    def test_mrca_diamond_tie_breaks_by_name(self, compiled):
        # Left and Right are both distance-2 meeting points of nowhere;
        # for Bottom vs Bottom's uncles the tie is resolved by smaller
        # distance sum, deeper ancestor, then lexicographic name.
        assert compiled.mrca("Left", "Right") == ("Root", 1, 1)
        assert compiled.mrca("Bottom", "Left") == ("Left", 1, 0)

    def test_mrca_disjoint_components_is_none(self):
        taxonomy = CompiledTaxonomy({"A": [], "B": []})
        assert taxonomy.mrca("A", "B") is None
        assert taxonomy.shortest_path_length("A", "B") is None
        assert taxonomy.shortest_path_length("A", "B", ANY_PATH) is None

    def test_path_policies_differ_through_descendants(self):
        # Two parents share only a child: no common ancestor, but an
        # undirected path exists through the shared descendant.
        parents = {"P1": [], "P2": [], "C": ["P1", "P2"]}
        compiled = CompiledTaxonomy(parents)
        assert compiled.shortest_path_length("P1", "P2",
                                             VIA_ANCESTOR) is None
        assert compiled.shortest_path_length("P1", "P2", ANY_PATH) == 2

    def test_descendants(self, compiled):
        assert compiled.descendant_count("Root") == 5
        assert compiled.descendants("Root") == {"Left", "Right", "Bottom",
                                                "Leaf"}
        assert compiled.descendant_count("Leaf") == 1
        assert compiled.descendants("Leaf") == set()

    def test_diamond_descendants_not_double_counted(self, compiled):
        # Bottom is reachable via Left and Right but counts once.
        assert compiled.descendant_count("Left") == 3

    def test_path_to_root(self, compiled):
        assert compiled.path_to_root("Leaf") == ["Leaf", "Bottom", "Left",
                                                 "Root"]

    def test_unknown_concept_raises(self, compiled):
        with pytest.raises(UnknownConceptError):
            compiled.depth("Nope")
        with pytest.raises(UnknownConceptError):
            compiled.mrca("Root", "Nope")

    def test_unknown_parent_raises(self):
        with pytest.raises(UnknownConceptError):
            CompiledTaxonomy({"A": ["Ghost"]})

    def test_unknown_policy_raises(self, compiled):
        with pytest.raises(ValueError):
            compiled.shortest_path_length("Root", "Leaf", "sideways")

    def test_self_distance_is_zero(self, compiled):
        assert compiled.shortest_path_length("Leaf", "Leaf") == 0
        assert compiled.shortest_path_length("Leaf", "Leaf", ANY_PATH) == 0
