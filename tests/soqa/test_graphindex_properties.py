"""Property tests: the compiled Taxonomy matches answers from networkx.

Every query of :class:`~repro.soqa.graph.Taxonomy` is served by the
compiled index, so the reference here is a naive re-derivation of
each answer with networkx graph searches, including the deterministic
tie-breaks: ``mrca`` takes the minimal distance sum, then the deeper
ancestor, then the smaller name; ``path_to_root`` climbs to the
shallowest, then smallest parent.  Two sources of randomized DAGs
exercise it: a hypothesis-generated family (small, adversarial shapes —
diamonds, multiple roots, disconnected components) and the seeded
generators of :mod:`repro.ontologies.generator` (larger, realistic
shapes, up to a 1.5k-node multi-parent DAG).
"""

import random

import networkx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ontologies.generator import (generate_random_dag,
                                        generate_wordnet_taxonomy)
from repro.soqa.graph import ANY_PATH, VIA_ANCESTOR, Taxonomy


@st.composite
def random_dags(draw) -> dict[str, list[str]]:
    """A random DAG as ``{node: parents}`` (same family as the
    networkx-oracle tests; acyclic because parents precede children)."""
    size = draw(st.integers(min_value=1, max_value=25))
    nodes = [f"n{i}" for i in range(size)]
    parents: dict[str, list[str]] = {nodes[0]: []}
    for index in range(1, size):
        earlier = nodes[:index]
        count = draw(st.integers(min_value=0,
                                 max_value=min(3, len(earlier))))
        chosen = draw(st.permutations(earlier))[:count]
        parents[nodes[index]] = list(chosen)
    return parents


class Oracle:
    """Reference answers for one parent map, derived with networkx."""

    def __init__(self, parents: dict[str, list[str]]):
        self.parents = parents
        # Edges point child -> parent: networkx "descendants" of a node
        # are its ancestors here, and vice versa.
        self.graph = networkx.DiGraph()
        self.graph.add_nodes_from(parents)
        for node, node_parents in parents.items():
            for parent in node_parents:
                self.graph.add_edge(node, parent)
        self.undirected = self.graph.to_undirected()
        roots = [node for node, node_parents in parents.items()
                 if not node_parents]
        self.depths = networkx.multi_source_dijkstra_path_length(
            self.graph.reverse(copy=False), roots)
        self._ancestors: dict[str, dict[str, int]] = {}

    def ancestors_with_distance(self, node: str) -> dict[str, int]:
        if node not in self._ancestors:
            self._ancestors[node] = dict(
                networkx.single_source_shortest_path_length(self.graph,
                                                            node))
        return self._ancestors[node]

    def common_ancestors(self, first: str, second: str) -> set[str]:
        return (self.ancestors_with_distance(first).keys()
                & self.ancestors_with_distance(second).keys())

    def mrca(self, first: str, second: str):
        up_first = self.ancestors_with_distance(first)
        up_second = self.ancestors_with_distance(second)
        keys = [(up_first[ancestor] + up_second[ancestor],
                 -self.depths[ancestor], ancestor)
                for ancestor in self.common_ancestors(first, second)]
        if not keys:
            return None
        ancestor = min(keys)[2]
        return ancestor, up_first[ancestor], up_second[ancestor]

    def via_ancestor(self, first: str, second: str) -> int | None:
        meeting = self.mrca(first, second)
        return None if meeting is None else meeting[1] + meeting[2]

    def path_to_root(self, node: str) -> list[str]:
        path = [node]
        while self.parents[path[-1]]:
            path.append(min(self.parents[path[-1]],
                            key=lambda parent: (self.depths[parent],
                                                parent)))
        return path

    def descendants(self, node: str) -> set[str]:
        return networkx.ancestors(self.graph, node)

    def max_depth(self) -> int:
        return networkx.dag_longest_path_length(self.graph)


def assert_matches_networkx(parents: dict[str, list[str]],
                            pairs: list[tuple[str, str]] | None = None,
                            ) -> None:
    """Every public query of the compiled Taxonomy matches the oracle.

    ``pairs`` limits the two-node queries; by default every ordered
    pair of nodes is checked.
    """
    taxonomy = Taxonomy(parents)
    oracle = Oracle(parents)
    nodes = list(parents)
    assert taxonomy.max_depth() == oracle.max_depth()
    assert taxonomy.is_compiled
    for node in nodes:
        assert taxonomy.depth(node) == oracle.depths[node]
        descendants = oracle.descendants(node)
        assert taxonomy.descendants(node) == descendants
        assert taxonomy.descendant_count(node) == len(descendants) + 1
        path = taxonomy.path_to_root(node)
        assert path == oracle.path_to_root(node)
        assert len(path) - 1 == oracle.depths[node]
        assert (taxonomy.ancestors_with_distance(node)
                == oracle.ancestors_with_distance(node))
    if pairs is None:
        pairs = [(first, second) for first in nodes for second in nodes]
    undirected: dict[str, dict[str, int]] = {}
    for first, second in pairs:
        assert taxonomy.mrca(first, second) == oracle.mrca(first, second)
        assert (taxonomy.common_ancestors(first, second)
                == oracle.common_ancestors(first, second))
        assert taxonomy.shared_descendant_count(first, second) == len(
            (oracle.descendants(first) | {first})
            & (oracle.descendants(second) | {second}))
        assert (taxonomy.shortest_path_length(first, second, VIA_ANCESTOR)
                == oracle.via_ancestor(first, second))
        if first not in undirected:
            undirected[first] = networkx.single_source_shortest_path_length(
                oracle.undirected, first)
        assert (taxonomy.shortest_path_length(first, second, ANY_PATH)
                == undirected[first].get(second))


def sample_pairs(parents: dict, count: int, seed: int
                 ) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    nodes = list(parents)
    return [(rng.choice(nodes), rng.choice(nodes)) for _ in range(count)]


def leading_pairs(parents: dict, limit: int) -> list[tuple[str, str]]:
    nodes = list(parents)[:limit]
    return [(first, second) for first in nodes for second in nodes]


@given(random_dags())
@settings(max_examples=60, deadline=None)
def test_compiled_matches_naive_on_hypothesis_dags(parents):
    assert_matches_networkx(parents)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_compiled_matches_naive_on_seeded_random_dags(seed):
    parents = generate_random_dag(120, seed=seed)
    assert_matches_networkx(parents, leading_pairs(parents, 20))


@pytest.mark.parametrize("seed", [0, 7])
def test_compiled_matches_naive_on_wordnet_shape(seed):
    parents = generate_wordnet_taxonomy(300, seed=seed)
    assert_matches_networkx(parents, leading_pairs(parents, 15))


def test_compiled_matches_naive_on_a_1500_node_dag():
    # The multi-parent shape and size at which the graph-index
    # benchmark's quick mode used to gate equality.
    parents = generate_random_dag(1_500, seed=1, max_parents=3)
    assert_matches_networkx(parents, sample_pairs(parents, 100, seed=7))


def test_generators_are_deterministic():
    assert generate_random_dag(80, seed=5) == generate_random_dag(80, seed=5)
    assert (generate_wordnet_taxonomy(80, seed=5)
            == generate_wordnet_taxonomy(80, seed=5))
    assert generate_random_dag(80, seed=5) != generate_random_dag(80, seed=6)
