"""Agglomerative hierarchical clustering over similarity matrices.

Classic bottom-up clustering: start with singletons, repeatedly merge
the pair of clusters with the highest inter-cluster similarity, under a
selectable *linkage*:

* ``"single"`` — similarity of the closest pair (produces chains),
* ``"complete"`` — similarity of the farthest pair (compact clusters),
* ``"average"`` — mean pairwise similarity (UPGMA).

Inputs are *similarity* matrices (1.0 = identical), matching what the
SST facade produces, so no distance conversion is needed anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import SSTCoreError

__all__ = ["ClusterNode", "ConceptClusterer", "agglomerate",
           "cut_clusters", "render_dendrogram"]

LINKAGES = ("single", "complete", "average")


@dataclass
class ClusterNode:
    """A node of the dendrogram.

    Leaves carry an ``item`` index; internal nodes carry their children
    and the similarity at which they were merged.
    """

    members: tuple[int, ...]
    similarity: float = 1.0
    item: int | None = None
    children: tuple["ClusterNode", ...] = field(default_factory=tuple)

    @property
    def is_leaf(self) -> bool:
        return self.item is not None

    def leaves(self) -> list[int]:
        """Item indices under this node, in dendrogram order."""
        if self.is_leaf:
            return [self.item]
        collected: list[int] = []
        for child in self.children:
            collected.extend(child.leaves())
        return collected


def _linkage_value(linkage: str, values: list[float]) -> float:
    if linkage == "single":
        return max(values)
    if linkage == "complete":
        return min(values)
    return sum(values) / len(values)


def agglomerate(matrix: Sequence[Sequence[float]],
                linkage: str = "average") -> ClusterNode:
    """Build the full dendrogram for a similarity matrix.

    Returns the root :class:`ClusterNode` covering all items.  A single
    item yields its leaf.  Quadratic-memory, cubic-worst-case time —
    fine for the concept-set sizes SST services hand out.
    """
    if linkage not in LINKAGES:
        raise SSTCoreError(
            f"unknown linkage {linkage!r}; expected one of "
            f"{', '.join(LINKAGES)}")
    count = len(matrix)
    if count == 0:
        raise SSTCoreError("cannot cluster zero items")
    if any(len(row) != count for row in matrix):
        raise SSTCoreError("similarity matrix must be square")
    clusters: dict[int, ClusterNode] = {
        index: ClusterNode(members=(index,), item=index)
        for index in range(count)
    }
    # Pairwise similarities between current clusters, by cluster id.
    similarities: dict[tuple[int, int], float] = {
        (first, second): matrix[first][second]
        for first in range(count) for second in range(first + 1, count)
    }
    next_id = count
    while len(clusters) > 1:
        (first_id, second_id), merge_similarity = max(
            similarities.items(),
            key=lambda entry: (entry[1], -entry[0][0], -entry[0][1]))
        first = clusters.pop(first_id)
        second = clusters.pop(second_id)
        merged = ClusterNode(
            members=tuple(first.members + second.members),
            similarity=merge_similarity,
            children=(first, second),
        )
        # Update similarities of the merged cluster to all others.
        for other_id, other in clusters.items():
            values = [matrix[i][j]
                      for i in merged.members for j in other.members]
            key = (min(other_id, next_id), max(other_id, next_id))
            similarities[key] = _linkage_value(linkage, values)
        clusters[next_id] = merged
        similarities = {
            key: value for key, value in similarities.items()
            if first_id not in key and second_id not in key
        }
        next_id += 1
    return next(iter(clusters.values()))


def cut_clusters(root: ClusterNode,
                 threshold: float) -> list[list[int]]:
    """Flat clusters: split every merge below ``threshold`` similarity.

    Returns item-index groups; items merged at ``similarity >=
    threshold`` stay together.
    """
    groups: list[list[int]] = []

    def walk(node: ClusterNode) -> None:
        if node.is_leaf or node.similarity >= threshold:
            groups.append(node.leaves())
            return
        for child in node.children:
            walk(child)

    walk(root)
    return groups


def render_dendrogram(root: ClusterNode, labels: Sequence[str]) -> str:
    """The dendrogram as an indented text tree with merge similarities."""
    lines: list[str] = []

    def walk(node: ClusterNode, depth: int) -> None:
        indent = "  " * depth
        if node.is_leaf:
            lines.append(f"{indent}- {labels[node.item]}")
            return
        lines.append(f"{indent}+ merge @ {node.similarity:.3f}")
        for child in node.children:
            walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines)


class ConceptClusterer:
    """Clustering of qualified concepts via an SST facade.

    ``workers`` is forwarded to the facade's similarity matrix service,
    so the quadratic distance-matrix step — the clusterer's hot path —
    runs through the parallel batch engine; ``None`` runs it serially.
    """

    def __init__(self, sst, measure, linkage: str = "average",
                 workers: int | None = None):
        self.sst = sst
        self.measure = measure
        self.linkage = linkage
        self.workers = workers

    def _matrix(self, concepts: Sequence) -> list[list[float]]:
        return self.sst.get_similarity_matrix(
            list(concepts), self.measure, workers=self.workers)

    def cluster(self, concepts: Sequence, threshold: float = 0.5,
                ) -> list[list]:
        """Flat clusters of ``(ontology, concept)`` references.

        Computes the SST similarity matrix under the configured measure,
        agglomerates, and cuts at ``threshold``.  Returns groups of the
        original references.
        """
        if not concepts:
            return []
        matrix = self._matrix(concepts)
        root = agglomerate(matrix, linkage=self.linkage)
        return [[concepts[index] for index in group]
                for group in cut_clusters(root, threshold)]

    def dendrogram(self, concepts: Sequence) -> str:
        """The full dendrogram of the concept references, as text."""
        matrix = self._matrix(concepts)
        root = agglomerate(matrix, linkage=self.linkage)
        labels = [f"{ontology}:{concept}"
                  for ontology, concept in concepts]
        return render_dendrogram(root, labels)
