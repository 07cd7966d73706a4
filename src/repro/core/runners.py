"""MeasureRunner implementations (paper section 3).

"Behind the SOQA-SimPack Toolkit Facade, MeasureRunner implementations
are used as an interface to the different SimPack similarity measures
available.  Each MeasureRunner is a coupling module that is capable of
retrieving all necessary input data from the SOQAWrapper for SimPack and
initiating a similarity calculation between two single concepts."

Every runner takes the shared :class:`~repro.core.wrapper.
SOQAWrapperForSimPack`, pulls exactly the inputs its measure needs
(feature sets, string sequences, taxonomy positions, IC values, TFIDF
vectors) and returns one floating point value.  New measures plug in by
subclassing :class:`MeasureRunner` and registering with the facade.
"""

from __future__ import annotations

import abc

from repro.core.registry import Measure, RunnerRegistry
from repro.core.results import QualifiedConcept
from repro.core.wrapper import SOQAWrapperForSimPack
from repro.simpack import (
    cosine_similarity,
    dice_similarity,
    extended_jaccard_similarity,
    feature_sets_to_vectors,
    jiang_conrath_similarity,
    leacock_chodorow_similarity,
    lin_similarity,
    resnik_similarity,
    sequence_similarity,
    shortest_path_similarity,
    overlap_similarity,
)
from repro.simpack.strings import (
    jaro_similarity,
    jaro_winkler_similarity,
    lcs_similarity,
    levenshtein_similarity,
    monge_elkan_similarity,
    needleman_wunsch_similarity,
    qgram_similarity,
    smith_waterman_similarity,
    soundex_similarity,
)
from repro.simpack.tree import subtree_of, tree_similarity

__all__ = ["MeasureRunner", "register_builtin_runners"]


class MeasureRunner(abc.ABC):
    """Base class of all measure runners."""

    #: Human-readable measure name (shown by the browser and CLI).
    name: str = ""

    #: One-line description of what the measure captures.
    description: str = ""

    def __init__(self, wrapper: SOQAWrapperForSimPack):
        self.wrapper = wrapper

    @abc.abstractmethod
    def run(self, first: QualifiedConcept,
            second: QualifiedConcept) -> float:
        """The similarity between two qualified concepts."""

    def is_normalized(self) -> bool:
        """Whether scores are guaranteed to lie in [0, 1].

        Only the raw Resnik runner returns an unbounded IC value (as in
        Table 1 of the paper); everything else is normalized.
        """
        return True


# ---------------------------------------------------------------------------
# Distance-based runners
# ---------------------------------------------------------------------------


class ConceptualSimilarityRunner(MeasureRunner):
    """Wu & Palmer's conceptual similarity (Eq. 6), node-counted root
    distance.

    ``N3`` counts *nodes* from the MRCA up to and including the unified
    root (edges + 1), matching the paper's Table 1 where concepts from
    different ontologies — whose MRCA is Super Thing itself — still get
    a small positive score that decreases with depth.
    """

    name = "Conceptual Similarity"
    description = ("Wu & Palmer: 2*N3 / (N1 + N2 + 2*N3) over the unified "
                   "ontology tree")

    def run(self, first: QualifiedConcept,
            second: QualifiedConcept) -> float:
        taxonomy = self.wrapper.taxonomy
        meeting = taxonomy.mrca(self.wrapper.node(first),
                                self.wrapper.node(second))
        if meeting is None:
            return 0.0
        ancestor, distance_first, distance_second = meeting
        root_nodes = taxonomy.depth(ancestor) + 1
        return (2.0 * root_nodes
                / (distance_first + distance_second + 2.0 * root_nodes))


class ShortestPathRunner(MeasureRunner):
    """Inverse shortest path: ``1 / (1 + len(Rx, Ry))``.

    This is the "Shortest Path" column of Table 1 (1.0 on the diagonal,
    hyperbolic decay with distance).  The Eq. 5 linear normalization is
    available as the separate ``EDGE`` measure.
    """

    name = "Shortest Path"
    description = "Inverse edge-count distance 1 / (1 + len) in the tree"

    def run(self, first: QualifiedConcept,
            second: QualifiedConcept) -> float:
        distance = self.wrapper.distance(first, second)
        if distance is None:
            return 0.0
        return 1.0 / (1.0 + distance)


class EdgeRunner(MeasureRunner):
    """The normalized edge-counting measure of Eq. 5."""

    name = "Edge"
    description = "Normalized edge counting (2*MAX - len) / (2*MAX), Eq. 5"

    def run(self, first: QualifiedConcept,
            second: QualifiedConcept) -> float:
        return shortest_path_similarity(
            self.wrapper.taxonomy, self.wrapper.node(first),
            self.wrapper.node(second))


class LeacockChodorowRunner(MeasureRunner):
    """Leacock-Chodorow log path measure, rescaled into [0, 1]."""

    name = "Leacock-Chodorow"
    description = "-log(len / 2D) path measure, normalized"

    def run(self, first: QualifiedConcept,
            second: QualifiedConcept) -> float:
        return leacock_chodorow_similarity(
            self.wrapper.taxonomy, self.wrapper.node(first),
            self.wrapper.node(second))


# ---------------------------------------------------------------------------
# Information-theoretic runners
# ---------------------------------------------------------------------------


class LinRunner(MeasureRunner):
    """Lin's information-theoretic measure (Eq. 8)."""

    name = "Lin"
    description = "2*log p(MICS) / (log p(x) + log p(y)) over subclass IC"

    ic_source = "subclasses"

    def run(self, first: QualifiedConcept,
            second: QualifiedConcept) -> float:
        ic = self.wrapper.information_content(self.ic_source)
        return lin_similarity(ic, self.wrapper.node(first),
                              self.wrapper.node(second))


class ResnikRunner(MeasureRunner):
    """Resnik's measure (Eq. 7), returning the raw IC value as in Table 1."""

    name = "Resnik"
    description = "IC of the most informative common subsumer (raw bits)"

    ic_source = "subclasses"

    def run(self, first: QualifiedConcept,
            second: QualifiedConcept) -> float:
        ic = self.wrapper.information_content(self.ic_source)
        return resnik_similarity(ic, self.wrapper.node(first),
                                 self.wrapper.node(second))

    def is_normalized(self) -> bool:
        return False


class ResnikNormalizedRunner(ResnikRunner):
    """Resnik scaled by the maximum IC, for chart-friendly [0, 1] scores."""

    name = "Resnik (normalized)"
    description = "Resnik IC divided by the maximum IC of the tree"

    def run(self, first: QualifiedConcept,
            second: QualifiedConcept) -> float:
        ic = self.wrapper.information_content(self.ic_source)
        return resnik_similarity(ic, self.wrapper.node(first),
                                 self.wrapper.node(second), normalized=True)

    def is_normalized(self) -> bool:
        return True


class JiangConrathRunner(MeasureRunner):
    """Jiang-Conrath IC distance, as a [0, 1] similarity."""

    name = "Jiang-Conrath"
    description = "1 - (IC(x) + IC(y) - 2*IC(MICS)) / (2 * max IC)"

    ic_source = "subclasses"

    def run(self, first: QualifiedConcept,
            second: QualifiedConcept) -> float:
        ic = self.wrapper.information_content(self.ic_source)
        return jiang_conrath_similarity(ic, self.wrapper.node(first),
                                        self.wrapper.node(second))


# ---------------------------------------------------------------------------
# Sequence and vector runners
# ---------------------------------------------------------------------------


class LevenshteinRunner(MeasureRunner):
    """Sequence Levenshtein over mapping-M2 string sequences (Eq. 4)."""

    name = "Levenshtein"
    description = ("Normalized weighted edit distance between concept "
                   "string sequences (graph walk, mapping M2)")

    def run(self, first: QualifiedConcept,
            second: QualifiedConcept) -> float:
        return sequence_similarity(self.wrapper.string_sequence(first),
                                   self.wrapper.string_sequence(second))


class _VectorRunner(MeasureRunner):
    """Shared machinery of the mapping-M1 vector runners."""

    vector_measure = staticmethod(cosine_similarity)

    def run(self, first: QualifiedConcept,
            second: QualifiedConcept) -> float:
        first_vector, second_vector = feature_sets_to_vectors(
            self.wrapper.feature_set(first),
            self.wrapper.feature_set(second))
        if first == second:
            return 1.0  # featureless identical concepts are still identical
        return self.vector_measure(first_vector, second_vector)


class CosineRunner(_VectorRunner):
    name = "Cosine"
    description = "Cosine of the angle between binary feature vectors (Eq. 1)"
    vector_measure = staticmethod(cosine_similarity)


class ExtendedJaccardRunner(_VectorRunner):
    name = "Extended Jaccard"
    description = "Shared over common features (Eq. 2)"
    vector_measure = staticmethod(extended_jaccard_similarity)


class OverlapRunner(_VectorRunner):
    name = "Overlap"
    description = "Shared features over the smaller feature set (Eq. 3)"
    vector_measure = staticmethod(overlap_similarity)


class DiceRunner(_VectorRunner):
    name = "Dice"
    description = "Dice coefficient over binary feature vectors"
    vector_measure = staticmethod(dice_similarity)


# ---------------------------------------------------------------------------
# Full-text runner
# ---------------------------------------------------------------------------


class TFIDFMeasureRunner(MeasureRunner):
    """TFIDF cosine over Porter-stemmed concept descriptions."""

    name = "TFIDF"
    description = ("Cosine of TFIDF-weighted term vectors of the concepts' "
                   "full-text descriptions")

    def run(self, first: QualifiedConcept,
            second: QualifiedConcept) -> float:
        vector_space = self.wrapper.vector_space()
        return vector_space.similarity(self.wrapper.node(first),
                                       self.wrapper.node(second))


# ---------------------------------------------------------------------------
# String runners over concept names
# ---------------------------------------------------------------------------


class _NameRunner(MeasureRunner):
    """Shared machinery of the concept-name string runners."""

    string_measure = staticmethod(levenshtein_similarity)

    def run(self, first: QualifiedConcept,
            second: QualifiedConcept) -> float:
        return self.string_measure(first.concept_name.lower(),
                                   second.concept_name.lower())


class NameLevenshteinRunner(_NameRunner):
    name = "Name Levenshtein"
    description = "Character edit distance between concept names"
    string_measure = staticmethod(levenshtein_similarity)


class JaroWinklerRunner(_NameRunner):
    name = "Jaro-Winkler"
    description = "Jaro-Winkler string metric over concept names"
    string_measure = staticmethod(jaro_winkler_similarity)


class QGramRunner(_NameRunner):
    name = "QGram"
    description = "Dice coefficient over concept-name bigrams"
    string_measure = staticmethod(qgram_similarity)


class JaroRunner(_NameRunner):
    name = "Jaro"
    description = "Plain Jaro string metric over concept names"
    string_measure = staticmethod(jaro_similarity)


class LCSRunner(_NameRunner):
    name = "LCS"
    description = "Longest common subsequence ratio over concept names"
    string_measure = staticmethod(lcs_similarity)


class SoundexRunner(_NameRunner):
    name = "Soundex"
    description = "Graded Soundex phonetic code comparison of names"
    string_measure = staticmethod(soundex_similarity)


class NeedlemanWunschRunner(_NameRunner):
    name = "Needleman-Wunsch"
    description = "Normalized global alignment score of concept names"
    string_measure = staticmethod(needleman_wunsch_similarity)


class SmithWatermanRunner(_NameRunner):
    name = "Smith-Waterman"
    description = "Normalized local alignment score of concept names"
    string_measure = staticmethod(smith_waterman_similarity)


class MongeElkanRunner(MeasureRunner):
    name = "Monge-Elkan"
    description = "Symmetrized Monge-Elkan token matching on names"

    def run(self, first: QualifiedConcept,
            second: QualifiedConcept) -> float:
        # Split camel-case names into token strings for the token matcher.
        from repro.simpack.text.tokenizer import tokenize

        first_text = " ".join(tokenize(first.concept_name,
                                       drop_stop_words=False))
        second_text = " ".join(tokenize(second.concept_name,
                                        drop_stop_words=False))
        forward = monge_elkan_similarity(first_text, second_text)
        backward = monge_elkan_similarity(second_text, first_text)
        return (forward + backward) / 2.0


# ---------------------------------------------------------------------------
# Tree runner
# ---------------------------------------------------------------------------


class BM25Runner(MeasureRunner):
    """Symmetric BM25 similarity over concept descriptions.

    The second full-text weighting scheme of the mini-Lucene engine;
    each concept's terms query the other's description and the
    self-score-normalized scores are averaged.
    """

    name = "BM25"
    description = ("Symmetrized, self-score-normalized Okapi BM25 over "
                   "concept descriptions")

    def run(self, first: QualifiedConcept,
            second: QualifiedConcept) -> float:
        scorer = self.wrapper.bm25()
        return scorer.similarity(self.wrapper.node(first),
                                 self.wrapper.node(second))


class ExtensionalRunner(MeasureRunner):
    """Jaccard overlap of the concepts' descendant-or-self sets.

    Lin's measure "specifies similarity as the probabilistic degree of
    overlap of descendants between two concepts" (paper section 2.2);
    this runner computes that overlap directly as a set ratio on the
    unified tree — an extensional companion to the IC-based form.
    """

    name = "Extensional"
    description = ("Jaccard ratio of descendant-or-self sets in the "
                   "unified tree")

    def run(self, first: QualifiedConcept,
            second: QualifiedConcept) -> float:
        taxonomy = self.wrapper.taxonomy
        first_node = self.wrapper.node(first)
        second_node = self.wrapper.node(second)
        # |A ∩ B| / |A ∪ B| from counts: every set holds its own node,
        # so the union is never empty.
        shared = taxonomy.shared_descendant_count(first_node, second_node)
        return shared / (taxonomy.descendant_count(first_node)
                         + taxonomy.descendant_count(second_node) - shared)


class TreeEditRunner(MeasureRunner):
    """Zhang-Shasha tree edit similarity of the concepts' subtrees."""

    name = "Tree Edit"
    description = ("Normalized Zhang-Shasha edit distance between the "
                   "taxonomy subtrees rooted at the concepts")

    #: Unfolding depth bound; keeps worst-case cost manageable on the
    #: full corpus while covering typical concept neighborhoods.
    max_depth = 3

    def run(self, first: QualifiedConcept,
            second: QualifiedConcept) -> float:
        taxonomy = self.wrapper.taxonomy
        first_tree = subtree_of(taxonomy, self.wrapper.node(first),
                                max_depth=self.max_depth)
        second_tree = subtree_of(taxonomy, self.wrapper.node(second),
                                 max_depth=self.max_depth)
        # Compare shapes, not node spellings: relabel by depth so the
        # measure captures structural similarity of the subtrees.
        def relabel(node, depth):
            node.label = f"level{depth}"
            for child in node.children:
                relabel(child, depth + 1)

        if first == second:
            return 1.0
        relabel(first_tree, 0)
        relabel(second_tree, 0)
        return tree_similarity(first_tree, second_tree)


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

_BUILTIN_RUNNERS: dict[Measure, type[MeasureRunner]] = {
    Measure.CONCEPTUAL_SIMILARITY: ConceptualSimilarityRunner,
    Measure.LEVENSHTEIN: LevenshteinRunner,
    Measure.LIN: LinRunner,
    Measure.RESNIK: ResnikRunner,
    Measure.SHORTEST_PATH: ShortestPathRunner,
    Measure.TFIDF: TFIDFMeasureRunner,
    Measure.EDGE: EdgeRunner,
    Measure.LEACOCK_CHODOROW: LeacockChodorowRunner,
    Measure.JIANG_CONRATH: JiangConrathRunner,
    Measure.RESNIK_NORMALIZED: ResnikNormalizedRunner,
    Measure.COSINE: CosineRunner,
    Measure.EXTENDED_JACCARD: ExtendedJaccardRunner,
    Measure.OVERLAP: OverlapRunner,
    Measure.DICE: DiceRunner,
    Measure.NAME_LEVENSHTEIN: NameLevenshteinRunner,
    Measure.JARO_WINKLER: JaroWinklerRunner,
    Measure.QGRAM: QGramRunner,
    Measure.MONGE_ELKAN: MongeElkanRunner,
    Measure.TREE_EDIT: TreeEditRunner,
    Measure.JARO: JaroRunner,
    Measure.LCS: LCSRunner,
    Measure.SOUNDEX: SoundexRunner,
    Measure.NEEDLEMAN_WUNSCH: NeedlemanWunschRunner,
    Measure.SMITH_WATERMAN: SmithWatermanRunner,
    Measure.EXTENSIONAL: ExtensionalRunner,
    Measure.BM25: BM25Runner,
}


def register_builtin_runners(registry: RunnerRegistry) -> None:
    """Register every bundled runner class with ``registry``."""
    for measure, runner_class in _BUILTIN_RUNNERS.items():
        registry.register(int(measure), runner_class.name, runner_class)
