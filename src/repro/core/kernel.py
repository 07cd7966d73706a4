"""Vectorized all-pairs similarity kernel over the compiled taxonomy.

The paper's headline scenarios — similarity matrices (Fig. 4), k-most-
similar rankings (Fig. 5), cross-ontology browsing (Fig. 6) — are
all-pairs workloads, yet the per-pair :class:`~repro.core.runners.
MeasureRunner` path re-enters the facade machinery (string node keys,
cache canonicalization, wrapper lookups) for every single cell.  The
:class:`SimilarityKernel` computes whole batches instead: it exports
the :class:`~repro.soqa.graphindex.CompiledTaxonomy` tables once per
corpus state (dense int IDs, depth arrays, ancestor-distance maps,
descendant popcounts), precomputes the per-node information-content
column and the per-distance value tables of the path measures, and then
evaluates the graph-based measures over all pairs in tight integer
loops.

Each measure is a *statistic* per pair (the via-ancestor distance, the
MRCA's distance sum and depth, the most informative common subsumer's
IC, or the shared-descendant count) and a *formula* over it.  The
statistic has two forms: :meth:`SimilarityKernel.batch` intersects the
two ancestor maps of every pair, and :meth:`SimilarityKernel.walk` —
the k-most services' entry — finds it for one anchor, best first: it
walks out from the anchor's ancestors down the child edges and yields
the nodes in batches, each with a bound on every score still to come,
so a top-k query stops as soon as its answer is proven and a
bottom-k query runs it to the end.  Both forms feed the same formula
code.

**Bit-identical parity with the per-pair path is the contract**, for
the walk as for the batch.  Every evaluator replicates its scalar
formula operation by operation — same integer arithmetic, same float
expression shapes, same special cases and tie-breaks — and is gated by
the golden 26-measure matrix fixture, the serial-vs-parallel
divergence tests, randomized-DAG ``kernel == naive`` property tests and
the walk's top-k differential tests.  Measures without a batch form
(the string, vector, text and tree measures, and any user-subclassed
runner) transparently fall back to the per-pair loop.

The kernel always scores what it can batch; no user-facing switch
picks the per-pair loop.  The ``engine="naive"`` keyword of
:class:`~repro.core.parallel.BatchSimilarityEngine` and the facade's
batch services is the reference hook the parity tests and benchmarks
score the per-pair path through; :func:`resolve_engine` validates it.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, groupby, repeat
from typing import TYPE_CHECKING, Sequence

from repro.core import telemetry
from repro.core.cache import CachedRunner
from repro.core.results import QualifiedConcept
from repro.core.runners import (
    ConceptualSimilarityRunner,
    EdgeRunner,
    ExtensionalRunner,
    JiangConrathRunner,
    LeacockChodorowRunner,
    LinRunner,
    MeasureRunner,
    ResnikNormalizedRunner,
    ResnikRunner,
    ShortestPathRunner,
)
from repro.errors import SSTCoreError
from repro.simpack.base import clamp_similarity
from repro.soqa.graphindex import iter_bits

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.wrapper import SOQAWrapperForSimPack

__all__ = [
    "ENGINES",
    "KERNEL",
    "NAIVE",
    "SimilarityKernel",
    "batchable",
    "kernel_runner",
    "numpy_available",
    "resolve_engine",
    "try_batch",
]

KERNEL = "kernel"
NAIVE = "naive"

#: All batch-engine selections.
ENGINES = (KERNEL, NAIVE)


def resolve_engine(engine: str | None = None) -> str:
    """The batch engine to use: the validated argument, or the kernel.

    The kernel is bit-identical to the per-pair path by contract;
    ``"naive"`` is the reference path parity tests and benchmarks
    score against.
    """
    if engine is None:
        return KERNEL
    engine = engine.lower()
    if engine not in ENGINES:
        raise SSTCoreError(
            f"unknown batch engine {engine!r}; expected one of "
            f"{', '.join(ENGINES)}")
    return engine


def numpy_available() -> bool:
    """Always ``False``: the kernel has no numpy path.

    Kept because the benchmark records this value in its run
    conditions.
    """
    return False


#: The runners with a batch form, by *exact* class: the per-pair
#: statistic each consumes and the formula that turns it into scores.
#: A user subclass — which may override ``run`` arbitrarily — never
#: matches and falls back to the per-pair path.
_BATCH_FORMS: dict[type, tuple[str, str]] = {
    ConceptualSimilarityRunner: ("mrca", "_conceptual_similarity"),
    ShortestPathRunner: ("distance", "_shortest_path"),
    EdgeRunner: ("distance", "_edge"),
    LeacockChodorowRunner: ("distance", "_leacock_chodorow"),
    LinRunner: ("mics", "_lin"),
    ResnikRunner: ("mics", "_resnik"),
    ResnikNormalizedRunner: ("mics", "_resnik_normalized"),
    JiangConrathRunner: ("mics", "_jiang_conrath"),
    ExtensionalRunner: ("overlap", "_extensional"),
}

#: The IC-based runners; their batch form replicates the *subclasses*
#: estimator only, so an instance retargeted at the instance estimator
#: falls back.
_IC_RUNNERS = (LinRunner, ResnikRunner, ResnikNormalizedRunner,
               JiangConrathRunner)


def batchable(runner: MeasureRunner) -> bool:
    """Whether the kernel has a batch form for this exact runner."""
    kind = type(runner)
    if kind not in _BATCH_FORMS:
        return False
    if kind in _IC_RUNNERS and getattr(
            runner, "ic_source", None) != "subclasses":
        return False
    return True


class SimilarityKernel:
    """Batch evaluation of the graph-based measures over one corpus.

    One kernel per :class:`~repro.core.wrapper.SOQAWrapperForSimPack`
    (i.e. per corpus fingerprint — the facade swaps the wrapper when
    the ontology set changes).  Construction forces the compiled
    taxonomy index, exports its tables and computes the IC column, so
    a built kernel does no per-corpus work for a pair; the per-distance
    values of the path measures fill lazily, one distance at a time,
    and are shared by every batch thereafter.
    """

    def __init__(self, wrapper: "SOQAWrapperForSimPack"):
        self.wrapper = wrapper
        taxonomy = wrapper.taxonomy
        with telemetry.span("kernel.build", nodes=len(taxonomy)):
            self.tables = taxonomy.compile().export_tables()
        telemetry.count("kernel.builds")
        #: String keys: a frozen dataclass would hash in Python per lookup.
        self._node_ids: dict[tuple[str, str], int] = {}
        size = self.tables.size
        # Per-node IC under the subclasses estimator: exactly
        # ``-log2(descendant_count / size) + 0.0`` per node, the same
        # two operations :meth:`repro.simpack.infocontent.
        # InformationContent.ic` performs, so every entry is
        # bit-identical to the scalar path.
        self._ic = [-math.log2(count / size) + 0.0
                    for count in self.tables.descendant_counts]
        #: The taxonomy's maximum IC (``log2`` of the node count).
        self._max_ic = math.log2(size)
        self._edge_values: dict[int, float] = {}
        self._lc_values: dict[int, float] = {}

    # -- id resolution ------------------------------------------------------

    def resolve_id(self, concept: QualifiedConcept) -> int:
        """The node ID of ``concept``; raises the per-pair path's errors."""
        key = (concept.ontology_name, concept.concept_name)
        cached = self._node_ids.get(key)
        if cached is None:
            # node_of validates and raises the same typed errors the
            # per-pair path would (unknown ontology vs unknown concept).
            node = self.wrapper.tree.node_of(concept)
            cached = self.tables.ids[node]
            self._node_ids[key] = cached
        return cached

    def _resolve_pairs(self, pairs: Sequence) -> list[tuple[int, int]]:
        resolve = self.resolve_id
        return [(resolve(first), resolve(second)) for first, second in pairs]

    # -- shared per-node/per-distance tables --------------------------------

    def _edge_value(self, distance: int) -> float:
        """Eq. 5 score of one path length (memoized per distance)."""
        value = self._edge_values.get(distance)
        if value is None:
            max_depth = self.tables.max_depth
            if max_depth == 0:
                value = 0.0
            else:
                value = clamp_similarity(
                    (2.0 * max_depth - distance) / (2.0 * max_depth))
            self._edge_values[distance] = value
        return value

    def _lc_value(self, distance: int) -> float:
        """Leacock-Chodorow score of one path length (memoized).

        The one transcendental of the path measures; computed with
        :func:`math.log` exactly as the scalar formula, once per
        distinct distance.
        """
        value = self._lc_values.get(distance)
        if value is None:
            depth = max(self.tables.max_depth, 1)
            length = distance + 1
            raw = (-math.log(length / (2.0 * depth))
                   if length < 2 * depth else 0.0)
            maximum = math.log(2.0 * depth)
            if maximum == 0.0:
                value = 0.0
            else:
                value = clamp_similarity(raw / maximum)
            self._lc_values[distance] = value
        return value

    # -- per-pair statistics ------------------------------------------------

    def _pair_distance(self, id_pairs: list[tuple[int, int]]) -> list[int]:
        """Via-ancestor path length per pair (``-1`` = unreachable).

        The same min-plus intersection of the two ancestor-distance
        maps as ``CompiledTaxonomy._path_sum_ids``, inlined over the
        batch.
        """
        ancestor_distances = self.tables.ancestor_distances
        out: list[int] = []
        append = out.append
        for first, second in id_pairs:
            if first == second:
                append(0)
                continue
            near_map = ancestor_distances[first]
            far_map = ancestor_distances[second]
            if len(far_map) < len(near_map):
                near_map, far_map = far_map, near_map
            lookup = far_map.get
            best = -1
            for ancestor, near in near_map.items():
                far = lookup(ancestor)
                if far is not None:
                    total = near + far
                    if best < 0 or total < best:
                        best = total
            append(best)
        return out

    def _pair_mrca(self, id_pairs: list[tuple[int, int]],
                   ) -> tuple[list[int], list[int]]:
        """Per pair: minimal distance sum and depth of the MRCA.

        Replicates the naive MRCA selection for the quantities Wu &
        Palmer's formula consumes: among minimal-sum common ancestors
        the naive tie-break prefers the deeper one (the name order only
        decides between *equally deep* candidates and cannot change the
        depth), so tracking the maximal depth at the minimal sum yields
        exactly the chosen ancestor's depth.  ``-1`` sums mark pairs
        without a common ancestor.
        """
        ancestor_distances = self.tables.ancestor_distances
        depths = self.tables.depths
        sums: list[int] = []
        mrca_depths: list[int] = []
        for first, second in id_pairs:
            if first == second:
                sums.append(0)
                mrca_depths.append(depths[first])
                continue
            near_map = ancestor_distances[first]
            far_map = ancestor_distances[second]
            if len(far_map) < len(near_map):
                near_map, far_map = far_map, near_map
            lookup = far_map.get
            best_sum = -1
            best_depth = -1
            for ancestor, near in near_map.items():
                far = lookup(ancestor)
                if far is None:
                    continue
                total = near + far
                if best_sum < 0 or total < best_sum:
                    best_sum = total
                    best_depth = depths[ancestor]
                elif total == best_sum:
                    depth = depths[ancestor]
                    if depth > best_depth:
                        best_depth = depth
            sums.append(best_sum)
            mrca_depths.append(best_depth)
        return sums, mrca_depths

    def _pair_mics(self, id_pairs: list[tuple[int, int]],
                   ) -> list[float | None]:
        """IC of the most informative common subsumer per pair.

        The scalar path's ``max(sorted(ancestors), key=ic)`` tie-break
        picks a *name*; the value Eq. 7/8 consume is the maximal IC
        itself, which any tied ancestor yields identically — so the
        batch form only tracks the maximum.  ``None`` marks pairs
        without a common subsumer.
        """
        ancestor_distances = self.tables.ancestor_distances
        ic = self._ic
        out: list[float | None] = []
        append = out.append
        for first, second in id_pairs:
            near_map = ancestor_distances[first]
            far_map = ancestor_distances[second]
            if len(far_map) < len(near_map):
                near_map, far_map = far_map, near_map
            best: float | None = None
            for ancestor in near_map:
                if ancestor in far_map:
                    value = ic[ancestor]
                    if best is None or value > best:
                        best = value
            append(best)
        return out

    def _pair_overlap(self, id_pairs: list[tuple[int, int]]) -> list[int]:
        """Shared descendants-or-self per pair (a bitset popcount)."""
        descendant_bits = self.tables.descendant_bits
        return [(descendant_bits[first] & descendant_bits[second]).bit_count()
                for first, second in id_pairs]

    # -- one-anchor walks, best first ---------------------------------------
    #
    # The same statistics as above for ``(anchor, node)``, found in
    # best-first batches.  Each walk yields ``(node_ids, statistic,
    # bound_node, bound_statistic)``: the batch's nodes and their
    # statistic, plus one stand-in pair ``(anchor, bound_node)`` whose
    # score, under ``bound_statistic``, no node yielded later beats.
    # ``bound_node`` is ``None`` when every node left shares nothing
    # with the anchor, i.e. scores 0.0.  A node no walk reaches shares
    # no ancestor (or, for the overlap, no descendant) with the anchor.

    def _seed_levels(self, anchor: int) -> list[list[int]]:
        """The anchor's ancestors-or-self, bucketed by distance."""
        distances = self.tables.ancestor_distances[anchor]
        levels: list[list[int]] = [[] for _ in range(
            max(distances.values()) + 1)]
        for ancestor, distance in distances.items():
            levels[distance].append(ancestor)
        return levels

    def _walk_distance(self, anchor: int):
        """``_pair_distance`` of ``(anchor, node)``, one distance a batch.

        A level-synchronous BFS down the child edges, each ancestor of
        the anchor joining it at its own distance: it reaches a node at
        the least ``d(anchor, a) + d(node, a)`` over the common
        ancestors ``a``, the pair form's minimum.  ``-1`` as the bound
        node is a stand-in candidate that is never the anchor.
        """
        child_ids = self.tables.child_ids
        seeds = self._seed_levels(anchor)
        seen = bytearray(self.tables.size)
        frontier: list[int] = []
        level = 0
        while frontier or level < len(seeds):
            batch: list[int] = []
            for node in frontier:
                for child in child_ids[node]:
                    if not seen[child]:
                        seen[child] = 1
                        batch.append(child)
            if level < len(seeds):
                for node in seeds[level]:
                    if not seen[node]:
                        seen[node] = 1
                        batch.append(node)
            yield batch, [level] * len(batch), -1, [level + 1]
            frontier = batch
            level += 1

    def _walk_mrca(self, anchor: int):
        """``_pair_mrca`` of ``(anchor, node)``, one distance sum a batch.

        :meth:`_walk_distance`, carrying the largest MRCA depth among
        the ancestors at the minimal sum: a node's is the largest pushed
        by its parents one level up, and its own depth if it is itself
        an ancestor of the anchor at exactly this distance.  Depths are
        shortest depths, so an ancestor may lie deeper than the anchor:
        the bound takes the deepest one.
        """
        child_ids = self.tables.child_ids
        depths = self.tables.depths
        seeds = self._seed_levels(anchor)
        deepest = [max(depths[node] for level in seeds for node in level)]
        seen = bytearray(self.tables.size)
        frontier: dict[int, int] = {}
        level = 0
        while frontier or level < len(seeds):
            batch: dict[int, int] = {}
            for node, depth in frontier.items():
                for child in child_ids[node]:
                    if not seen[child]:
                        seen[child] = 1
                        batch[child] = depth
                    elif child in batch and depth > batch[child]:
                        batch[child] = depth
            if level < len(seeds):
                for node in seeds[level]:
                    depth = depths[node]
                    if not seen[node]:
                        seen[node] = 1
                        batch[node] = depth
                    elif node in batch and depth > batch[node]:
                        batch[node] = depth
            yield (list(batch), ([level] * len(batch), list(batch.values())),
                   -1, ([level + 1], deepest))
            frontier = batch
            level += 1

    def _walk_mics(self, anchor: int):
        """``_pair_mics`` of ``(anchor, node)``, one subsumer IC a batch.

        The anchor's ancestors by IC, highest first, equal ICs grouped:
        a group's batch is the not yet visited part of its descendant
        cones, whose most informative common subsumer with the anchor
        has exactly the group's IC.  A union of cones is closed
        downwards, so the search stops at visited nodes.  A
        descendant's IC is never below its ancestor's, so the next
        group's first ancestor, as the candidate, bounds the rest.
        """
        child_ids = self.tables.child_ids
        ic = self._ic
        ancestors = sorted(self.tables.ancestor_distances[anchor],
                           key=ic.__getitem__, reverse=True)
        groups = [list(group) for _, group
                  in groupby(ancestors, key=ic.__getitem__)]
        seen = bytearray(self.tables.size)
        for index, group in enumerate(groups):
            # No ancestor lies in a cone of higher IC.
            batch = list(group)
            for node in batch:
                seen[node] = 1
            # The loop also visits the children it appends.
            for node in batch:
                for child in child_ids[node]:
                    if not seen[child]:
                        seen[child] = 1
                        batch.append(child)
            bound_node = (groups[index + 1][0] if index + 1 < len(groups)
                          else None)
            yield (batch, [ic[group[0]]] * len(batch), bound_node,
                   None if bound_node is None else [ic[bound_node]])

    def _walk_overlap(self, anchor: int):
        """``_pair_overlap`` of ``(anchor, node)`` for every node it
        counts, in one batch.

        Exact integer counts: every descendant-or-self of the anchor
        adds one to each of its ancestors-or-self.
        """
        tables = self.tables
        descendants = iter_bits(tables.descendant_bits[anchor])
        counts = Counter(chain.from_iterable(
            map(tables.ancestor_distances.__getitem__, descendants)))
        yield list(counts), list(counts.values()), None, None

    # -- formulas -----------------------------------------------------------
    #
    # Each turns ``id_pairs`` and their statistic into scores, the same
    # for a batch and a walk (whose pairs are ``(anchor, node)``).

    def _shortest_path(self, id_pairs, distances: list[int]) -> list[float]:
        return [0.0 if distance < 0 else 1.0 / (1.0 + distance)
                for distance in distances]

    def _edge(self, id_pairs, distances: list[int]) -> list[float]:
        edge_value = self._edge_value
        values: list[float] = []
        for (first, second), distance in zip(id_pairs, distances):
            if first == second:
                values.append(1.0)
            elif distance < 0:
                values.append(0.0)
            else:
                values.append(edge_value(distance))
        return values

    def _leacock_chodorow(self, id_pairs, distances: list[int],
                          ) -> list[float]:
        lc_value = self._lc_value
        values: list[float] = []
        for (first, second), distance in zip(id_pairs, distances):
            if first == second:
                values.append(1.0)
            elif distance < 0:
                values.append(0.0)
            else:
                values.append(lc_value(distance))
        return values

    def _conceptual_similarity(self, id_pairs,
                               mrca: tuple[list[int], list[int]],
                               ) -> list[float]:
        sums, mrca_depths = mrca
        values: list[float] = []
        for total, depth in zip(sums, mrca_depths):
            if total < 0:
                values.append(0.0)
                continue
            root_nodes = depth + 1
            values.append(2.0 * root_nodes / (total + 2.0 * root_nodes))
        return values

    def _lin(self, id_pairs, subsumer_ics: list[float | None],
             ) -> list[float]:
        ic = self._ic
        values: list[float] = []
        for (first, second), subsumer_ic in zip(id_pairs, subsumer_ics):
            if first == second:
                values.append(1.0)
            elif subsumer_ic is None:
                values.append(0.0)
            else:
                denominator = ic[first] + ic[second]
                if denominator == 0.0:
                    values.append(0.0)
                else:
                    values.append(clamp_similarity(
                        2.0 * subsumer_ic / denominator))
        return values

    def _resnik(self, id_pairs, subsumer_ics: list[float | None],
                ) -> list[float]:
        return [0.0 if subsumer_ic is None else subsumer_ic
                for subsumer_ic in subsumer_ics]

    def _resnik_normalized(self, id_pairs,
                           subsumer_ics: list[float | None],
                           ) -> list[float]:
        maximum = self._max_ic
        values: list[float] = []
        for subsumer_ic in subsumer_ics:
            if subsumer_ic is None or maximum == 0.0:
                values.append(0.0)
            else:
                values.append(clamp_similarity(subsumer_ic / maximum))
        return values

    def _jiang_conrath(self, id_pairs, subsumer_ics: list[float | None],
                       ) -> list[float]:
        ic = self._ic
        maximum = 2.0 * self._max_ic
        values: list[float] = []
        for (first, second), subsumer_ic in zip(id_pairs, subsumer_ics):
            if first == second:
                values.append(1.0)
            elif subsumer_ic is None:
                values.append(0.0)
            elif maximum == 0.0:
                values.append(0.0)
            else:
                distance = ic[first] + ic[second] - 2.0 * subsumer_ic
                values.append(clamp_similarity(1.0 - distance / maximum))
        return values

    def _extensional(self, id_pairs, overlaps: list[int]) -> list[float]:
        # |A ∩ B| / |A ∪ B| with the union as an integer identity: every
        # set holds its own node, so the union is never empty.
        counts = self.tables.descendant_counts
        return [overlap / (counts[first] + counts[second] - overlap)
                for (first, second), overlap in zip(id_pairs, overlaps)]

    # -- entry points -------------------------------------------------------

    def batch(self, runner: MeasureRunner, pairs: Sequence) -> list[float]:
        """Score every ``(first, second)`` pair with the batch form.

        ``runner`` must satisfy :func:`batchable`; use :func:`try_batch`
        for the dispatch-or-fallback entry point.
        """
        statistic, formula = _BATCH_FORMS[type(runner)]
        with telemetry.span("kernel.batch", measure=runner.name,
                            pairs=len(pairs)):
            id_pairs = self._resolve_pairs(pairs)
            values = getattr(self, formula)(
                id_pairs, getattr(self, "_pair_" + statistic)(id_pairs))
        telemetry.count("kernel.batches")
        telemetry.count("kernel.pairs", len(pairs))
        return values

    def walk(self, runner: MeasureRunner, anchor_id: int):
        """Score ``(anchor, node)`` best first, in batches.

        A generator of ``(node_ids, scores, bound)``: each score is
        bit-identical to ``batch(runner, [(anchor, node)])``, and
        ``bound`` is at least the score of every node not yet yielded.
        Once it is exhausted, every node it never yielded scores
        exactly 0.0.  ``runner`` must satisfy :func:`batchable`.  A
        caller that stops early should close the generator, so the
        ``kernel.walk`` span ends where the caller stops.
        """
        statistic, formula = _BATCH_FORMS[type(runner)]
        score = getattr(self, formula)
        visited = 0
        with telemetry.span("kernel.walk", measure=runner.name) as record:
            try:
                for node_ids, values, bound_node, bound_value in getattr(
                        self, "_walk_" + statistic)(anchor_id):
                    visited += len(node_ids)
                    bound = (0.0 if bound_node is None else
                             score([(anchor_id, bound_node)], bound_value)[0])
                    yield (node_ids,
                           score(zip(repeat(anchor_id), node_ids), values),
                           bound)
            finally:
                if record is not None:
                    record.labels["visited"] = visited
                telemetry.count("kernel.walks")
                telemetry.count("kernel.walk.nodes", visited)


# ---------------------------------------------------------------------------
# Dispatch helpers (the parallel engine's entry points)
# ---------------------------------------------------------------------------


def kernel_runner(runner: MeasureRunner) -> MeasureRunner | None:
    """The runner the kernel scores in place of ``runner``, if any.

    ``None`` when there is no batch form (the caller takes the per-pair
    path).  The kernel scores a batch faster than either cache tier
    could look it up or store it, so a
    :class:`~repro.core.cache.CachedRunner` around a batchable runner
    is scored through its inner runner: its L1, L2 and hit counters
    are left untouched.  The facade never builds such a wrapper.
    """
    inner = runner.inner if isinstance(runner, CachedRunner) else runner
    return inner if batchable(inner) else None


def try_batch(runner: MeasureRunner, pairs: Sequence) -> list[float] | None:
    """Batch-score ``pairs`` if the runner has a batch form, else ``None``."""
    inner = kernel_runner(runner)
    if inner is None:
        return None
    return inner.wrapper.kernel().batch(inner, pairs)
