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

**Bit-identical parity with the per-pair path is the contract.**  Every
batch evaluator replicates its scalar formula operation by operation —
same integer arithmetic, same float expression shapes, same special
cases and tie-breaks — and is gated by the golden 26-measure matrix
fixture, the serial-vs-parallel divergence tests, and randomized-DAG
``kernel == naive`` property tests.  Measures without a batch form (the
string, vector, text and tree measures, and any user-subclassed
runner) transparently fall back to the per-pair loop.

An optional numpy fast path sits behind a feature probe
(:func:`numpy_available`).  It is only used for the *formula
application* stage — elementwise float64 arithmetic and table gathers,
which IEEE 754 rounds exactly like the scalar expressions — never for
transcendentals, which are always precomputed per node (or per distinct
distance) with :mod:`math`.  Results are therefore bit-identical with
and without numpy installed.

The kernel always scores what it can batch; no user-facing switch
picks the per-pair loop.  The ``engine="naive"`` keyword of
:class:`~repro.core.parallel.BatchSimilarityEngine` and the facade's
batch services is the reference hook the parity tests and benchmarks
score the per-pair path through; :func:`resolve_engine` validates it.
"""

from __future__ import annotations

import math
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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.wrapper import SOQAWrapperForSimPack

__all__ = [
    "ENGINES",
    "KERNEL",
    "NAIVE",
    "SimilarityKernel",
    "batchable",
    "numpy_available",
    "prime",
    "resolve_engine",
    "try_batch",
]

KERNEL = "kernel"
NAIVE = "naive"

#: All batch-engine selections.
ENGINES = (KERNEL, NAIVE)

#: Pair count from which the numpy fast path pays for its conversion
#: overhead; below it the plain loops win.
_NUMPY_MIN_PAIRS = 64


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


def _probe_numpy():
    """The numpy module if importable, else ``None`` (feature probe)."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


_NUMPY = _probe_numpy()


def numpy_available() -> bool:
    """Whether the optional numpy fast path is active."""
    return _NUMPY is not None


#: The runners with a batch form, by *exact* class.  A user subclass —
#: which may override ``run`` arbitrarily — never matches and falls
#: back to the per-pair path.
_BATCH_METHODS: dict[type, str] = {
    ConceptualSimilarityRunner: "_conceptual_similarity",
    ShortestPathRunner: "_shortest_path",
    EdgeRunner: "_edge",
    LeacockChodorowRunner: "_leacock_chodorow",
    LinRunner: "_lin",
    ResnikRunner: "_resnik",
    ResnikNormalizedRunner: "_resnik_normalized",
    JiangConrathRunner: "_jiang_conrath",
    ExtensionalRunner: "_extensional",
}

#: The IC-based runners; their batch form replicates the *subclasses*
#: estimator only, so an instance retargeted at the instance estimator
#: falls back.
_IC_RUNNERS = (LinRunner, ResnikRunner, ResnikNormalizedRunner,
               JiangConrathRunner)


def batchable(runner: MeasureRunner) -> bool:
    """Whether the kernel has a batch form for this exact runner."""
    kind = type(runner)
    if kind not in _BATCH_METHODS:
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
    taxonomy index and exports its tables; the IC column and the
    per-distance value tables of the path measures fill lazily on
    first use and are shared by every batch thereafter.
    """

    def __init__(self, wrapper: "SOQAWrapperForSimPack"):
        self.wrapper = wrapper
        taxonomy = wrapper.taxonomy
        with telemetry.span("kernel.build", nodes=len(taxonomy)):
            self.tables = taxonomy.compile().export_tables()
        telemetry.count("kernel.builds")
        #: String keys: a frozen dataclass would hash in Python per lookup.
        self._node_ids: dict[tuple[str, str], int] = {}
        self._ic: list[float] | None = None
        self._max_ic: float | None = None
        self._edge_values: dict[int, float] = {}
        self._lc_values: dict[int, float] = {}

    # -- id resolution ------------------------------------------------------

    def _resolve_id(self, concept: QualifiedConcept) -> int:
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
        resolve = self._resolve_id
        return [(resolve(first), resolve(second)) for first, second in pairs]

    # -- shared per-node/per-distance tables --------------------------------

    def _ic_table(self) -> list[float]:
        """Per-node IC under the subclasses estimator.

        Exactly ``-log2(descendant_count / size) + 0.0`` per node — the
        same two operations :meth:`repro.simpack.infocontent.
        InformationContent.ic` performs, so every entry is bit-identical
        to the scalar path.
        """
        if self._ic is None:
            size = self.tables.size
            self._ic = [-math.log2(count / size) + 0.0
                        for count in self.tables.descendant_counts]
        return self._ic

    def max_ic(self) -> float:
        """The taxonomy's maximum IC (``log2`` of the node count)."""
        if self._max_ic is None:
            self._max_ic = math.log2(self.tables.size)
        return self._max_ic

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
        distinct distance, so the numpy fast path never touches a log.
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

    def _distances(self, id_pairs: list[tuple[int, int]]) -> list[int]:
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

    def _mrca_stats(self, id_pairs: list[tuple[int, int]],
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

    def _mics_ic(self, id_pairs: list[tuple[int, int]],
                 ) -> list[float | None]:
        """IC of the most informative common subsumer per pair.

        The scalar path's ``max(sorted(ancestors), key=ic)`` tie-break
        picks a *name*; the value Eq. 7/8 consume is the maximal IC
        itself, which any tied ancestor yields identically — so the
        batch form only tracks the maximum.  ``None`` marks pairs
        without a common subsumer.
        """
        ancestor_distances = self.tables.ancestor_distances
        ic = self._ic_table()
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

    # -- batch evaluators ---------------------------------------------------

    def _shortest_path(self, id_pairs: list[tuple[int, int]]) -> list[float]:
        return [0.0 if distance < 0 else 1.0 / (1.0 + distance)
                for distance in self._distances(id_pairs)]

    def _edge(self, id_pairs: list[tuple[int, int]]) -> list[float]:
        edge_value = self._edge_value
        values: list[float] = []
        for (first, second), distance in zip(id_pairs,
                                             self._distances(id_pairs)):
            if first == second:
                values.append(1.0)
            elif distance < 0:
                values.append(0.0)
            else:
                values.append(edge_value(distance))
        return values

    def _leacock_chodorow(self, id_pairs: list[tuple[int, int]],
                          ) -> list[float]:
        lc_value = self._lc_value
        values: list[float] = []
        for (first, second), distance in zip(id_pairs,
                                             self._distances(id_pairs)):
            if first == second:
                values.append(1.0)
            elif distance < 0:
                values.append(0.0)
            else:
                values.append(lc_value(distance))
        return values

    def _conceptual_similarity(self, id_pairs: list[tuple[int, int]],
                               ) -> list[float]:
        sums, mrca_depths = self._mrca_stats(id_pairs)
        if _NUMPY is not None and len(id_pairs) >= _NUMPY_MIN_PAIRS:
            return self._conceptual_similarity_numpy(sums, mrca_depths)
        values: list[float] = []
        for total, depth in zip(sums, mrca_depths):
            if total < 0:
                values.append(0.0)
                continue
            root_nodes = depth + 1
            values.append(2.0 * root_nodes / (total + 2.0 * root_nodes))
        return values

    def _conceptual_similarity_numpy(self, sums: list[int],
                                     mrca_depths: list[int]) -> list[float]:
        """Wu-Palmer formula application, vectorized.

        Only exactly-rounded float64 elementwise arithmetic — the int64
        inputs convert exactly (distance sums and depths are far below
        2**53), so every lane reproduces the scalar expression bit for
        bit.
        """
        numpy = _NUMPY
        total = numpy.asarray(sums, dtype=numpy.int64)
        root_nodes = (numpy.asarray(mrca_depths, dtype=numpy.int64)
                      + 1).astype(numpy.float64)
        doubled = 2.0 * root_nodes
        with numpy.errstate(divide="ignore", invalid="ignore"):
            scores = doubled / (total.astype(numpy.float64) + doubled)
        scores[total < 0] = 0.0
        return scores.tolist()

    def _lin(self, id_pairs: list[tuple[int, int]]) -> list[float]:
        ic = self._ic_table()
        values: list[float] = []
        for (first, second), subsumer_ic in zip(id_pairs,
                                                self._mics_ic(id_pairs)):
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

    def _resnik(self, id_pairs: list[tuple[int, int]]) -> list[float]:
        return [0.0 if subsumer_ic is None else subsumer_ic
                for subsumer_ic in self._mics_ic(id_pairs)]

    def _resnik_normalized(self, id_pairs: list[tuple[int, int]],
                           ) -> list[float]:
        maximum = self.max_ic()
        values: list[float] = []
        for subsumer_ic in self._mics_ic(id_pairs):
            if subsumer_ic is None or maximum == 0.0:
                values.append(0.0)
            else:
                values.append(clamp_similarity(subsumer_ic / maximum))
        return values

    def _jiang_conrath(self, id_pairs: list[tuple[int, int]]) -> list[float]:
        ic = self._ic_table()
        maximum = 2.0 * self.max_ic()
        values: list[float] = []
        for (first, second), subsumer_ic in zip(id_pairs,
                                                self._mics_ic(id_pairs)):
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

    def _extensional(self, id_pairs: list[tuple[int, int]]) -> list[float]:
        descendant_bits = self.tables.descendant_bits
        values: list[float] = []
        for first, second in id_pairs:
            first_bits = descendant_bits[first]
            second_bits = descendant_bits[second]
            union = (first_bits | second_bits).bit_count()
            if union == 0:
                values.append(0.0)
            else:
                values.append(
                    (first_bits & second_bits).bit_count() / union)
        return values

    # -- entry point --------------------------------------------------------

    def batch(self, runner: MeasureRunner, pairs: Sequence) -> list[float]:
        """Score every ``(first, second)`` pair with the batch form.

        ``runner`` must satisfy :func:`batchable`; use :func:`try_batch`
        for the dispatch-or-fallback entry point.
        """
        method = getattr(self, _BATCH_METHODS[type(runner)])
        with telemetry.span("kernel.batch", measure=runner.name,
                            pairs=len(pairs)):
            values = method(self._resolve_pairs(pairs))
        telemetry.count("kernel.batches")
        telemetry.count("kernel.pairs", len(pairs))
        return values


# ---------------------------------------------------------------------------
# Dispatch helpers (the parallel engine's entry points)
# ---------------------------------------------------------------------------


def _unwrap(runner: MeasureRunner) -> MeasureRunner:
    return runner.inner if isinstance(runner, CachedRunner) else runner


def prime(runner: MeasureRunner) -> None:
    """Build the kernel for a runner's corpus ahead of a batch.

    Called in the parent before forking process workers, so the
    exported tables and the IC column are inherited copy-on-write
    instead of being rebuilt once per worker.  No-op for runners
    without a batch form; a :class:`~repro.core.cache.CachedRunner` is
    primed through its inner runner.
    """
    inner = _unwrap(runner)
    if not batchable(inner):
        return
    kernel = inner.wrapper.kernel()
    if type(inner) in _IC_RUNNERS:
        kernel._ic_table()


def try_batch(runner: MeasureRunner, pairs: Sequence) -> list[float] | None:
    """Batch-score ``pairs`` if the runner has a batch form.

    Returns ``None`` when it does not (the caller falls back to the
    per-pair loop).  The kernel scores a batch faster than either cache
    tier could look it up or store it, so a
    :class:`~repro.core.cache.CachedRunner` around a batchable runner
    is scored by its inner runner: its L1, L2 and hit counters are left
    untouched.  The facade never builds such a wrapper.
    """
    inner = _unwrap(runner)
    if not batchable(inner):
        return None
    return inner.wrapper.kernel().batch(inner, pairs)
