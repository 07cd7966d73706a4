"""The SOQA-SimPack Toolkit Facade (paper section 3).

The single access point for ontology-language independent similarity
services.  The facade owns a SOQA instance (all loaded ontologies), the
unified Super-Thing tree, the SOQAWrapper for SimPack, and a registry of
MeasureRunners; on top it offers the services the paper lists:

* similarity between two concepts, for one measure or a list
  (signature S1),
* similarity between a concept and a set of concepts — freely composed
  or an ontology taxonomy (sub)tree,
* the *k* most similar / most dissimilar concepts of such a set
  (signature S2),
* chart visualization of calculations (signature S3),
* helper services: measure information, ontology summaries, and
  extension points for supplementary MeasureRunners.
"""

from __future__ import annotations

import heapq
import threading
from contextlib import closing
from itertools import chain, compress, repeat
from operator import not_
from typing import AbstractSet, Iterable, Sequence

from repro.core import telemetry
from repro.core.cache import DEFAULT_L1_CAPACITY, CachedRunner
from repro.core.diskcache import DiskCache, corpus_fingerprint
from repro.core.kernel import batchable
from repro.core.parallel import (DEFAULT_RETRY_BUDGET, BatchSimilarityEngine,
                                 check_batch_settings)
from repro.core.registry import Measure, RunnerRegistry, TABLE1_MEASURES
from repro.core.results import ConceptAndSimilarity, QualifiedConcept
from repro.core.runners import MeasureRunner
from repro.core.unified import SUPER_THING, UnifiedTree
from repro.core.wrapper import SOQAWrapperForSimPack
from repro.errors import SSTCoreError
from repro.soqa.api import SOQA
from repro.soqa.graphindex import iter_bits
from repro.soqa.metamodel import Ontology
from repro.viz.charts import BarChart, GroupedBarChart, HeatmapChart

__all__ = ["SOQASimPackToolkit"]

ConceptRef = "QualifiedConcept | tuple[str, str]"


def _qualify(concept: QualifiedConcept | tuple[str, str]) -> QualifiedConcept:
    if isinstance(concept, QualifiedConcept):
        return concept
    ontology_name, concept_name = concept
    return QualifiedConcept(ontology_name, concept_name)


def _top_k(candidates: Sequence[QualifiedConcept], values: Sequence[float],
           k: int, best_first: bool) -> list[ConceptAndSimilarity]:
    """The ``k`` first candidates by score, ties by ontology then name.

    ``best_first`` ranks the highest scores first.  The result is the
    list that sorting every candidate and slicing ``[:k]`` gives — the
    ``(score, ontology, concept)`` key is unique per candidate — but a
    heap selects it and only ``k`` result objects are built.
    """
    if k < 0:  # slice semantics: all but the last -k
        k = max(len(candidates) + k, 0)
    ranked = heapq.nsmallest(k, (
        (-value if best_first else value, candidate.ontology_name,
         candidate.concept_name, value)
        for candidate, value in zip(candidates, values)))
    return [ConceptAndSimilarity(concept, ontology, value)
            for _, ontology, concept, value in ranked]


def _top_k_ids(names: Sequence[str], ids: Sequence[int],
               values: Sequence[float], k: int, best_first: bool,
               excluded: AbstractSet[int] = frozenset(),
               ) -> list[ConceptAndSimilarity]:
    """:func:`_top_k` over node IDs, for the per-node scores of a walk.

    The candidates are ``ids`` less ``excluded``; ``values[i]`` is the
    score of ``ids[i]``, and ``names`` holds the ``ontology:concept``
    node names.  A C-level heap selection over the raw scores finds a
    cut no better than the k-th best candidate, and only the nodes at
    or past it are named and ranked.
    """
    if k < 0:  # slice semantics: all but the last -k
        k = max(len(values) - len(excluded) + k, 0)
    if k == 0:
        return []
    # Dropping the excluded nodes moves the k-th best candidate at most
    # len(excluded) places down the raw ranking.
    reach = k + len(excluded)
    pool: Iterable[tuple[int, float]] = zip(ids, values)
    if reach < len(values):
        select = heapq.nlargest if best_first else heapq.nsmallest
        cut = select(reach, values)[-1]
        pool = compress(pool, map(cut.__le__ if best_first else cut.__ge__,
                                  values))
    ranked = []
    for node, value in pool:
        if node in excluded:
            continue
        ontology, _, concept = names[node].partition(":")
        ranked.append((-value if best_first else value, ontology, concept,
                       value))
    # A heap, not a sort: the pool can hold thousands of nodes tied at
    # the cut, in walk order, and only k of them are wanted.
    return [ConceptAndSimilarity(concept, ontology, value)
            for _, ontology, concept, value in heapq.nsmallest(k, ranked)]


#: Relative slack on a walk's bound, so float rounding in the bound
#: can never stop a walk before the top k is proven.
_BOUND_SLACK = 1e-9


def _rank_walk(walk, names: Sequence[str], k: int, best_first: bool,
               ids: Sequence[int] | None, excluded: AbstractSet[int],
               ) -> list[ConceptAndSimilarity]:
    """The top ``k`` candidates by the scores of a kernel walk.

    The candidates are ``ids`` (every node by default) less
    ``excluded``, a subset of them.  Ranking best first, the walk stops
    as soon as ``k`` candidates are in and the k-th best beats the
    bound on everything not yet reached; the test is strict, so
    candidates tied at the cut are always reached.  Otherwise the walk
    runs out, and every node it never reached scores 0.0.
    """
    if ids is None:
        def selected(node_ids):
            return map(not_, map(excluded.__contains__, node_ids))
    else:
        members = frozenset(ids)

        def selected(node_ids):
            return map(members.__contains__, node_ids)
    walked: list[int] = []
    scores: list[float] = []
    top: list[float] = []
    for node_ids, values, bound in walk:
        walked += node_ids
        scores += values
        if best_first and k > 0:
            top = heapq.nlargest(k, chain(top, compress(values,
                                                        selected(node_ids))))
            if len(top) == k and top[-1] > bound * (1.0 + _BOUND_SLACK):
                break
    else:
        # A walk reaches each node once at most.
        if len(walked) < len(names):
            unreached = set(range(len(names))).difference(walked)
            walked += unreached
            scores += repeat(0.0, len(unreached))
    if ids is not None:
        keep = list(selected(walked))
        walked = list(compress(walked, keep))
        scores = list(compress(scores, keep))
        excluded = frozenset()
    return _top_k_ids(names, walked, scores, k, best_first, excluded)


class SOQASimPackToolkit:
    """The SST Facade.

    >>> from repro.ontologies import load_corpus
    >>> sst = SOQASimPackToolkit(load_corpus())
    >>> sst.get_similarity("Professor", "base1_0_daml",
    ...                    "Professor", "base1_0_daml",
    ...                    Measure.SHORTEST_PATH)
    1.0
    """

    #: Paper-style measure constants, re-exported for discoverability
    #: (e.g. ``SOQASimPackToolkit.LIN_MEASURE``).
    CONCEPTUAL_SIMILARITY_MEASURE = Measure.CONCEPTUAL_SIMILARITY
    LEVENSHTEIN_MEASURE = Measure.LEVENSHTEIN
    LIN_MEASURE = Measure.LIN
    RESNIK_MEASURE = Measure.RESNIK
    SHORTEST_PATH_MEASURE = Measure.SHORTEST_PATH
    TFIDF_MEASURE = Measure.TFIDF

    def __init__(self, soqa: SOQA | None = None,
                 strategy: str = SUPER_THING,
                 registry: RunnerRegistry | None = None,
                 cache: bool = True,
                 cache_dir=None,
                 cache_capacity: int = DEFAULT_L1_CAPACITY,
                 task_timeout: float | None = None,
                 retry_budget: int = DEFAULT_RETRY_BUDGET):
        """``cache=False`` returns raw, uncached runners.  The
        persistent tier is attached when ``cache_dir`` is given or
        ``SST_CACHE_DIR`` is set (the CLI passes its default directory
        explicitly).  ``cache_capacity`` caps the in-memory tier's
        entries; ``task_timeout`` and ``retry_budget`` go to every batch
        engine (see :class:`~repro.core.parallel.BatchSimilarityEngine`).
        All three are range-checked here, whatever measure runs later.
        """
        check_batch_settings(task_timeout=task_timeout,
                             retry_budget=retry_budget)
        if cache_capacity < 1:
            raise SSTCoreError(
                f"cache capacity must be positive, got {cache_capacity}")
        self.soqa = soqa if soqa is not None else SOQA()
        self.strategy = strategy
        self.registry = (registry if registry is not None
                         else RunnerRegistry.with_builtin_runners())
        self.cache_capacity = cache_capacity
        self.task_timeout = task_timeout
        self.retry_budget = retry_budget
        self._cache_enabled = cache
        self._cache_dir = cache_dir
        self._disk_cache: DiskCache | None = None
        self._fingerprint: str | None = None
        self._tree: UnifiedTree | None = None
        self._wrapper: SOQAWrapperForSimPack | None = None
        self._runners: dict[int, MeasureRunner] = {}
        # Re-entrancy guard for every lazy single-build attribute (tree,
        # wrapper, runners, fingerprint, disk cache).  The server shares
        # one facade across executor threads; two concurrent cold-start
        # calls must not each build a CachedRunner for the same measure,
        # or the L1 memo splits across request threads.  RLock because
        # the builds nest (runner -> wrapper -> tree -> fingerprint).
        # The tree and the runners are read without it once built, so
        # the server's event loop never waits out another thread's build.
        self._lazy_lock = threading.RLock()

    # -- ontology management ------------------------------------------------------

    def load_ontology_file(self, path, name: str | None = None,
                           language: str | None = None) -> Ontology:
        """Load an ontology file through SOQA and refresh the tree."""
        ontology = self.soqa.load_file(path, name=name, language=language)
        self.refresh()
        return ontology

    def load_ontology_text(self, text: str, name: str,
                           language: str) -> Ontology:
        """Parse ontology source text through SOQA and refresh the tree."""
        ontology = self.soqa.load_text(text, name, language)
        self.refresh()
        return ontology

    def add_ontology(self, ontology: Ontology) -> Ontology:
        """Register a pre-built ontology and refresh the tree."""
        self.soqa.add_ontology(ontology)
        self.refresh()
        return ontology

    def refresh(self) -> None:
        """Rebuild the unified tree after the ontology set changed."""
        with self._lazy_lock:
            self._tree = None
            self._wrapper = None
            self._runners.clear()
            self._fingerprint = None

    def ontology_names(self) -> list[str]:
        """Names of all loaded ontologies."""
        return self.soqa.ontology_names()

    def concept_count(self) -> int:
        """Total number of loaded concepts."""
        return self.soqa.concept_count()

    # -- internals ------------------------------------------------------------------

    @property
    def tree(self) -> UnifiedTree:
        """The unified ontology tree (built lazily)."""
        tree = self._tree
        if tree is not None:  # built: no lock to wait on
            return tree
        with self._lazy_lock:
            if self._tree is None:
                with telemetry.span("facade.unified_tree.build",
                                    strategy=self.strategy):
                    self._tree = UnifiedTree(self.soqa,
                                             strategy=self.strategy)
                telemetry.gauge("facade.unified_tree.nodes",
                                len(self._tree.taxonomy))
                self._attach_index_store(self._tree)
            return self._tree

    def _attach_index_store(self, tree: UnifiedTree) -> None:
        """Warm-start the unified taxonomy's index from disk if eligible.

        Eligible means: caching is on, a cache directory is configured
        (the same condition that attaches the L2 score store), and the
        unified tree has at least ``SST_INDEX_PERSIST`` nodes.  The
        artifact lives under ``<cache dir>/index/``, keyed by the corpus
        fingerprint, so any content or strategy change compiles (and
        persists) a fresh one.
        """
        from repro.soqa.indexstore import (IndexStore,
                                           resolve_persist_threshold)

        if not self._cache_enabled:
            return
        threshold = resolve_persist_threshold()
        if threshold < 0 or len(tree.taxonomy) < threshold:
            return
        directory = self._artifact_directory()
        if directory is None:
            return
        tree.taxonomy.attach_index_store(IndexStore(directory),
                                         self.fingerprint())

    def _artifact_directory(self):
        """``<cache dir>/index``, or ``None`` when no cache dir applies."""
        import os

        from repro.core.diskcache import (CACHE_DIR_ENV,
                                          default_cache_directory)

        if self._cache_dir is not None:
            from pathlib import Path
            return Path(self._cache_dir).expanduser() / "index"
        if os.environ.get(CACHE_DIR_ENV, "").strip():
            return default_cache_directory() / "index"
        return None

    @property
    def wrapper(self) -> SOQAWrapperForSimPack:
        """The SOQAWrapper for SimPack (built lazily)."""
        with self._lazy_lock:
            if self._wrapper is None:
                with telemetry.span("facade.wrapper.build"):
                    self._wrapper = SOQAWrapperForSimPack(self.soqa,
                                                          self.tree)
            return self._wrapper

    @property
    def disk_cache(self) -> DiskCache | None:
        """The persistent L2 score store, or ``None`` when not configured.

        Attached when the facade was given a ``cache_dir`` or the
        ``SST_CACHE_DIR`` environment variable names one (and caching
        is not disabled).  The store is the one sqlite file of
        :mod:`repro.core.diskcache` inside that directory.
        """
        if not self._cache_enabled:
            return None
        with self._lazy_lock:
            if self._disk_cache is None:
                import os

                from repro.core.diskcache import CACHE_DIR_ENV
                if self._cache_dir is None and not os.environ.get(
                        CACHE_DIR_ENV, "").strip():
                    return None
                self._disk_cache = DiskCache(self._cache_dir)
            return self._disk_cache

    def fingerprint(self) -> str:
        """Content fingerprint of the loaded corpus (cached per refresh)."""
        with self._lazy_lock:
            if self._fingerprint is None:
                self._fingerprint = corpus_fingerprint(self.soqa,
                                                       self.strategy)
            return self._fingerprint

    def runner(self, measure: int | str | Measure) -> MeasureRunner:
        """The runner instance for a measure, built once per refresh.

        Unless caching is disabled, a runner the batch kernel cannot
        score (tree edit, TF-IDF, the string measures, an IC measure off
        the subclasses estimator, a custom runner) is wrapped in a
        :class:`~repro.core.cache.CachedRunner` (with the persistent L2
        tier attached when configured), so every facade service —
        matrices, k-most retrievals, alignment — shares one memo per
        measure.  The nine graph measures stay raw: the kernel of
        :mod:`repro.core.kernel` scores them faster than either tier
        could look them up or store them.
        """
        measure_id = self.registry.resolve(measure)
        runner = self._runners.get(measure_id)
        if runner is not None:  # built: no lock to wait on
            return runner
        with self._lazy_lock:
            runner = self._runners.get(measure_id)
            if runner is None:
                runner = self.registry.create(measure_id, self.wrapper)
                if self._cache_enabled and not batchable(runner):
                    l2 = self.disk_cache
                    runner = CachedRunner(
                        runner, capacity=self.cache_capacity, l2=l2,
                        fingerprint=self.fingerprint()
                        if l2 is not None else "")
                self._runners[measure_id] = runner
            return runner

    def built_runner(self, measure: int | str | Measure,
                     ) -> MeasureRunner | None:
        """The measure's runner if :meth:`runner` already built it.

        Never builds and never waits on the build lock, so an event
        loop may ask while a worker thread holds the lock across a
        lazy build.  ``None`` while the runner is unbuilt.
        """
        return self._runners.get(self.registry.resolve(measure))

    def cache_statistics(self) -> dict:
        """Aggregated L1/L2 cache statistics over all active runners."""
        l1_hits = l1_misses = l1_entries = 0
        l2_hits = l2_misses = 0
        for runner in self._runners.values():
            if isinstance(runner, CachedRunner):
                l1_hits += runner.hits
                l1_misses += runner.misses
                l1_entries += len(runner)
                l2_hits += runner.l2_hits
                l2_misses += runner.l2_misses
        l1_total = l1_hits + l1_misses
        l2_total = l2_hits + l2_misses
        statistics = {
            "enabled": self._cache_enabled,
            "l1": {"hits": l1_hits, "misses": l1_misses,
                   "entries": l1_entries,
                   "hit_rate": l1_hits / l1_total if l1_total else 0.0},
            "l2": None,
        }
        # The configured L2, even when only kernel measures ran and
        # none of them touched it.
        l2 = self.disk_cache
        if l2 is not None:
            statistics["l2"] = {
                "path": str(l2.directory),
                "hits": l2_hits, "misses": l2_misses,
                "hit_rate": l2_hits / l2_total if l2_total else 0.0,
            }
        return statistics

    def flush_caches(self) -> None:
        """Persist any scores still buffered in the L2 tier."""
        if self._disk_cache is not None:
            self._disk_cache.flush()

    # -- measure information and extension -----------------------------------------------

    def available_measures(self) -> list[dict[str, object]]:
        """Id, name, description and normalization flag of every measure."""
        measures = []
        for measure_id in self.registry.measure_ids():
            runner = self.runner(measure_id)
            measures.append({
                "id": measure_id,
                "name": runner.name,
                "description": runner.description,
                "normalized": runner.is_normalized(),
            })
        return measures

    def measure_info(self, measure: int | str | Measure) -> dict[str, object]:
        """Name, description and normalization flag of one measure."""
        runner = self.runner(measure)
        return {
            "id": self.registry.resolve(measure),
            "name": runner.name,
            "description": runner.description,
            "normalized": runner.is_normalized(),
        }

    def register_measure_runner(self, name: str, factory) -> int:
        """Register a supplementary MeasureRunner; returns its measure id.

        ``factory`` receives the SOQAWrapper for SimPack and returns a
        :class:`~repro.core.runners.MeasureRunner`.  This is the
        extension point the paper highlights for new or combined
        measures.
        """
        return self.registry.register_custom(name, factory)

    def register_combined_measure(self, name: str,
                                  measures: Sequence[int | str | Measure],
                                  weights: Sequence[float] | None = None,
                                  amalgamation: str = "weighted_average",
                                  ) -> int:
        """Register an Ehrig-style amalgamation of existing measures."""
        from repro.core.combined import combined_factory

        return self.registry.register_custom(
            name, combined_factory(measures, self.registry, weights=weights,
                                   amalgamation=amalgamation))

    # -- helper services (paper section 3: browser and query shell) ------------------------

    def open_browser(self, lines: Sequence[str] | None = None,
                     stdout=None):
        """Open the SST Browser on this facade.

        The paper's facade offers "displaying a SOQA Ontology Browser to
        inspect a single ontology"; interactive without arguments,
        scriptable with ``lines`` for tests and batch use.
        """
        from repro.browser.shell import run_browser

        return run_browser(self, lines=list(lines) if lines is not None
                           else None, stdout=stdout)

    def open_query_shell(self, lines: Sequence[str] | None = None,
                         stdout=None):
        """Open a SOQA Query Shell "to declaratively query an ontology
        using SOQA-QL" (paper section 3)."""
        from repro.soqa.soqaql.shell import run_shell

        return run_shell(self.soqa, lines=list(lines) if lines is not None
                         else None, stdout=stdout)

    # -- static analysis services ----------------------------------------------------------

    def lint_ontology(self, ontology_name: str, config=None) -> list:
        """Findings of the static ontology linter for one ontology.

        Returns :class:`repro.analysis.Finding` records; see
        ``sst lint`` for the command-line view.
        """
        return self.soqa.lint_ontology(ontology_name, config=config)

    def lint_all(self, config=None) -> dict[str, list]:
        """Linter findings for every loaded ontology, keyed by name."""
        return {name: self.soqa.lint_ontology(name, config=config)
                for name in self.soqa.ontology_names()}

    def check_query(self, query_text: str, config=None) -> list:
        """Statically check a SOQA-QL query without executing it."""
        return self.soqa.check_query(query_text, config=config)

    # -- similarity services (signatures S1 and friends) -----------------------------------

    def get_similarity(self, first_concept_name: str,
                       first_ontology_name: str,
                       second_concept_name: str,
                       second_ontology_name: str,
                       measure: int | str | Measure) -> float:
        """Similarity of two concepts under one measure (signature S1)."""
        telemetry.count("facade.get_similarity.calls")
        first = QualifiedConcept(first_ontology_name, first_concept_name)
        second = QualifiedConcept(second_ontology_name, second_concept_name)
        return self.runner(measure).run(first, second)

    def get_similarities(self, first_concept_name: str,
                         first_ontology_name: str,
                         second_concept_name: str,
                         second_ontology_name: str,
                         measures: Iterable[int | str | Measure] | None = None,
                         ) -> dict[str, float]:
        """Similarity of two concepts under a list of measures.

        Returns ``{measure name: similarity}``; ``measures`` defaults to
        the six Table-1 measures.
        """
        if measures is None:
            measures = TABLE1_MEASURES
        results: dict[str, float] = {}
        for measure in measures:
            runner = self.runner(measure)
            results[runner.name] = self.get_similarity(
                first_concept_name, first_ontology_name,
                second_concept_name, second_ontology_name, measure)
        return results

    def engine(self, measure: int | str | Measure,
               workers: int | None = None,
               engine: str | None = None) -> BatchSimilarityEngine:
        """A batch execution engine over the measure's runner.

        The only place the facade builds one.  ``workers=None`` or 1
        runs serially, more run in forked processes under the facade's
        ``task_timeout`` and ``retry_budget`` (see
        :mod:`repro.core.parallel`).  Batchable graph measures are
        scored in whole chunks by the kernel; ``engine="naive"`` is the
        per-pair reference path parity tests and benchmarks compare it
        against (see :mod:`repro.core.kernel`).
        """
        return BatchSimilarityEngine(self.runner(measure), workers=workers,
                                     task_timeout=self.task_timeout,
                                     retry_budget=self.retry_budget,
                                     engine=engine)

    def get_similarity_to_set(self, concept_name: str, ontology_name: str,
                              concepts: Iterable[ConceptRef],
                              measure: int | str | Measure,
                              workers: int | None = None,
                              engine: str | None = None,
                              ) -> list[ConceptAndSimilarity]:
        """Similarity between a concept and a freely composed concept set."""
        telemetry.count("facade.get_similarity_to_set.calls")
        anchor = QualifiedConcept(ontology_name, concept_name)
        others = [_qualify(reference) for reference in concepts]
        with telemetry.span("facade.similarity_to_set",
                            measure=self.runner(measure).name,
                            candidates=len(others)):
            values = self.engine(measure, workers,
                                 engine).score_against(anchor, others)
        return [ConceptAndSimilarity(concept_name=other.concept_name,
                                     ontology_name=other.ontology_name,
                                     similarity=value)
                for other, value in zip(others, values)]

    def search_concepts(self, query_text: str, k: int = 10,
                        scheme: str = "tfidf",
                        ) -> list[ConceptAndSimilarity]:
        """Free-text semantic search over all loaded concepts.

        Ranks concepts by the relevance of their full-text descriptions
        to ``query_text`` — the retrieval counterpart of the TFIDF
        measure, over the same Porter-stemmed index.  ``scheme`` selects
        the weighting: ``"tfidf"`` (cosine, scores in [0, 1]) or
        ``"bm25"`` (Okapi scores, unbounded).
        """
        telemetry.count("facade.search_concepts.calls")
        if scheme == "tfidf":
            with telemetry.span("facade.search", scheme=scheme, k=k):
                ranked = self.wrapper.vector_space().search(query_text, k=k)
        elif scheme == "bm25":
            with telemetry.span("facade.search", scheme=scheme, k=k):
                ranked = self.wrapper.bm25().search(query_text, k=k)
        else:
            raise SSTCoreError(
                f"unknown search scheme {scheme!r}; expected 'tfidf' or "
                "'bm25'")
        results = []
        for node, score in ranked:
            concept = self.tree.concept_of(node)
            if concept is None:
                continue
            results.append(ConceptAndSimilarity(
                concept_name=concept.concept_name,
                ontology_name=concept.ontology_name,
                similarity=score))
        return results

    # -- candidate set handling ----------------------------------------------------------------

    def _candidates(self, subtree_root_concept_name: str | None,
                    subtree_ontology_name: str | None,
                    exclude: QualifiedConcept) -> list[QualifiedConcept]:
        """The concept set of a k-most service.

        A subtree root restricts the set to that taxonomy subtree;
        without one, all loaded concepts are candidates.  The anchor
        concept itself is excluded, as comparing a concept to itself
        carries no ranking information.
        """
        if subtree_root_concept_name is None:
            candidates = self.tree.all_concepts()
        else:
            root = QualifiedConcept(subtree_ontology_name or "",
                                    subtree_root_concept_name)
            candidates = self.tree.subtree_concepts(root)
        # Plain string compares: a dataclass ``!=`` per candidate costs
        # a Python-level call on every concept of a large corpus.
        ontology_name, concept_name = (exclude.ontology_name,
                                       exclude.concept_name)
        return [candidate for candidate in candidates
                if candidate.concept_name != concept_name
                or candidate.ontology_name != ontology_name]

    def get_most_similar_concepts(self, concept_name: str,
                                  concept_ontology_name: str,
                                  subtree_root_concept_name: str | None = None,
                                  subtree_ontology_name: str | None = None,
                                  k: int = 10,
                                  measure: int | str | Measure =
                                  Measure.SHORTEST_PATH,
                                  workers: int | None = None,
                                  engine: str | None = None,
                                  ) -> list[ConceptAndSimilarity]:
        """The ``k`` most similar concepts for the given one (signature S2).

        The candidate set is the named ontology taxonomy (sub)tree, or
        all loaded concepts when no subtree is named.  Results come
        sorted best-first; ties break alphabetically for determinism.
        A measure the batch kernel scores is ranked from a best-first
        walk out from the concept, which stops once the top ``k`` is
        proven (``workers`` is ignored); any other is scored per
        candidate, in parallel when ``workers`` exceeds 1.
        """
        telemetry.count("facade.get_most_similar_concepts.calls")
        return self._k_most(True, concept_name, concept_ontology_name,
                            subtree_root_concept_name, subtree_ontology_name,
                            k, measure, workers, engine)

    def get_most_dissimilar_concepts(self, concept_name: str,
                                     concept_ontology_name: str,
                                     subtree_root_concept_name: str | None
                                     = None,
                                     subtree_ontology_name: str | None = None,
                                     k: int = 10,
                                     measure: int | str | Measure =
                                     Measure.SHORTEST_PATH,
                                     workers: int | None = None,
                                     engine: str | None = None,
                                     ) -> list[ConceptAndSimilarity]:
        """The ``k`` most dissimilar concepts for the given one.

        A kernel measure's walk runs to the end here: the least similar
        concepts are the last it would reach.
        """
        telemetry.count("facade.get_most_dissimilar_concepts.calls")
        return self._k_most(False, concept_name, concept_ontology_name,
                            subtree_root_concept_name, subtree_ontology_name,
                            k, measure, workers, engine)

    def _k_most(self, best_first: bool, concept_name: str,
                concept_ontology_name: str,
                subtree_root_concept_name: str | None,
                subtree_ontology_name: str | None, k: int,
                measure: int | str | Measure, workers: int | None,
                engine: str | None) -> list[ConceptAndSimilarity]:
        """The k-most services; ``best_first`` picks similar/dissimilar."""
        span_name = ("facade.most_similar" if best_first
                     else "facade.most_dissimilar")
        anchor = QualifiedConcept(concept_ontology_name, concept_name)
        root_node = None
        if subtree_root_concept_name is not None:
            root_node = self.tree.node_of(QualifiedConcept(
                subtree_ontology_name or "", subtree_root_concept_name))
        batch = self.engine(measure, workers, engine)
        runner = batch.kernel_runner
        if runner is None:
            candidates = self._candidates(subtree_root_concept_name,
                                          subtree_ontology_name, anchor)
            with telemetry.span(span_name, measure=batch.runner.name,
                                candidates=len(candidates), k=k):
                values = batch.score_against(anchor, candidates)
            return _top_k(candidates, values, k, best_first)
        # The same candidate set as _candidates, as node IDs.
        kernel = self.wrapper.kernel()
        tables = kernel.tables
        virtual = {tables.ids[node] for node in self.tree.virtual_nodes}
        anchor_id = tables.ids.get(UnifiedTree.key(
            anchor.ontology_name, anchor.concept_name))
        if root_node is None:
            ids = None
            excluded = virtual if anchor_id is None else virtual | {anchor_id}
            count = tables.size - len(excluded)
        else:
            root_id = tables.ids[root_node]
            ids = [root_id] + [
                node for node in iter_bits(tables.descendant_bits[root_id])
                if node != root_id and node not in virtual]
            if anchor_id in ids:
                ids.remove(anchor_id)
            excluded = frozenset()
            count = len(ids)
        with telemetry.span(span_name, measure=runner.name,
                            candidates=count, k=k):
            if count == 0:
                return []
            with closing(kernel.walk(runner,
                                     kernel.resolve_id(anchor))) as walk:
                return _rank_walk(walk, tables.names, k, best_first, ids,
                                  excluded)

    def get_similarity_matrix(self, concepts: Sequence[ConceptRef],
                              measure: int | str | Measure,
                              symmetric: bool = True,
                              workers: int | None = None,
                              engine: str | None = None,
                              ) -> list[list[float]]:
        """The full pairwise similarity matrix of a concept list.

        All bundled measures are symmetric, so by default only the upper
        triangle is computed and mirrored; pass ``symmetric=False`` for
        a custom asymmetric runner.  With ``workers`` > 1 the pair batch
        is partitioned across a process pool; it produces the identical
        matrix.
        """
        telemetry.count("facade.get_similarity_matrix.calls")
        qualified = [_qualify(concept) for concept in concepts]
        with telemetry.span("facade.similarity_matrix",
                            measure=self.runner(measure).name,
                            concepts=len(qualified)):
            return self.engine(measure, workers,
                               engine).similarity_matrix(
                qualified, symmetric=symmetric)

    # -- visualization services (signature S3) --------------------------------------------------

    def get_similarity_plot(self, first_concept_name: str,
                            first_ontology_name: str,
                            second_concept_name: str,
                            second_ontology_name: str,
                            measures: Iterable[int | str | Measure] | None
                            = None) -> BarChart:
        """Chart of one concept pair's similarity under several measures.

        Unnormalized measures (raw Resnik) are charted in their
        normalized variant so all bars share the [0, 1] scale.
        """
        if measures is None:
            measures = TABLE1_MEASURES
        labels: list[str] = []
        values: list[float] = []
        for measure in measures:
            runner = self.runner(measure)
            if not runner.is_normalized():
                runner = self.runner(Measure.RESNIK_NORMALIZED)
            labels.append(runner.name)
            values.append(self.get_similarity(
                first_concept_name, first_ontology_name,
                second_concept_name, second_ontology_name,
                self.registry.resolve(runner.name)))
        first = QualifiedConcept(first_ontology_name, first_concept_name)
        second = QualifiedConcept(second_ontology_name, second_concept_name)
        return BarChart(title=f"Similarity of {first} and {second}",
                        labels=labels, values=values)

    def get_most_similar_plot(self, concept_name: str,
                              concept_ontology_name: str,
                              k: int = 10,
                              measure: int | str | Measure =
                              Measure.SHORTEST_PATH,
                              subtree_root_concept_name: str | None = None,
                              subtree_ontology_name: str | None = None,
                              ) -> BarChart:
        """Bar chart of the k most similar concepts (paper Fig. 5)."""
        entries = self.get_most_similar_concepts(
            concept_name, concept_ontology_name,
            subtree_root_concept_name=subtree_root_concept_name,
            subtree_ontology_name=subtree_ontology_name,
            k=k, measure=measure)
        anchor = QualifiedConcept(concept_ontology_name, concept_name)
        runner = self.runner(measure)
        return BarChart(
            title=(f"{len(entries)} most similar concepts for {anchor} "
                   f"({runner.name})"),
            labels=[str(entry.qualified) for entry in entries],
            values=[entry.similarity for entry in entries])

    def get_matrix_plot(self, concepts: Sequence[ConceptRef],
                        measure: int | str | Measure) -> HeatmapChart:
        """Heatmap of the pairwise similarity matrix of a concept list.

        One of the "more advanced result visualizations" announced as
        future work (paper section 6).
        """
        qualified = [_qualify(concept) for concept in concepts]
        runner = self.runner(measure)
        if not runner.is_normalized():
            runner = self.runner(Measure.RESNIK_NORMALIZED)
        matrix = self.get_similarity_matrix(
            concepts, self.registry.resolve(runner.name))
        return HeatmapChart(
            title=f"Similarity matrix ({runner.name})",
            labels=[str(concept) for concept in qualified],
            matrix=matrix)

    def get_comparison_plot(self, pairs: Sequence[tuple[ConceptRef,
                                                        ConceptRef]],
                            measures: Iterable[int | str | Measure] | None
                            = None) -> GroupedBarChart:
        """Grouped chart: one group per concept pair, one series per
        measure (all series normalized)."""
        if measures is None:
            measures = TABLE1_MEASURES
        group_labels = []
        qualified_pairs = []
        for first, second in pairs:
            first_q, second_q = _qualify(first), _qualify(second)
            qualified_pairs.append((first_q, second_q))
            group_labels.append(f"{first_q} vs {second_q}")
        chart = GroupedBarChart(title="Measure comparison",
                                group_labels=group_labels)
        for measure in measures:
            if not self.runner(measure).is_normalized():
                measure = Measure.RESNIK_NORMALIZED
            chart.series[self.runner(measure).name] = self.engine(
                measure).score_pairs(qualified_pairs)
        return chart
