"""Parallel batch execution of pairwise similarity work.

The paper's headline services — the similarity matrix, the k-most-
similar retrieval, alignment candidate scoring and clustering distance
matrices — are embarrassingly parallel over concept pairs: every score
is an independent ``runner.run(first, second)`` call.  This module
partitions such batches into chunks and runs them one of two ways,
chosen by the worker count:

* one worker — ``"serial"``: one loop, no pool.  Also used for
  single-pair batches, and for every runner the batch kernel scores
  (:func:`repro.core.kernel.kernel_runner`): forking loses to it.
* more than one — ``"process"``: a :class:`~concurrent.futures.
  ProcessPoolExecutor` over a *fork* context: workers inherit the fully
  built facade state (unified tree, TFIDF index, IC tables) by
  copy-on-write instead of pickling it, compute their chunks, and ship
  values plus their cache deltas back to the parent, where they are
  merged into the parent's :class:`CachedRunner`.  On platforms without
  ``fork`` the batch runs serially.

Both score the same pairs in the same order, so their results are
bit-identical — parallelism never changes a single cell.

The process strategy is *supervised*: worker crashes
(:class:`~concurrent.futures.process.BrokenProcessPool`) and per-chunk
timeouts (``task_timeout=`` / ``--task-timeout``) do not kill the
batch.  Finished chunks are harvested, the pool is relaunched over the
unfinished work within a bounded retry budget (``retry_budget=`` /
``--retry-budget``, default 2 relaunches), and when the budget runs
out the remaining chunks are scored serially in the parent.  Every
recovery path scores the identical pairs in the identical order, so
the result stays bit-identical to a fault-free run; what happened is
surfaced through ``resilience.*`` telemetry counters and a
``resilience.recover`` span instead of an exception.  Genuine measure errors (anything a chunk
*raises*) are not retried — they reproduce identically and propagate.

Worker counts come from the ``workers=`` parameter (``--workers``) and
default to 1 (serial).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool

#: ``concurrent.futures.TimeoutError`` only aliases the builtin from
#: Python 3.11 on; catch both on 3.10.
_TIMEOUT_ERRORS = (TimeoutError, FuturesTimeoutError)
from typing import Sequence

from repro.core import kernel as kernel_engine
from repro.core import resilience, telemetry
from repro.core.cache import CachedRunner
from repro.core.results import QualifiedConcept
from repro.core.runners import MeasureRunner
from repro.errors import SSTCoreError

__all__ = ["PROCESS", "SERIAL", "BatchSimilarityEngine",
           "check_batch_settings"]

#: How a batch runs, as the ``parallel.score_pairs`` span labels it.
SERIAL = "serial"
PROCESS = "process"

#: Pool relaunches allowed after crashes/timeouts before degrading.
DEFAULT_RETRY_BUDGET = 2

#: Chunks handed out per worker; >1 smooths imbalance between chunks
#: (pairs differ in cost) at a small scheduling overhead.
CHUNKS_PER_WORKER = 4

Pair = "tuple[QualifiedConcept, QualifiedConcept]"


def _score_chunk_pairs(runner: MeasureRunner, pairs: Sequence,
                       engine: str) -> list[float]:
    """Score one contiguous run of pairs with the selected engine.

    The single funnel every path (serial loop, forked-process chunk,
    serial recovery) goes through: with the kernel engine, batchable
    measures are scored as one :func:`repro.core.kernel.try_batch` call
    per chunk; everything else — and the ``"naive"`` reference engine —
    takes the per-pair loop.  Both paths score the same pairs in the
    same order and are bit-identical by the kernel's parity contract.
    """
    if engine == kernel_engine.KERNEL:
        values = kernel_engine.try_batch(runner, pairs)
        if values is not None:
            return values
        telemetry.count("kernel.fallback.batches")
        telemetry.count("kernel.fallback.pairs", len(pairs))
    # The deliberate per-pair path: the fallback for measures without a
    # batch form, and the reference loop the kernel is gated against.
    return [runner.run(first, second)  # sst: disable=prefer-batch-kernel
            for first, second in pairs]


def check_batch_settings(workers: int | None = None,
                         task_timeout: float | None = None,
                         retry_budget: int = DEFAULT_RETRY_BUDGET) -> None:
    """Raise :class:`SSTCoreError` for a batch setting out of range.

    ``None`` is in range for both ``workers`` (serial) and
    ``task_timeout`` (no timeout).
    """
    if workers is not None and workers < 1:
        raise SSTCoreError(f"worker count must be positive, got {workers}")
    if task_timeout is not None and task_timeout <= 0:
        raise SSTCoreError(
            f"task timeout must be positive, got {task_timeout}")
    if retry_budget < 0:
        raise SSTCoreError(
            f"retry budget cannot be negative, got {retry_budget}")


def chunk_pairs(pairs: Sequence, chunk_count: int) -> list[list]:
    """Split ``pairs`` into at most ``chunk_count`` contiguous chunks.

    Contiguous slicing keeps reassembly a simple concatenation, so the
    batch result order — and therefore every matrix cell — is identical
    to the serial loop's.
    """
    total = len(pairs)
    chunk_count = max(1, min(chunk_count, total))
    size, remainder = divmod(total, chunk_count)
    chunks: list[list] = []
    start = 0
    for index in range(chunk_count):
        end = start + size + (1 if index < remainder else 0)
        chunks.append(list(pairs[start:end]))
        start = end
    return chunks


# ---------------------------------------------------------------------------
# Process-pool worker side
# ---------------------------------------------------------------------------

#: The runner of the current worker process, installed by the pool
#: initializer.  With a fork context the runner (and the whole facade
#: behind it) is inherited copy-on-write — nothing is pickled.
_WORKER_RUNNER: MeasureRunner | None = None

#: The batch engine of the current worker process (kernel or naive).
_WORKER_ENGINE: str = kernel_engine.KERNEL


def _initialize_worker(runner: MeasureRunner,
                       engine: str = kernel_engine.KERNEL) -> None:
    global _WORKER_RUNNER, _WORKER_ENGINE
    _WORKER_RUNNER = runner
    _WORKER_ENGINE = engine
    # Workers only ever read the persistent tier: their fresh scores
    # travel back through the merge delta and the parent persists them
    # exactly once.  (The pool pickles initargs even under fork, which
    # would otherwise re-own the cache to the worker's pid.)
    if isinstance(runner, CachedRunner) and runner.l2 is not None:
        runner.l2.read_only = True


def _score_chunk(payload: tuple) -> tuple[list[float], tuple | None,
                                          tuple | None]:
    """Score one chunk in a worker process.

    ``payload`` is ``(chunk_index, submitted_at, pairs)``;
    ``submitted_at`` comes from the parent's ``perf_counter``, which
    shares a clock domain with forked children, so the queue-wait
    histogram spans the process boundary.  Returns the values plus, for
    cached runners, the chunk's cache delta ``(entries, hits, misses,
    l2_hits, l2_misses)``, plus the worker's telemetry delta
    ``(metric_diff, span)`` so the parent can merge both books back
    together.
    """
    chunk_index, submitted_at, pairs = payload
    runner = _WORKER_RUNNER
    if runner is None:  # pragma: no cover - defensive; initializer always ran
        raise SSTCoreError("worker pool used before initialization")
    # Chaos-testing sites: each forked worker owns a copy of the armed
    # fault plan, so a worker.crash quota kills every fresh worker's
    # first chunks — the supervisor must survive repeated crashes.
    if resilience.maybe_fire("worker.crash") is not None:
        os._exit(3)
    slow = resilience.maybe_fire("task.slow")
    if slow is not None:
        time.sleep(slow)
    traced = telemetry.enabled()
    started = time.perf_counter()
    if traced:
        # Snapshot *before* the first observation so every worker-side
        # metric lands in the delta shipped back to the parent.
        metrics_base = telemetry.snapshot()
        telemetry.observe("parallel.queue_wait_seconds",
                          started - submitted_at)
    if isinstance(runner, CachedRunner):
        hits, misses = runner.hits, runner.misses
        l2_hits, l2_misses = runner.l2_hits, runner.l2_misses
        values = _score_chunk_pairs(runner, pairs, _WORKER_ENGINE)
        entries = [(runner.cache_key(first, second), value)
                   for (first, second), value in zip(pairs, values)]
        delta = (entries, runner.hits - hits, runner.misses - misses,
                 runner.l2_hits - l2_hits, runner.l2_misses - l2_misses)
    else:
        values = _score_chunk_pairs(runner, pairs, _WORKER_ENGINE)
        delta = None
    if not traced:
        return values, delta, None
    duration = time.perf_counter() - started
    telemetry.observe("parallel.task_seconds", duration)
    # The span is built by hand, detached from any (fork-copied)
    # thread-local context, so it travels back as a clean subtree.
    span_record = telemetry.Span(
        name="parallel.chunk", duration=duration,
        labels={"chunk": chunk_index, "pairs": len(pairs),
                "pid": os.getpid()})
    return values, delta, (telemetry.diff_since(metrics_base), span_record)


def _fork_context():
    """The fork multiprocessing context, or None where unsupported."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class BatchSimilarityEngine:
    """Executes batches of pairwise similarity work for one runner.

    >>> engine = BatchSimilarityEngine(runner, workers=4)  # doctest: +SKIP
    >>> engine.score_pairs([(a, b), (a, c)])               # doctest: +SKIP
    [1.0, 0.5]
    """

    def __init__(self, runner: MeasureRunner, workers: int | None = None,
                 task_timeout: float | None = None,
                 retry_budget: int = DEFAULT_RETRY_BUDGET,
                 engine: str | None = None):
        """``workers=None`` runs serially; ``task_timeout=None`` lets a
        chunk take as long as it needs."""
        check_batch_settings(workers, task_timeout, retry_budget)
        self.runner = runner
        self.workers = 1 if workers is None else workers
        self.task_timeout = task_timeout
        self.retry_budget = retry_budget
        self.engine = kernel_engine.resolve_engine(engine)
        #: The runner the batch kernel scores in place of ``runner``,
        #: or ``None`` when batches take the per-pair path.
        self.kernel_runner = (kernel_engine.kernel_runner(runner)
                              if self.engine == kernel_engine.KERNEL
                              else None)
        # Forking loses to the kernel on every batch it can score, so
        # those run in the parent whatever the worker count.
        self.strategy = (SERIAL if self.workers == 1
                         or self.kernel_runner is not None else PROCESS)

    # -- batch primitives ---------------------------------------------------

    def score_pairs(self, pairs: Sequence) -> list[float]:
        """The similarity of every ``(first, second)`` pair, in order."""
        pairs = list(pairs)
        if not pairs:
            return []
        with telemetry.span("parallel.score_pairs",
                            strategy=self.strategy, workers=self.workers,
                            pairs=len(pairs)):
            if self.strategy == SERIAL or len(pairs) <= 1:
                return self._score_serial(pairs)
            # Prime lazily built wrapper state (taxonomy, TFIDF index,
            # IC tables) on the first pair in the parent, so the
            # process workers inherit the warm structures through fork.
            first_value = self.runner.run(*pairs[0])
            chunks = chunk_pairs(pairs[1:],
                                 self.workers * CHUNKS_PER_WORKER)
            return [first_value] + self._score_processes(chunks)

    def score_against(self, anchor: QualifiedConcept,
                      candidates: Sequence[QualifiedConcept]) -> list[float]:
        """Anchor-vs-candidate scores (k-most retrieval, alignment)."""
        return self.score_pairs([(anchor, candidate)
                                 for candidate in candidates])

    def similarity_matrix(self, concepts: Sequence[QualifiedConcept],
                          symmetric: bool = True) -> list[list[float]]:
        """The full pairwise matrix of a concept list.

        With ``symmetric=True`` (correct for every bundled measure)
        only the upper triangle — including the diagonal — is computed
        and mirrored, halving the batch.
        """
        size = len(concepts)
        if symmetric:
            pairs = [(concepts[row], concepts[column])
                     for row in range(size)
                     for column in range(row, size)]
        else:
            pairs = [(concepts[row], concepts[column])
                     for row in range(size)
                     for column in range(size)]
        values = self.score_pairs(pairs)
        matrix = [[0.0] * size for _ in range(size)]
        position = 0
        for row in range(size):
            for column in range(row if symmetric else 0, size):
                value = values[position]
                position += 1
                matrix[row][column] = value
                if symmetric and column != row:
                    matrix[column][row] = value
        return matrix

    # -- serial execution -----------------------------------------------------

    def _score_serial(self, pairs: list) -> list[float]:
        return _score_chunk_pairs(self.runner, pairs, self.engine)

    # -- supervised process execution -----------------------------------------

    def _score_processes(self, chunks: list[list]) -> list[float]:
        context = _fork_context()
        if context is None:
            # No fork on this platform: deterministic serial fallback.
            return self._score_serial(
                [pair for chunk in chunks for pair in chunk])
        parent_span = telemetry.current_span()
        values_by_chunk: dict[int, list[float]] = {}
        worker_spans: list[telemetry.Span] = []
        failures: list[str] = []
        # The budget counts pool *relaunches*: the first launch is free,
        # each recovery attempt spends one.
        for launch in range(1 + self.retry_budget):
            pending = [index for index in range(len(chunks))
                       if index not in values_by_chunk]
            if not pending:
                break
            failure = self._run_pool_once(context, chunks, pending,
                                          values_by_chunk, worker_spans)
            if failure is None:
                continue
            failures.append(failure)
            telemetry.count("resilience.pool_failures")
            telemetry.count(f"resilience.pool_failures.{failure}")
        pending = [index for index in range(len(chunks))
                   if index not in values_by_chunk]
        if pending:
            self._recover_degraded(chunks, pending, values_by_chunk,
                                   parent_span, failures)
        if worker_spans:
            telemetry.get_tracer().attach_children(parent_span, worker_spans)
        if isinstance(self.runner, CachedRunner):
            # merge() buffered the worker scores for the persistent L2
            # tier (the forked workers' own writes are no-ops); make the
            # batch durable before returning.
            self.runner.flush()
        return [value for index in range(len(chunks))
                for value in values_by_chunk[index]]

    def _run_pool_once(self, context, chunks: list[list],
                       pending: list[int],
                       values_by_chunk: dict[int, list[float]],
                       worker_spans: list) -> str | None:
        """One process-pool launch over the pending chunks.

        Fills ``values_by_chunk`` with everything that finished (even
        when the pool fails mid-flight, completed futures are
        harvested) and returns ``None`` on success or the failure kind
        (``"crash"``/``"timeout"``).  Exceptions *raised by* a chunk —
        genuine measure errors that would reproduce identically — are
        not treated as pool failures and propagate to the caller.
        """
        submitted_at = time.perf_counter()
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(self.workers, len(pending)),
                mp_context=context, initializer=_initialize_worker,
                initargs=(self.runner, self.engine))
        except OSError:
            return "crash"  # cannot fork any workers at all
        failure: str | None = None
        futures: dict[int, object] = {}
        try:
            try:
                for index in pending:
                    futures[index] = pool.submit(
                        _score_chunk, (index, submitted_at, chunks[index]))
                for index, future in futures.items():
                    result = future.result(timeout=self.task_timeout)
                    self._absorb(index, result, values_by_chunk,
                                 worker_spans)
            except BrokenProcessPool:
                failure = "crash"
            except _TIMEOUT_ERRORS:
                failure = "timeout"
            if failure is not None:
                # Harvest chunks that did complete before the failure.
                for index, future in futures.items():
                    if index in values_by_chunk or not future.done():
                        continue
                    try:
                        if (future.cancelled()
                                or future.exception(timeout=0) is not None):
                            continue
                        result = future.result(timeout=0)
                    except (BrokenProcessPool, CancelledError,
                            *_TIMEOUT_ERRORS):
                        continue
                    self._absorb(index, result, values_by_chunk,
                                 worker_spans)
        finally:
            # After a timeout the stuck worker may never return; don't
            # block shutdown on it.  Crashed pools join instantly.
            pool.shutdown(wait=failure != "timeout", cancel_futures=True)
        return failure

    def _absorb(self, index: int, result: tuple,
                values_by_chunk: dict[int, list[float]],
                worker_spans: list) -> None:
        """Fold one finished worker chunk into the parent's books."""
        chunk_values, delta, worker_telemetry = result
        values_by_chunk[index] = chunk_values
        if delta is not None and isinstance(self.runner, CachedRunner):
            entries, hits, misses, l2_hits, l2_misses = delta
            self.runner.merge(entries, hits=hits, misses=misses,
                              l2_hits=l2_hits, l2_misses=l2_misses)
        if worker_telemetry is not None:
            metric_diff, span_record = worker_telemetry
            telemetry.merge(metric_diff)
            worker_spans.append(span_record)

    def _recover_degraded(self, chunks: list[list], pending: list[int],
                          values_by_chunk: dict[int, list[float]],
                          parent_span, failures: list[str]) -> None:
        """Score the unfinished chunks after the retry budget ran out.

        Degrades process → serial: the pending chunks are scored in the
        parent, on the parent runner and its caches, in their original
        chunk order, so the batch result stays bit-identical.
        """
        telemetry.count("resilience.degraded")
        with telemetry.span("resilience.recover", parent=parent_span,
                            strategy=SERIAL, chunks=len(pending),
                            failures=",".join(failures) or "budget"):
            for index in pending:
                values_by_chunk[index] = _score_chunk_pairs(
                    self.runner, chunks[index], self.engine)
