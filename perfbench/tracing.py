"""Benchmark-side span tracing around the program's layer entry points.

The program is not modified: :func:`install` replaces public methods
and module functions of each layer with thin wrappers that record one
span per call.  A span is ``[id, parent, name, start, end, n]`` with
``perf_counter`` times; ``parent`` is the innermost open span of the
same thread (``-1`` for none) and ``n`` an optional work count (pairs
in a kernel batch).  Spans stay in memory and are written once, when
the process ends.

Self time is a span's duration minus the part of it that its child
spans cover; a layer's busy time counts only its outermost spans, so a
method that calls itself through ``super()`` is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

#: (module, owner class or None for a module function, attribute, span
#: name, work count: None, or "len1"/"len2" = length of the first/second
#: positional argument after ``self``).
HOOKS = [
    ("repro.soqa.api", "SOQA", "load_file", "soqa.load", None),
    ("repro.soqa.api", "SOQA", "load_text", "soqa.load", None),
    ("repro.core.unified", "UnifiedTree", "__init__", "unified.build", None),
    ("repro.soqa.graph", "Taxonomy", "compile", "graphindex.taxonomy_compile",
     None),
    ("repro.soqa.graphindex", "CompiledTaxonomy", "__init__",
     "graphindex.compile", None),
    ("repro.soqa.graphindex", "CompiledTaxonomy", "compile_incremental",
     "graphindex.compile", None),
    ("repro.soqa.indexstore", "IndexStore", "load_or_compile",
     "indexstore.load_or_compile", None),
    ("repro.soqa.indexstore", None, "save_index", "indexstore.save", None),
    ("repro.soqa.indexstore", None, "load_index", "indexstore.load", None),
    ("repro.core.kernel", "SimilarityKernel", "__init__", "kernel.build",
     None),
    ("repro.core.kernel", "SimilarityKernel", "batch", "kernel.batch",
     "len2"),
    ("repro.core.cache", "CachedRunner", "run", "cache.run", None),
    ("repro.core.cache", "CachedRunner", "bulk_lookup", "cache.bulk_lookup",
     "len1"),
    ("repro.core.cache", "CachedRunner", "bulk_store", "cache.bulk_store",
     None),
    ("repro.core.shardedcache", "ShardedDiskCache", "get", "diskcache.get",
     None),
    ("repro.core.shardedcache", "ShardedDiskCache", "put", "diskcache.put",
     None),
    ("repro.core.shardedcache", "ShardedDiskCache", "put_many",
     "diskcache.put", None),
    ("repro.core.shardedcache", "ShardedDiskCache", "flush",
     "diskcache.flush", None),
    # The shard-level flush also runs inside ``put``/``put_many`` once
    # the write buffer fills.
    ("repro.core.diskcache", "DiskCache", "flush", "diskcache.flush", None),
    ("repro.core.parallel", "BatchSimilarityEngine", "score_pairs",
     "parallel.score_pairs", "len1"),
    ("repro.core.facade", "SOQASimPackToolkit", "get_similarity",
     "facade.service", None),
    ("repro.core.facade", "SOQASimPackToolkit", "get_similarity_matrix",
     "facade.service", None),
    ("repro.core.facade", "SOQASimPackToolkit", "get_most_similar_concepts",
     "facade.service", None),
    ("repro.core.facade", "SOQASimPackToolkit",
     "get_most_dissimilar_concepts", "facade.service", None),
    ("repro.core.facade", "SOQASimPackToolkit", "get_similarity_to_set",
     "facade.service", None),
    ("repro.core.server", "SimilarityService", "similarity",
     "server.handler", None),
    ("repro.core.server", "SimilarityService", "ksim", "server.handler",
     None),
    ("repro.core.server", "PairGate", "score", "server.gate", None),
    # One HTTP request from its parsed head to its rendered response.
    ("repro.core.server", "SimilarityServer", "_route",
     "server.request", None),
]

#: Span name of the per-pair measure runners (every concrete
#: ``MeasureRunner.run`` except the caching decorator's).
RUNNER_SPAN = "runners.pair"


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans: list[list] = []
        # ``next`` on a count is atomic under the interpreter lock.
        self._ids = itertools.count()
        self._local = threading.local()
        #: Hooks that could not be installed (renamed or removed).
        self.missing: list[str] = []
        #: Objects built by wrapped constructors, by span name.
        self.built: dict[str, list] = {}

    def wrap(self, function, name: str, counter: str | None = None,
             keep_instance: bool = False):
        local = self._local
        spans = self.spans
        ids = self._ids
        built = self.built.setdefault(name, []) if keep_instance else None

        if inspect.iscoroutinefunction(function):
            # Coroutines interleave on one thread, so their spans are
            # roots: a thread-local parent would be wrong.
            @functools.wraps(function)
            async def traced_coroutine(*args, **kwargs):
                span_id = next(ids)
                started = time.perf_counter()
                try:
                    return await function(*args, **kwargs)
                finally:
                    spans.append([span_id, -1, name, started,
                                  time.perf_counter(), 0])

            return traced_coroutine

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                work = 0
                if counter == "len1" and len(args) > 1:
                    work = len(args[1])
                elif counter == "len2" and len(args) > 2:
                    work = len(args[2])
                spans.append([span_id, parent, name, started, ended, work])
                if built is not None and args:
                    built.append(args[0])

        return traced


def _patch(owner, attribute: str, recorder: Recorder, name: str,
           counter: str | None) -> None:
    raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
        owner, attribute)
    # The traced server keeps its tree out of reach; remember it so the
    # ancestor table can be counted after the run.
    keep = name == "unified.build"
    if isinstance(raw, classmethod):
        wrapped = classmethod(recorder.wrap(raw.__func__, name, counter,
                                            keep))
    elif isinstance(raw, staticmethod):
        wrapped = staticmethod(recorder.wrap(raw.__func__, name, counter,
                                             keep))
    else:
        wrapped = recorder.wrap(raw, name, counter, keep)
    setattr(owner, attribute, wrapped)


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary in :data:`HOOKS` plus the measure runners.

    A hook whose target no longer exists is recorded in
    ``recorder.missing`` instead of failing the run; its time then
    shows up as unattributed.
    """
    for module_name, owner_name, attribute, name, counter in HOOKS:
        label = f"{module_name}.{owner_name + '.' if owner_name else ''}" \
                f"{attribute}"
        try:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            if isinstance(owner, type) and attribute not in owner.__dict__:
                raise AttributeError(attribute)
            if not isinstance(owner, type):
                getattr(owner, attribute)
        except (ImportError, AttributeError):
            recorder.missing.append(label)
            continue
        _patch(owner, attribute, recorder, name, counter)
    try:
        from repro.core.cache import CachedRunner
        from repro.core.runners import MeasureRunner
    except ImportError:
        recorder.missing.append("repro.core.runners.MeasureRunner.run")
        return
    pending = list(MeasureRunner.__subclasses__())
    seen = set()
    while pending:
        kind = pending.pop()
        if kind in seen:
            continue
        seen.add(kind)
        pending.extend(kind.__subclasses__())
        if issubclass(kind, CachedRunner) or "run" not in kind.__dict__:
            continue
        _patch(kind, "run", recorder, RUNNER_SPAN, None)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


class SpanTable:
    """Per-name totals derived from a list of spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        by_id = {span[0]: span for span in spans}
        children: dict[int, list] = {}
        for span in spans:
            children.setdefault(span[1], []).append(span)
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.work: dict[str, int] = {}
        self.durations: dict[str, list[float]] = {}
        for span in spans:
            span_id, parent_id, name, started, ended, work = span
            duration = ended - started
            covered = _union_length([
                (max(child[3], started), min(child[4], ended))
                for child in children.get(span_id, ())
                if child[4] > started and child[3] < ended])
            self.self_time[name] = (self.self_time.get(name, 0.0)
                                    + duration - covered)
            if self._outermost(span, by_id):
                self.total[name] = self.total.get(name, 0.0) + duration
                self.calls[name] = self.calls.get(name, 0) + 1
                self.work[name] = self.work.get(name, 0) + work
                self.durations.setdefault(name, []).append(duration)
        self.roots = [span for span in spans if span[1] not in by_id]

    @staticmethod
    def _outermost(span: list, by_id: dict) -> bool:
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] == span[2]:
                return False
            parent = by_id.get(parent[1])
        return True

    def covered(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` that some root span covers."""
        return _union_length([
            (max(span[3], start), min(span[4], end)) for span in self.roots
            if span[4] > start and span[3] < end])


def layer_seconds(table: SpanTable) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced process."""
    total, own = table.total, table.self_time
    kernel_pairs = table.work.get("kernel.batch", 0)
    kernel_seconds = total.get("kernel.batch", 0.0)
    return {
        "soqa.load_s": total.get("soqa.load", 0.0),
        "unified.build_s": total.get("unified.build", 0.0),
        "graphindex.compile_s": total.get("graphindex.compile", 0.0),
        "indexstore.save_s": total.get("indexstore.save", 0.0),
        "indexstore.load_s": total.get("indexstore.load", 0.0),
        "kernel.build_s": total.get("kernel.build", 0.0),
        "kernel.batch_s": kernel_seconds,
        "kernel.pairs": kernel_pairs,
        "kernel.ns_per_pair": (kernel_seconds / kernel_pairs * 1e9
                               if kernel_pairs else 0.0),
        "cache.l1_lookup_s": (own.get("cache.bulk_lookup", 0.0)
                              + own.get("cache.run", 0.0)),
        "cache.l1_store_s": own.get("cache.bulk_store", 0.0),
        "diskcache.get_s": total.get("diskcache.get", 0.0),
        "diskcache.put_s": own.get("diskcache.put", 0.0),
        "diskcache.flush_s": total.get("diskcache.flush", 0.0),
        "parallel.dispatch_s": own.get("parallel.score_pairs", 0.0),
        "runners.pair_s": total.get(RUNNER_SPAN, 0.0),
        "runners.pairs": table.calls.get(RUNNER_SPAN, 0),
        "facade.self_s": own.get("facade.service", 0.0),
    }


def write_spans(spans: list[list], path) -> None:
    """One JSON array per line: ``[id, parent, name, start, end, n]``."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, separators=(",", ":")))
            handle.write("\n")


def read_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


if __name__ == "__main__":  # pragma: no cover - a reading aid
    table = SpanTable(read_spans(sys.argv[1]))
    for span_name in sorted(table.total):
        print(f"{span_name:32s} calls={table.calls[span_name]:8d} "
              f"total={table.total[span_name]:10.4f}s "
              f"self={table.self_time[span_name]:10.4f}s")
