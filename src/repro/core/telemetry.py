"""Zero-dependency metrics and tracing for the SST hot paths.

The ROADMAP's north star is a service under heavy traffic, and a
service that cannot be observed cannot be operated: until now the only
runtime signal SST emitted was an ad-hoc stderr hit-rate line.  This
module is the observability layer everything else reports into:

* a process-global :class:`MetricsRegistry` of **counters**, **gauges**
  and **histograms** (fixed bucket boundaries, prometheus-style
  cumulative exposition), and
* **span-based tracing**: nested, labelled, wall-clock-timed
  :class:`Span` records managed through a thread-local context stack,
  with explicit snapshot/merge so forked process workers can ship
  their metric deltas and span trees back to the parent.

Instrumented call sites never talk to the classes directly — they go
through the module-level hooks :func:`count`, :func:`gauge`,
:func:`observe` and :func:`span`.  Each hook first reads one module
global (:data:`_ENABLED`); when the ``SST_TELEMETRY=off`` kill switch
is set, every hook returns immediately (``span`` hands out a shared
no-op context manager), so the instrumented paths cost one boolean
check and nothing else.

The CLI surfaces this through ``sst trace <subcommand>`` (span tree)
and ``sst metrics [--format text|json|prometheus] <subcommand>``; see
:mod:`repro.cli`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "DEFAULT_BUCKETS",
    "MAX_RETAINED_ROOTS",
    "TELEMETRY_ENV",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "count",
    "enabled",
    "gauge",
    "get_registry",
    "get_tracer",
    "observe",
    "refresh_from_env",
    "render_span_tree",
    "reset",
    "set_enabled",
    "span",
]

#: Environment variable of the kill switch: ``off``/``0``/``false``
#: disables every hook; anything else (including unset) leaves them on.
TELEMETRY_ENV = "SST_TELEMETRY"

#: Default histogram bucket upper bounds, in seconds — spans latencies
#: from sub-millisecond cache hits to multi-second matrix batches.
DEFAULT_BUCKETS = (0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
                   1.0, 5.0, 10.0, 60.0)

_OFF_VALUES = frozenset({"off", "0", "false", "no"})

#: Finished root spans a :class:`Tracer` retains; past this the oldest
#: are dropped.  A CLI run (``sst trace``) nests under one root, while a
#: long-lived ``sst serve`` adds a root per request that nothing drains.
MAX_RETAINED_ROOTS = 1024


def _env_enabled() -> bool:
    return os.environ.get(TELEMETRY_ENV, "").strip().lower() not in _OFF_VALUES


#: The single boolean every hook checks.  ``refresh_from_env`` and
#: ``set_enabled`` are the only writers.
_ENABLED: bool = _env_enabled()


def enabled() -> bool:
    """Whether telemetry hooks are currently live."""
    return _ENABLED


def set_enabled(value: bool) -> None:
    """Force the telemetry state, overriding the environment.

    ``sst trace`` / ``sst metrics`` call this: an explicit request to
    observe a run beats the ambient kill switch.
    """
    global _ENABLED
    _ENABLED = bool(value)


def refresh_from_env() -> bool:
    """Re-read ``SST_TELEMETRY`` (the CLI does this once per command)."""
    global _ENABLED
    _ENABLED = _env_enabled()
    return _ENABLED


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class Counter:
    """A monotonically increasing count (hits, misses, loads, ...)."""

    __slots__ = ("name", "_value", "_lock")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def state(self) -> int:
        return self._value

    def merge_state(self, state: int) -> None:
        self.inc(int(state))


class Gauge:
    """A point-in-time value (table sizes, node counts, thresholds)."""

    __slots__ = ("name", "_value", "_lock")

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def state(self) -> float:
        return self._value

    def merge_state(self, state: float) -> None:
        # A worker's gauge reading supersedes the parent's: gauges are
        # last-write-wins, not additive.
        self.set(state)


class Histogram:
    """A fixed-boundary latency/size distribution.

    ``boundaries`` are the inclusive upper bounds of the finite
    buckets; one implicit overflow bucket catches everything above the
    last bound.  ``counts``/``total``/``sum`` expose the cumulative
    prometheus-style view.
    """

    __slots__ = ("name", "boundaries", "_counts", "_sum", "_min", "_max",
                 "_lock")

    kind = "histogram"

    def __init__(self, name: str, boundaries=DEFAULT_BUCKETS):
        boundaries = tuple(float(bound) for bound in boundaries)
        if not boundaries or list(boundaries) != sorted(boundaries):
            raise ValueError(
                f"histogram {name} needs sorted, non-empty boundaries")
        self.name = name
        self.boundaries = boundaries
        self._counts = [0] * (len(boundaries) + 1)
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.boundaries)
        for position, bound in enumerate(self.boundaries):
            if value <= bound:
                index = position
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def total(self) -> int:
        return sum(self._counts)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def counts(self) -> list[int]:
        """Per-bucket counts (finite buckets first, overflow last)."""
        return list(self._counts)

    def state(self) -> dict:
        with self._lock:
            return {"boundaries": list(self.boundaries),
                    "counts": list(self._counts), "sum": self._sum,
                    "min": self._min, "max": self._max}

    def merge_state(self, state: Mapping) -> None:
        if list(state["boundaries"]) != list(self.boundaries):
            raise ValueError(
                f"histogram {self.name}: cannot merge mismatched buckets")
        with self._lock:
            for index, delta in enumerate(state["counts"]):
                self._counts[index] += delta
            self._sum += state["sum"]
            for key, better in (("min", min), ("max", max)):
                other = state.get(key)
                if other is None:
                    continue
                mine = getattr(self, f"_{key}")
                setattr(self, f"_{key}",
                        other if mine is None else better(mine, other))


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Metric creation is idempotent (``counter("x")`` twice returns the
    same object) and lock-guarded, so any thread can instrument freely.
    """

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind: type, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = kind(name, **kwargs)
                    self._metrics[name] = metric
        if not isinstance(metric, kind):
            raise ValueError(
                f"metric {name!r} is a {metric.kind}, not a "
                f"{kind.kind}")  # type: ignore[attr-defined]
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, boundaries=DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, Histogram, boundaries=boundaries)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str):
        """The metric called ``name``, or ``None``."""
        return self._metrics.get(name)

    def value(self, name: str, default=0):
        """Shortcut: the scalar value of a counter/gauge, or ``default``."""
        metric = self._metrics.get(name)
        if metric is None or isinstance(metric, Histogram):
            return default
        return metric.value

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    # -- snapshots and cross-process merge ---------------------------------

    def snapshot(self) -> dict:
        """A picklable ``{name: (kind, state)}`` view of every metric."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: (metric.kind, metric.state())
                for name, metric in metrics}

    def diff(self, base: Mapping) -> dict:
        """The delta snapshot accumulated since ``base`` was taken.

        Forked process workers call this with the snapshot taken right
        after the fork, so only work done *in the worker* travels back.
        Gauges are not differenced — the latest reading wins.
        """
        delta: dict = {}
        for name, (kind, state) in self.snapshot().items():
            base_entry = base.get(name)
            base_state = base_entry[1] if base_entry is not None else None
            if kind == "counter":
                changed = state - (base_state or 0)
                if changed:
                    delta[name] = (kind, changed)
            elif kind == "gauge":
                if base_state is None or state != base_state:
                    delta[name] = (kind, state)
            else:
                empty = {"counts": [0] * len(state["counts"]), "sum": 0.0,
                         "min": None, "max": None,
                         "boundaries": state["boundaries"]}
                base_hist = base_state or empty
                counts = [now - before for now, before
                          in zip(state["counts"], base_hist["counts"])]
                if any(counts):
                    delta[name] = (kind, {
                        "boundaries": state["boundaries"], "counts": counts,
                        "sum": state["sum"] - base_hist["sum"],
                        "min": state["min"], "max": state["max"]})
        return delta

    def merge(self, delta: Mapping) -> None:
        """Fold a :meth:`diff` delta (e.g. from a worker) into this
        registry."""
        for name, (kind, state) in delta.items():
            if kind == "counter":
                self.counter(name).merge_state(state)
            elif kind == "gauge":
                self.gauge(name).merge_state(state)
            else:
                self.histogram(
                    name, boundaries=state["boundaries"]).merge_state(state)

    # -- exposition --------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-ready ``{name: value-or-histogram-summary}`` mapping."""
        result: dict = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                state = metric.state()
                total = sum(state["counts"])
                result[name] = {
                    "count": total, "sum": state["sum"],
                    "min": state["min"], "max": state["max"],
                    "mean": state["sum"] / total if total else None,
                    "buckets": {
                        _bucket_label(bound): count
                        for bound, count in zip(
                            list(metric.boundaries) + [float("inf")],
                            state["counts"])},
                }
            else:
                result[name] = metric.value
        return result

    def render_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def render_text(self) -> str:
        """Aligned ``name  value`` lines; histograms as one summary line."""
        lines = []
        entries = []
        for name, value in self.as_dict().items():
            if isinstance(value, dict):
                mean = value["mean"]
                rendered = (f"count={value['count']} sum={value['sum']:.6f}s"
                            + (f" mean={mean * 1000:.3f}ms"
                               if mean is not None else ""))
            elif isinstance(value, float):
                rendered = f"{value:g}"
            else:
                rendered = str(value)
            entries.append((name, rendered))
        if not entries:
            return "(no metrics recorded)"
        width = max(len(name) for name, _ in entries)
        for name, rendered in entries:
            lines.append(f"{name:<{width}}  {rendered}")
        return "\n".join(lines)

    def render_prometheus(self, prefix: str = "sst") -> str:
        """Prometheus text exposition (``# TYPE`` lines + samples)."""
        lines: list[str] = []
        for name in self.names():
            metric = self._metrics[name]
            flat = f"{prefix}_{name}".replace(".", "_").replace("-", "_")
            if isinstance(metric, Histogram):
                state = metric.state()
                lines.append(f"# TYPE {flat} histogram")
                cumulative = 0
                for bound, bucket_count in zip(
                        list(metric.boundaries) + [float("inf")],
                        state["counts"]):
                    cumulative += bucket_count
                    label = "+Inf" if bound == float("inf") else f"{bound:g}"
                    lines.append(
                        f'{flat}_bucket{{le="{label}"}} {cumulative}')
                lines.append(f"{flat}_sum {state['sum']:g}")
                lines.append(f"{flat}_count {cumulative}")
            else:
                lines.append(f"# TYPE {flat} {metric.kind}")
                lines.append(f"{flat} {metric.value:g}")
        return "\n".join(lines)


def _bucket_label(bound: float) -> str:
    return "+Inf" if bound == float("inf") else f"le_{bound:g}"


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


@dataclass
class Span:
    """One timed, labelled region of work; spans nest into trees.

    Instances are plain data (picklable), so process workers can ship
    finished span trees back to the parent verbatim.
    """

    name: str
    labels: dict = field(default_factory=dict)
    started_at: float = 0.0
    duration: float = 0.0
    children: list["Span"] = field(default_factory=list)

    def total_spans(self) -> int:
        """This span plus all descendants."""
        return 1 + sum(child.total_spans() for child in self.children)

    def find(self, name: str) -> "Span | None":
        """Depth-first search for the first span called ``name``."""
        if self.name == name:
            return self
        for child in self.children:
            hit = child.find(name)
            if hit is not None:
                return hit
        return None

    def as_dict(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels),
                "duration": self.duration,
                "children": [child.as_dict() for child in self.children]}


class _SpanContext:
    """The context manager behind :func:`span`."""

    __slots__ = ("tracer", "span", "_parent")

    def __init__(self, tracer: "Tracer", span_record: Span,
                 parent: Span | None):
        self.tracer = tracer
        self.span = span_record
        self._parent = parent

    def __enter__(self) -> Span:
        self.tracer._push(self.span)
        self.span.started_at = time.perf_counter()
        return self.span

    def __exit__(self, *exc_info) -> None:
        self.span.duration = time.perf_counter() - self.span.started_at
        self.tracer._pop(self.span)
        self.tracer._attach(self.span, self._parent)


class _NoopSpanContext:
    """Shared do-nothing context manager for the disabled state."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NOOP_SPAN = _NoopSpanContext()


class Tracer:
    """Collects span trees via a thread-local context stack.

    Spans opened on a thread nest under that thread's innermost open
    span.  A span with no parent becomes a *root* and is appended to
    :attr:`roots` when it closes; the parallel engine passes an
    explicit ``parent`` so worker-thread spans graft into the main
    thread's tree instead of dangling as extra roots.  At most
    :data:`MAX_RETAINED_ROOTS` finished roots are kept, newest last.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.roots: deque[Span] = deque(maxlen=MAX_RETAINED_ROOTS)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, /, parent: Span | None = None,
             **labels) -> _SpanContext:
        if parent is None:
            parent = self.current()
        return _SpanContext(self, Span(name=name, labels=labels), parent)

    def _push(self, span_record: Span) -> None:
        self._stack().append(span_record)

    def _pop(self, span_record: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span_record:
            stack.pop()

    def _attach(self, span_record: Span, parent: Span | None) -> None:
        if parent is not None:
            # Concurrent worker threads may append to one parent.
            with self._lock:
                parent.children.append(span_record)
        else:
            with self._lock:
                self.roots.append(span_record)

    def attach_children(self, parent: Span | None,
                        spans: list[Span]) -> None:
        """Graft finished spans (e.g. from a process worker) into the
        tree."""
        with self._lock:
            if parent is not None:
                parent.children.extend(spans)
            else:
                self.roots.extend(spans)

    def drain(self) -> list[Span]:
        """Remove and return all finished root spans."""
        with self._lock:
            roots = list(self.roots)
            self.roots.clear()
        return roots

    def clear(self) -> None:
        with self._lock:
            self.roots.clear()
        self._local = threading.local()


def render_span_tree(roots: list[Span], *, min_fraction: float = 0.0) -> str:
    """An indented, durations-annotated rendering of span trees.

    ``min_fraction`` prunes children cheaper than that fraction of the
    root (keeps worker-heavy traces readable); 0 shows everything.
    """
    lines: list[str] = []

    def render(span_record: Span, indent: int, budget: float) -> None:
        labels = "".join(
            f" {key}={value}" for key, value in span_record.labels.items())
        lines.append(f"{'  ' * indent}{span_record.name:<{max(1, 40 - 2 * indent)}}"
                     f" {span_record.duration * 1000:10.3f} ms{labels}")
        for child in span_record.children:
            if budget and child.duration < min_fraction * budget:
                continue
            render(child, indent + 1, budget)

    for root in roots:
        render(root, 0, root.duration)
    return "\n".join(lines) if lines else "(no spans recorded)"


# ---------------------------------------------------------------------------
# Process-global state and hooks
# ---------------------------------------------------------------------------

_REGISTRY = MetricsRegistry()
_TRACER = Tracer()


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _TRACER


def reset() -> None:
    """Drop all recorded metrics and spans (the CLI calls this per
    command, so in-process invocations don't bleed into each other)."""
    _REGISTRY.clear()
    _TRACER.clear()


def count(name: str, amount: int = 1) -> None:
    """Increment a counter — no-op under the kill switch."""
    if not _ENABLED:
        return
    _REGISTRY.counter(name).inc(amount)


def gauge(name: str, value: float) -> None:
    """Set a gauge — no-op under the kill switch."""
    if not _ENABLED:
        return
    _REGISTRY.gauge(name).set(value)


def observe(name: str, value: float, boundaries=DEFAULT_BUCKETS) -> None:
    """Record a histogram observation — no-op under the kill switch."""
    if not _ENABLED:
        return
    _REGISTRY.histogram(name, boundaries=boundaries).observe(value)


def span(name: str, /, parent: Span | None = None, **labels):
    """Open a traced span context — a shared no-op under the kill
    switch.  ``name`` is positional-only, so a ``name=...`` label is
    legal."""
    if not _ENABLED:
        return _NOOP_SPAN
    return _TRACER.span(name, parent=parent, **labels)


def current_span() -> Span | None:
    """The calling thread's innermost open span (None when disabled)."""
    if not _ENABLED:
        return None
    return _TRACER.current()


def snapshot() -> dict:
    """Snapshot the global registry (for worker-delta bookkeeping)."""
    return _REGISTRY.snapshot()


def diff_since(base: Mapping) -> dict:
    """Delta of the global registry since ``base``."""
    return _REGISTRY.diff(base)


def merge(delta: Mapping) -> None:
    """Merge a worker's metric delta into the global registry."""
    _REGISTRY.merge(delta)
