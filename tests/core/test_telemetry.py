"""Unit tests for :mod:`repro.core.telemetry`.

Covers metric semantics (counter / gauge / histogram), the registry's
snapshot/diff/merge protocol used by forked process workers, span
nesting and rendering, all three exposition formats, and the
``SST_TELEMETRY`` kill switch.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core import telemetry
from repro.core.telemetry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    Tracer,
    render_span_tree,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Each test starts enabled with empty global registry/tracer."""
    telemetry.set_enabled(True)
    telemetry.reset()
    yield
    telemetry.reset()
    telemetry.refresh_from_env()


# ---------------------------------------------------------------------------
# Metric primitives
# ---------------------------------------------------------------------------


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative_amounts(self):
        counter = Counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 0

    def test_merge_state_is_additive(self):
        counter = Counter("c")
        counter.inc(2)
        counter.merge_state(Counter("other").state())
        counter.merge_state(3)
        assert counter.value == 5


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.add(2.5)
        assert gauge.value == 12.5

    def test_merge_state_is_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(100)
        gauge.merge_state(7)
        assert gauge.value == 7


class TestHistogram:
    def test_bucket_assignment_is_inclusive_upper_bound(self):
        histogram = Histogram("h", boundaries=(1.0, 2.0))
        histogram.observe(1.0)   # lands in the first bucket (<= 1.0)
        histogram.observe(1.5)   # second bucket
        histogram.observe(99.0)  # overflow bucket
        assert histogram.counts == [1, 1, 1]
        assert histogram.total == 3
        assert histogram.sum == pytest.approx(101.5)

    def test_state_tracks_min_and_max(self):
        histogram = Histogram("h", boundaries=(1.0,))
        histogram.observe(0.25)
        histogram.observe(4.0)
        state = histogram.state()
        assert state["min"] == 0.25
        assert state["max"] == 4.0

    def test_rejects_unsorted_or_empty_boundaries(self):
        with pytest.raises(ValueError):
            Histogram("h", boundaries=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", boundaries=())

    def test_merge_state_is_additive(self):
        first = Histogram("h", boundaries=(1.0,))
        second = Histogram("h", boundaries=(1.0,))
        first.observe(0.5)
        second.observe(3.0)
        first.merge_state(second.state())
        assert first.counts == [1, 1]
        assert first.sum == pytest.approx(3.5)
        assert first.state()["min"] == 0.5
        assert first.state()["max"] == 3.0

    def test_merge_rejects_mismatched_boundaries(self):
        first = Histogram("h", boundaries=(1.0,))
        second = Histogram("h", boundaries=(2.0,))
        with pytest.raises(ValueError):
            first.merge_state(second.state())


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_creation_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")

    def test_value_shortcut(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        assert registry.value("a") == 3
        assert registry.value("missing") == 0
        assert registry.value("missing", default=None) is None

    def test_snapshot_is_picklable(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("b").set(2)
        registry.histogram("c").observe(0.1)
        snapshot = registry.snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot

    def test_diff_then_merge_reproduces_worker_delta(self):
        parent = MetricsRegistry()
        parent.counter("hits").inc(10)
        parent.histogram("lat", boundaries=(1.0,)).observe(0.5)
        base = parent.snapshot()
        # "Worker" work on top of the base:
        parent.counter("hits").inc(3)
        parent.gauge("size").set(7)
        parent.histogram("lat", boundaries=(1.0,)).observe(2.0)
        delta = parent.diff(base)
        assert delta["hits"] == ("counter", 3)
        assert delta["size"][1] == 7
        assert delta["lat"][1]["counts"] == [0, 1]
        other = MetricsRegistry()
        other.counter("hits").inc(100)
        other.merge(delta)
        assert other.value("hits") == 103
        assert other.value("size") == 7
        assert other.histogram("lat", boundaries=(1.0,)).total == 1

    def test_diff_skips_unchanged_metrics(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("g").set(1)
        base = registry.snapshot()
        assert registry.diff(base) == {}

    def test_as_dict_and_json(self):
        registry = MetricsRegistry()
        registry.counter("calls").inc(2)
        registry.histogram("lat", boundaries=(1.0,)).observe(0.5)
        rendered = json.loads(registry.render_json())
        assert rendered["calls"] == 2
        assert rendered["lat"]["count"] == 1
        assert rendered["lat"]["mean"] == pytest.approx(0.5)
        assert rendered["lat"]["buckets"] == {"le_1": 1, "+Inf": 0}

    def test_render_text_aligns_and_summarizes(self):
        registry = MetricsRegistry()
        registry.counter("calls").inc(2)
        registry.histogram("lat").observe(0.5)
        text = registry.render_text()
        assert "calls  2" in text
        assert "count=1" in text
        assert MetricsRegistry().render_text() == "(no metrics recorded)"

    def test_render_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("cache.l2.hits").inc(4)
        registry.histogram("lat", boundaries=(1.0,)).observe(0.5)
        registry.histogram("lat", boundaries=(1.0,)).observe(3.0)
        exposition = registry.render_prometheus()
        assert "# TYPE sst_cache_l2_hits counter" in exposition
        assert "sst_cache_l2_hits 4" in exposition
        # Buckets are cumulative, with a closing +Inf bucket.
        assert 'sst_lat_bucket{le="1"} 1' in exposition
        assert 'sst_lat_bucket{le="+Inf"} 2' in exposition
        assert "sst_lat_count 2" in exposition


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class TestSpans:
    def test_spans_nest_into_a_tree(self):
        with telemetry.span("outer", kind="test"):
            with telemetry.span("inner"):
                pass
            with telemetry.span("sibling"):
                pass
        roots = telemetry.get_tracer().drain()
        assert [root.name for root in roots] == ["outer"]
        outer = roots[0]
        assert outer.labels == {"kind": "test"}
        assert [child.name for child in outer.children] == ["inner",
                                                            "sibling"]
        assert outer.total_spans() == 3
        assert outer.find("sibling") is outer.children[1]
        assert outer.duration >= outer.children[0].duration

    def test_name_label_does_not_collide_with_span_name(self):
        # ``name`` is positional-only, so a ``name=`` label is legal.
        with telemetry.span("load", name="corpus"):
            pass
        (root,) = telemetry.get_tracer().drain()
        assert root.name == "load"
        assert root.labels == {"name": "corpus"}

    def test_current_span_tracks_the_stack(self):
        assert telemetry.current_span() is None
        with telemetry.span("outer") as outer:
            assert telemetry.current_span() is outer
            with telemetry.span("inner") as inner:
                assert telemetry.current_span() is inner
            assert telemetry.current_span() is outer
        assert telemetry.current_span() is None

    def test_explicit_parent_grafts_detached_spans(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            pass
        worker_span = Span(name="worker", duration=0.5,
                           labels={"pid": 123})
        tracer.attach_children(root, [worker_span])
        assert root.children == [worker_span]
        # With no parent the spans become additional roots.
        tracer.attach_children(None, [Span(name="stray")])
        names = [span.name for span in tracer.drain()]
        assert names == ["root", "stray"]

    def test_drain_empties_the_tracer(self):
        with telemetry.span("a"):
            pass
        assert len(telemetry.get_tracer().drain()) == 1
        assert telemetry.get_tracer().drain() == []

    def test_spans_are_picklable(self):
        span = Span(name="chunk", duration=0.25,
                    labels={"pid": 1}, children=[Span(name="leaf")])
        clone = pickle.loads(pickle.dumps(span))
        assert clone.as_dict() == span.as_dict()

    def test_render_span_tree(self):
        root = Span(name="outer", duration=0.1, labels={"k": "v"},
                    children=[Span(name="inner", duration=0.005)])
        rendered = render_span_tree([root])
        lines = rendered.splitlines()
        assert lines[0].startswith("outer")
        assert "100.000 ms" in lines[0]
        assert "k=v" in lines[0]
        assert lines[1].startswith("  inner")
        assert render_span_tree([]) == "(no spans recorded)"

    def test_render_span_tree_prunes_cheap_children(self):
        root = Span(name="outer", duration=1.0,
                    children=[Span(name="cheap", duration=0.001),
                              Span(name="costly", duration=0.9)])
        rendered = render_span_tree([root], min_fraction=0.1)
        assert "costly" in rendered
        assert "cheap" not in rendered


# ---------------------------------------------------------------------------
# Kill switch
# ---------------------------------------------------------------------------


class TestKillSwitch:
    def test_hooks_are_noops_when_disabled(self):
        telemetry.set_enabled(False)
        telemetry.count("c")
        telemetry.gauge("g", 1)
        telemetry.observe("h", 0.5)
        with telemetry.span("s"):
            pass
        assert telemetry.current_span() is None
        assert telemetry.get_registry().names() == []
        assert telemetry.get_tracer().drain() == []

    def test_disabled_span_is_a_shared_singleton(self):
        telemetry.set_enabled(False)
        assert telemetry.span("a") is telemetry.span("b")

    @pytest.mark.parametrize("value,expected", [
        ("off", False), ("0", False), ("false", False), ("no", False),
        ("OFF", False), ("", True), ("on", True), ("1", True),
    ])
    def test_refresh_from_env(self, monkeypatch, value, expected):
        monkeypatch.setenv(telemetry.TELEMETRY_ENV, value)
        assert telemetry.refresh_from_env() is expected
        assert telemetry.enabled() is expected

    def test_set_enabled_overrides_environment(self, monkeypatch):
        monkeypatch.setenv(telemetry.TELEMETRY_ENV, "off")
        telemetry.refresh_from_env()
        telemetry.set_enabled(True)
        telemetry.count("c")
        assert telemetry.get_registry().value("c") == 1


# ---------------------------------------------------------------------------
# Instrumented library paths
# ---------------------------------------------------------------------------


class TestInstrumentedPaths:
    def test_cached_runner_reports_tier_counters(self, mini_sst):
        # TFIDF has no kernel batch form, so the facade caches it.
        mini_sst.get_similarity("Professor", "univ", "Student", "univ",
                                "TFIDF")
        registry = telemetry.get_registry()
        assert registry.value("cache.l1.misses") == 1
        assert registry.value("cache.l1.stores") == 1
        mini_sst.get_similarity("Professor", "univ", "Student", "univ",
                                "TFIDF")
        assert registry.value("cache.l1.hits") == 1

    def test_facade_records_spans_and_gauges(self, mini_sst):
        with telemetry.span("test.root") as root:
            mini_sst.get_similarity_matrix(
                [("univ", "Professor"), ("univ", "Student")],
                "Shortest Path")
        assert root.find("facade.similarity_matrix") is not None
        assert root.find("parallel.score_pairs") is not None
        registry = telemetry.get_registry()
        assert registry.value("facade.get_similarity_matrix.calls") == 1
        assert registry.value("facade.unified_tree.nodes") > 0
        assert registry.value("soqa.ontologies_loaded") == 3

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
