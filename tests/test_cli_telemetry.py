"""Tests for the observability CLI surface (sst trace / sst metrics).

Also pins the telemetry-backed disk-cache stderr report, stdout
determinism under the ``SST_TELEMETRY`` kill switch, and the
agreement of the cache counters between serial and process runs.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core import telemetry
from tests.conftest import MINI_OWL

#: TFIDF has no kernel batch form, so its matrix runs through both
#: cache tiers and books their counters.
MATRIX_ARGS = ["matrix", "univ:Person", "univ:Student", "univ:Course",
               "-m", "TFIDF"]

#: Symmetric 3-concept matrix: 3 diagonal + 3 upper-triangle pairs.
MATRIX_PAIRS = 6

#: The worker count that selects each way of running a batch.
STRATEGIES = {"serial": "1", "process": "2"}


@pytest.fixture
def owl_file(tmp_path) -> str:
    path = tmp_path / "univ.owl"
    path.write_text(MINI_OWL, encoding="utf-8")
    return str(path)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch) -> str:
    directory = tmp_path / "telemetry-cache"
    monkeypatch.setenv("SST_CACHE_DIR", str(directory))
    return str(directory)


def _argv(owl_file: str, *arguments: str) -> list[str]:
    return ["--ontology-file", owl_file, *arguments]


def _parse_metrics_text(output: str) -> dict[str, str]:
    """The ``name value`` lines following the ``── metrics`` rule."""
    metrics: dict[str, str] = {}
    in_metrics = False
    for line in output.splitlines():
        if line.startswith("── metrics"):
            in_metrics = True
            continue
        if in_metrics and line.strip():
            name, _, value = line.partition("  ")
            metrics[name.strip()] = value.strip()
    return metrics


class TestTraceCommand:
    def test_trace_wraps_matrix(self, capsys, owl_file, cache_dir):
        assert main(_argv(owl_file, "trace", *MATRIX_ARGS)) == 0
        out = capsys.readouterr().out
        # The wrapped command's own output is preserved...
        assert "univ:Person" in out
        # ...followed by the span tree and the metrics dump.
        assert "── trace" in out
        assert "── metrics" in out
        assert "sst.matrix" in out
        assert "facade.similarity_matrix" in out
        assert "parallel.score_pairs" in out
        assert " ms" in out
        metrics = _parse_metrics_text(out)
        assert metrics["cache.l1.misses"] == str(MATRIX_PAIRS)

    def test_trace_forces_telemetry_on(self, capsys, owl_file, cache_dir,
                                       monkeypatch):
        # An explicit request to trace beats the ambient kill switch.
        monkeypatch.setenv(telemetry.TELEMETRY_ENV, "off")
        assert main(_argv(owl_file, "trace", *MATRIX_ARGS)) == 0
        assert "sst.matrix" in capsys.readouterr().out

    def test_trace_without_command_is_an_error(self, capsys, owl_file):
        assert main(_argv(owl_file, "trace")) == 2
        assert "needs a subcommand" in capsys.readouterr().err

    def test_trace_cannot_nest(self, capsys, owl_file):
        assert main(_argv(owl_file, "trace", "trace", "measures")) == 2
        assert "cannot nest" in capsys.readouterr().err

    def test_trace_inherits_global_options(self, capsys, owl_file,
                                           cache_dir):
        # --ontology-file given before ``trace`` reaches the wrapped run.
        assert main(["--ontology-file", owl_file, "trace",
                     "ksim", "univ", "Person", "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "Employee" in out
        assert "sst.ksim" in out


class TestMetricsCommand:
    def test_json_format_is_pure(self, capsys, owl_file, cache_dir):
        assert main(_argv(owl_file, "metrics", "--format", "json",
                          *MATRIX_ARGS)) == 0
        out = capsys.readouterr().out
        # The wrapped command's stdout is swallowed: the output is one
        # machine-parseable JSON document and nothing else.
        rendered = json.loads(out)
        assert rendered["cache.l1.misses"] == MATRIX_PAIRS
        assert rendered["facade.get_similarity_matrix.calls"] == 1

    def test_text_format_default(self, capsys, owl_file, cache_dir):
        assert main(_argv(owl_file, "metrics", *MATRIX_ARGS)) == 0
        out = capsys.readouterr().out
        assert "cache.l1.misses" in out
        assert "univ:Person" not in out

    def test_prometheus_format(self, capsys, owl_file, cache_dir):
        assert main(_argv(owl_file, "metrics", "--format", "prometheus",
                          *MATRIX_ARGS)) == 0
        out = capsys.readouterr().out
        assert "# TYPE sst_cache_l1_misses counter" in out
        assert f"sst_cache_l1_misses {MATRIX_PAIRS}" in out

    def test_metrics_without_command_is_empty(self, capsys):
        assert main(["metrics"]) == 0
        assert "(no metrics recorded)" in capsys.readouterr().out

    def test_metrics_cannot_nest(self, capsys, owl_file):
        assert main(_argv(owl_file, "metrics", "metrics", "measures")) == 2
        assert "cannot nest" in capsys.readouterr().err


class TestCacheReport:
    """The telemetry-backed ``disk cache: ...`` stderr line."""

    def test_cold_and_warm_hit_rates(self, capsys, owl_file, cache_dir):
        argv = _argv(owl_file, *MATRIX_ARGS)
        assert main(argv) == 0
        cold = capsys.readouterr().err
        assert f"disk cache: 0/{MATRIX_PAIRS} hits (0.0%)" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().err
        assert (f"disk cache: {MATRIX_PAIRS}/{MATRIX_PAIRS} hits (100.0%)"
                in warm)
        # The report names the cache directory (the L2 file lives inside).
        assert "telemetry-cache" in warm

    def test_silent_under_kill_switch(self, capsys, owl_file, cache_dir,
                                      monkeypatch):
        monkeypatch.setenv(telemetry.TELEMETRY_ENV, "off")
        assert main(_argv(owl_file, *MATRIX_ARGS)) == 0
        assert "disk cache" not in capsys.readouterr().err


class TestKillSwitchDeterminism:
    """``SST_TELEMETRY=off`` must not change a single stdout byte."""

    @pytest.mark.parametrize("arguments", [
        MATRIX_ARGS,
        ["ksim", "univ", "Person", "-k", "3"],
        ["align", "univ", "univ", "-m", "TFIDF"],
    ], ids=["matrix", "ksim", "align"])
    def test_stdout_is_byte_identical(self, capsys, owl_file, tmp_path,
                                      monkeypatch, arguments):
        argv = _argv(owl_file, *arguments)
        monkeypatch.setenv("SST_CACHE_DIR", str(tmp_path / "cache-on"))
        monkeypatch.delenv(telemetry.TELEMETRY_ENV, raising=False)
        assert main(argv) == 0
        with_telemetry = capsys.readouterr().out
        monkeypatch.setenv("SST_CACHE_DIR", str(tmp_path / "cache-off"))
        monkeypatch.setenv(telemetry.TELEMETRY_ENV, "off")
        assert main(argv) == 0
        without_telemetry = capsys.readouterr().out
        assert with_telemetry == without_telemetry


class TestCrossStrategyParity:
    def _metrics(self, capsys, owl_file, strategy: str) -> dict:
        assert main(_argv(owl_file, "metrics", "--format", "json",
                          *MATRIX_ARGS,
                          "--workers", STRATEGIES[strategy])) == 0
        return json.loads(capsys.readouterr().out)

    def test_warm_l2_hits_identical_across_strategies(self, capsys,
                                                      owl_file, cache_dir):
        # Warm the persistent tier once, serially.
        assert main(_argv(owl_file, *MATRIX_ARGS)) == 0
        capsys.readouterr()
        reports = {strategy: self._metrics(capsys, owl_file, strategy)
                   for strategy in STRATEGIES}
        for strategy, report in reports.items():
            assert report["cache.l2.hits"] == MATRIX_PAIRS, strategy
            assert report["cache.l1.misses"] == MATRIX_PAIRS, strategy
            assert "cache.l2.misses" not in report, strategy

    def test_cold_counters_reconcile_per_strategy(self, capsys, owl_file,
                                                  tmp_path, monkeypatch):
        for strategy in STRATEGIES:
            monkeypatch.setenv("SST_CACHE_DIR",
                               str(tmp_path / f"cache-{strategy}"))
            report = self._metrics(capsys, owl_file, strategy)
            assert report["cache.l1.misses"] == MATRIX_PAIRS, strategy
            assert report["cache.l2.misses"] == MATRIX_PAIRS, strategy
            assert report["cache.l2.stores"] == MATRIX_PAIRS, strategy
            assert report["cache.l2.flushed_rows"] == MATRIX_PAIRS, strategy


class TestTraceMetricsReconciliation:
    """``sst trace`` and ``sst metrics`` keep identical books."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_cache_counters_agree(self, capsys, owl_file, tmp_path,
                                  monkeypatch, strategy):
        run = ["--workers", STRATEGIES[strategy]]
        monkeypatch.setenv("SST_CACHE_DIR", str(tmp_path / "trace-cache"))
        assert main(_argv(owl_file, "trace", *MATRIX_ARGS, *run)) == 0
        traced = _parse_metrics_text(capsys.readouterr().out)
        monkeypatch.setenv("SST_CACHE_DIR", str(tmp_path / "metrics-cache"))
        assert main(_argv(owl_file, "metrics", "--format", "json",
                          *MATRIX_ARGS, *run)) == 0
        reported = json.loads(capsys.readouterr().out)
        cache_keys = {name for name in (set(traced) | set(reported))
                      if name.startswith("cache.")}
        assert cache_keys  # the cache path was exercised
        for name in sorted(cache_keys):
            assert int(traced[name]) == reported[name], name

    def test_process_trace_contains_worker_spans(self, capsys, owl_file,
                                                 cache_dir):
        assert main(_argv(owl_file, "trace", *MATRIX_ARGS,
                          "--workers", "2")) == 0
        out = capsys.readouterr().out
        assert "parallel.chunk" in out
        assert "pid=" in out
