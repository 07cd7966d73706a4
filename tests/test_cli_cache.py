"""Tests for the cache-related CLI surface (sst cache, --no-cache)."""

import pytest

from repro.cli import main
from tests.conftest import MINI_OWL


@pytest.fixture
def owl_file(tmp_path) -> str:
    path = tmp_path / "univ.owl"
    path.write_text(MINI_OWL, encoding="utf-8")
    return str(path)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch) -> str:
    directory = tmp_path / "cli-cache"
    monkeypatch.setenv("SST_CACHE_DIR", str(directory))
    return str(directory)


class TestCacheSubcommand:
    def test_path(self, capsys, cache_dir):
        # The user-facing L2 location is the directory (the sqlite
        # file lives inside it).
        assert main(["cache", "path"]) == 0
        out = capsys.readouterr().out
        assert cache_dir in out

    def test_stats_empty(self, capsys, cache_dir):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out

    def test_stats_json(self, capsys, cache_dir):
        import json

        assert main(["cache", "stats", "--format", "json"]) == 0
        statistics = json.loads(capsys.readouterr().out)
        assert statistics["exists"] is False
        assert set(statistics) == {"path", "exists", "entries",
                                   "fingerprints", "measures",
                                   "size_bytes", "pending"}

    def test_clear(self, capsys, cache_dir):
        assert main(["cache", "clear"]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_cache_dir_option_beats_environment(self, capsys, cache_dir,
                                                tmp_path):
        other = tmp_path / "elsewhere"
        assert main(["--cache-dir", str(other), "cache", "path"]) == 0
        assert str(other) in capsys.readouterr().out


class TestWarmStart:
    # TFIDF has no kernel batch form; only such measures are cached.

    def test_second_matrix_run_hits_disk(self, capsys, owl_file, cache_dir):
        argv = ["--ontology-file", owl_file, "matrix",
                "univ:Person", "univ:Student", "univ:Course", "-m", "TFIDF"]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "0.0%" in cold.err  # everything computed cold
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "100.0%" in warm.err
        assert warm.out == cold.out  # warm results identical

    def test_no_cache_flag_skips_disk(self, capsys, owl_file, cache_dir):
        argv = ["--ontology-file", owl_file, "matrix",
                "univ:Person", "univ:Student", "-m", "TFIDF", "--no-cache"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "disk cache" not in captured.err
        # Nothing was persisted either:
        assert main(["cache", "stats", "--format", "json"]) == 0

    def test_ksim_reports_cache(self, capsys, owl_file, cache_dir):
        argv = ["--ontology-file", owl_file, "ksim", "univ", "Person",
                "-k", "2", "-m", "TFIDF"]
        assert main(argv) == 0
        assert "disk cache" in capsys.readouterr().err

    def test_align_reports_cache(self, capsys, owl_file, cache_dir):
        argv = ["--ontology-file", owl_file, "align", "univ", "univ",
                "-m", "TFIDF"]
        assert main(argv) == 0
        assert "disk cache" in capsys.readouterr().err


class TestIndexReport:
    def test_stats_reports_compiled_index(self, capsys, owl_file):
        assert main(["--ontology-file", owl_file, "stats"]) == 0
        out = capsys.readouterr().out
        assert "graph index compiled" in out
