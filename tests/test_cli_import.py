"""Tests for ``sst import`` and the store-backed CLI path."""

import pytest

from repro.cli import main
from repro.ontologies.generator import generate_wordnet_data
from tests.conftest import MINI_OWL, MINI_WORDNET


@pytest.fixture
def owl_file(tmp_path) -> str:
    path = tmp_path / "univ.owl"
    path.write_text(MINI_OWL, encoding="utf-8")
    return str(path)


@pytest.fixture
def wordnet_file(tmp_path) -> str:
    path = tmp_path / "mini.wn"
    path.write_text(MINI_WORDNET, encoding="utf-8")
    return str(path)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch) -> str:
    directory = tmp_path / "import-cache"
    monkeypatch.setenv("SST_CACHE_DIR", str(directory))
    return str(directory)


class TestImportCommand:
    def test_single_source(self, capsys, tmp_path, owl_file):
        output = tmp_path / "corpus.sstdb"
        assert main(["import", owl_file, "-o", str(output)]) == 0
        out = capsys.readouterr().out
        assert "imported univ (5 concepts, OWL)" in out
        assert "1 ontologies, 5 concepts" in out
        assert output.exists()

    def test_multiple_sources(self, capsys, tmp_path, owl_file,
                              wordnet_file):
        output = tmp_path / "corpus.sstdb"
        assert main(["import", owl_file, wordnet_file,
                     "-o", str(output)]) == 0
        out = capsys.readouterr().out
        assert "imported univ" in out
        assert "imported mini" in out
        assert "2 ontologies, 10 concepts" in out

    def test_refuses_to_clobber_without_overwrite(self, capsys, tmp_path,
                                                  owl_file):
        output = tmp_path / "corpus.sstdb"
        assert main(["import", owl_file, "-o", str(output)]) == 0
        capsys.readouterr()
        assert main(["import", owl_file, "-o", str(output)]) != 0
        assert main(["import", owl_file, "-o", str(output),
                     "--overwrite"]) == 0

    def test_generated_wordnet_corpus_imports(self, capsys, tmp_path):
        source = tmp_path / "synth.wn"
        source.write_text(generate_wordnet_data(300, seed=1),
                          encoding="utf-8")
        output = tmp_path / "synth.sstdb"
        assert main(["import", str(source), "-o", str(output)]) == 0
        assert "300 concepts" in capsys.readouterr().out


class TestStoreBackedQueries:
    @pytest.fixture
    def store_file(self, capsys, tmp_path, owl_file) -> str:
        output = tmp_path / "corpus.sstdb"
        assert main(["import", owl_file, "-o", str(output)]) == 0
        capsys.readouterr()
        return str(output)

    def test_sim_answers_from_the_store(self, capsys, store_file,
                                        owl_file, cache_dir):
        argv = ["--ontology-file", store_file, "sim",
                "univ", "Person", "univ", "Student"]
        assert main(argv) == 0
        from_store = capsys.readouterr().out
        assert main(["--ontology-file", owl_file, "sim",
                     "univ", "Person", "univ", "Student"]) == 0
        from_memory = capsys.readouterr().out
        assert from_store == from_memory  # bit-identical scores

    def test_stats_reports_sqlite_backend(self, capsys, store_file,
                                          cache_dir):
        assert main(["--ontology-file", store_file, "stats"]) == 0
        assert "store backend: 1 sqlite" in capsys.readouterr().out


class TestIndexProvenanceReport:
    def test_second_run_loads_the_artifact(self, capsys, owl_file,
                                           cache_dir, monkeypatch):
        monkeypatch.setenv("SST_INDEX_PERSIST", "0")
        argv = ["--ontology-file", owl_file, "stats"]
        assert main(argv) == 0
        assert "graph index compiled fresh" in capsys.readouterr().out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "graph index loaded from persisted artifact" in out


class TestCacheMaintenanceCommands:
    def test_compact(self, capsys, cache_dir):
        assert main(["cache", "compact"]) == 0
        out = capsys.readouterr().out
        assert "compacted" in out
        assert "similarity-cache.sqlite" in out

    def test_prune_requires_budget(self, capsys, cache_dir):
        assert main(["cache", "prune"]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_prune_with_budget(self, capsys, cache_dir):
        assert main(["cache", "prune", "--max-bytes", "1000000"]) == 0
        assert "pruned" in capsys.readouterr().out

    def test_stats_names_the_cache_file(self, capsys, cache_dir):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "similarity-cache.sqlite" in out
        assert "shard" not in out
