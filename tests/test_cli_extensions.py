"""Tests for the align/stats/validate CLI subcommands and facade helpers."""

import io

import pytest

from repro.cli import main
from tests.conftest import MINI_OWL, MINI_PLOOM


@pytest.fixture
def ontology_files(tmp_path) -> list[str]:
    owl_path = tmp_path / "univ.owl"
    owl_path.write_text(MINI_OWL, encoding="utf-8")
    ploom_path = tmp_path / "MINI.ploom"
    ploom_path.write_text(MINI_PLOOM, encoding="utf-8")
    return [str(owl_path), str(ploom_path)]


def run_cli(capsys, ontology_files, *arguments: str) -> str:
    argv = []
    for path in ontology_files:
        argv.extend(["--ontology-file", path])
    argv.extend(arguments)
    assert main(argv) == 0
    return capsys.readouterr().out


class TestAlignCommand:
    def test_align_by_name_measure(self, capsys, ontology_files):
        out = run_cli(capsys, ontology_files, "align", "univ", "MINI",
                      "-m", "Jaro-Winkler", "-t", "0.95")
        assert "univ:Person" in out
        assert "MINI:PERSON" in out
        assert "correspondences" in out

    def test_align_high_threshold_empty(self, capsys, ontology_files):
        out = run_cli(capsys, ontology_files, "align", "univ", "MINI",
                      "-m", "TFIDF", "-t", "1.0")
        assert "(0 correspondences)" in out

    def test_align_unknown_ontology_errors(self, capsys, ontology_files):
        argv = ["--ontology-file", ontology_files[0], "align", "univ",
                "ghosts"]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err


class TestMatrixCommand:
    def test_matrix_text_output(self, capsys, ontology_files):
        out = run_cli(capsys, ontology_files, "matrix",
                      "univ:Person", "univ:Professor", "MINI:PERSON",
                      "-m", "Shortest Path")
        assert "univ:Person" in out
        assert "MINI:PERSON" in out
        assert "1.0000" in out

    def test_matrix_json_with_workers(self, capsys, ontology_files):
        import json

        out = run_cli(capsys, ontology_files, "matrix",
                      "univ:Person", "univ:Professor", "univ:Student",
                      "--workers", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["measure"] == "Shortest Path"
        assert payload["labels"][0] == "univ:Person"
        assert len(payload["matrix"]) == 3
        assert payload["matrix"][0][0] == 1.0

    def test_matrix_parallel_equals_serial(self, capsys, ontology_files):
        import json

        arguments = ["matrix", "--from-ontology", "univ", "--format",
                     "json", "-m", "Levenshtein"]
        serial = json.loads(run_cli(capsys, ontology_files, *arguments))
        parallel = json.loads(run_cli(
            capsys, ontology_files, *arguments,
            "--workers", "2"))
        assert parallel == serial

    def test_matrix_from_ontology_with_limit(self, capsys, ontology_files):
        import json

        out = run_cli(capsys, ontology_files, "matrix",
                      "--from-ontology", "univ", "--limit", "2",
                      "--format", "json")
        payload = json.loads(out)
        assert len(payload["labels"]) == 2

    def test_matrix_without_concepts_errors(self, capsys, ontology_files):
        argv = ["--ontology-file", ontology_files[0], "matrix"]
        assert main(argv) == 1
        assert "no concepts" in capsys.readouterr().err

    def test_matrix_malformed_concept_errors(self, capsys, ontology_files):
        argv = ["--ontology-file", ontology_files[0], "matrix", "Person"]
        assert main(argv) == 1
        assert "malformed" in capsys.readouterr().err


class TestStatsCommand:
    def test_stats_table(self, capsys, ontology_files):
        out = run_cli(capsys, ontology_files, "stats")
        assert "avg depth" in out
        assert "univ" in out
        assert "MINI" in out


class TestValidateCommand:
    def test_validate_reports_findings(self, capsys, ontology_files):
        out = run_cli(capsys, ontology_files, "validate", "univ")
        assert "findings" in out or "no findings" in out

    def test_validate_unknown_ontology_errors(self, capsys,
                                              ontology_files):
        argv = ["--ontology-file", ontology_files[0], "validate",
                "ghosts"]
        assert main(argv) == 1


class TestFacadeHelpers:
    def test_open_browser_scripted(self, mini_sst):
        output = io.StringIO()
        mini_sst.open_browser(lines=["ontologies"], stdout=output)
        assert "univ" in output.getvalue()

    def test_open_query_shell_scripted(self, mini_sst):
        output = io.StringIO()
        mini_sst.open_query_shell(
            lines=["select name from concepts in univ limit 1"],
            stdout=output)
        assert "(1 rows)" in output.getvalue()
