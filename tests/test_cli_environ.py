"""The CLI's batch flags stay scoped to one command.

``--task-timeout`` and ``--retry-budget`` reach deep layers through
their ``SST_*`` variables; an in-process caller of
:func:`repro.cli.main` must find its environment exactly as it left
it.
"""

import os

import pytest

from repro.cli import main
from tests.conftest import MINI_OWL

ALL_FLAGS = ["matrix", "univ:Person", "univ:Student", "--task-timeout",
             "30", "--retry-budget", "1"]


@pytest.fixture
def owl_file(tmp_path, monkeypatch) -> str:
    monkeypatch.setenv("SST_CACHE_DIR", str(tmp_path / "cache"))
    path = tmp_path / "univ.owl"
    path.write_text(MINI_OWL, encoding="utf-8")
    return str(path)


class TestScopedFlags:
    def test_stats_leaves_environ_unchanged(self, capsys, owl_file):
        before = dict(os.environ)
        assert main(["--ontology-file", owl_file, "stats"]) == 0
        assert dict(os.environ) == before
        assert "graph index compiled" in capsys.readouterr().out

    def test_both_flags_leave_environ_unchanged(self, owl_file):
        before = dict(os.environ)
        assert main(["--ontology-file", owl_file, *ALL_FLAGS]) == 0
        assert dict(os.environ) == before

    def test_prior_values_are_restored(self, owl_file, monkeypatch):
        monkeypatch.setenv("SST_TASK_TIMEOUT", "10")
        monkeypatch.setenv("SST_RETRY_BUDGET", "2")
        before = dict(os.environ)
        assert main(["--ontology-file", owl_file, *ALL_FLAGS]) == 0
        assert dict(os.environ) == before

    def test_restored_after_a_failing_command(self, owl_file):
        before = dict(os.environ)
        assert main(["--ontology-file", owl_file, "matrix", "univ:Nope",
                     "univ:Person", "--retry-budget", "1"]) == 1
        assert dict(os.environ) == before
