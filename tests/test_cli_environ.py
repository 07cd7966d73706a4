"""The CLI's batch flags reach the engine as arguments, not through
the process environment: an in-process caller of :func:`repro.cli.main`
finds ``os.environ`` exactly as it left it.
"""

import os

from repro.cli import main
from tests.conftest import MINI_OWL

BATCH_FLAGS = ["--workers", "2", "--no-cache", "--task-timeout", "30",
               "--retry-budget", "1"]


def test_batch_flags_leave_environ_unchanged(tmp_path, monkeypatch):
    monkeypatch.setenv("SST_CACHE_DIR", str(tmp_path / "cache"))
    path = tmp_path / "univ.owl"
    path.write_text(MINI_OWL, encoding="utf-8")
    before = dict(os.environ)
    for concept, code in (("Student", 0), ("Nope", 1)):
        assert main(["--ontology-file", str(path), "--l1-max", "50",
                     "matrix", "univ:Person", f"univ:{concept}",
                     "-m", "Levenshtein", *BATCH_FLAGS]) == code
        assert dict(os.environ) == before
