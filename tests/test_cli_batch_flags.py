"""The batch flags are range-checked once, before the corpus loads.

Whether a value is valid must not depend on the measure: a kernel
measure never builds a cache tier or a process pool, so a check left
to those layers let ``--l1-max 0`` pass for it and fail for TFIDF.
"""

import pytest

from repro.cli import main
from repro.core.registry import Measure
from repro.soqa.api import SOQA
from tests.conftest import MINI_OWL


@pytest.mark.parametrize("measure", [str(int(Measure.SHORTEST_PATH)),
                                     "TFIDF"], ids=["kernel", "per-pair"])
@pytest.mark.parametrize("flag, value, message", [
    ("--l1-max", "0", "cache capacity"),
    ("--workers", "0", "worker count"),
    ("--task-timeout", "-1", "task timeout"),
    ("--retry-budget", "-1", "retry budget"),
])
def test_out_of_range_batch_flag_fails_before_the_corpus_loads(
        tmp_path, monkeypatch, capsys, flag, value, message, measure):
    monkeypatch.setenv("SST_CACHE_DIR", str(tmp_path / "cache"))
    path = tmp_path / "univ.owl"
    path.write_text(MINI_OWL, encoding="utf-8")

    def _refuse(*args, **kwargs):
        raise AssertionError("the corpus loaded before the flags were "
                             "checked")

    monkeypatch.setattr(SOQA, "load_file", _refuse)
    # --l1-max is a global flag; the others belong to the subcommand.
    flags = [flag, value]
    argv = (["--ontology-file", str(path)]
            + (flags if flag == "--l1-max" else [])
            + ["matrix", "univ:Person", "univ:Student", "-m", measure]
            + ([] if flag == "--l1-max" else flags))
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert message in lines[0]
