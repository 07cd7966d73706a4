"""Every ``sst serve`` setting is range-checked in one place.

``ServerConfig`` refuses a value that would boot a server unable to
serve (a connection cap of 0 answers every connection with 503, a
negative body cap every POST with 413), and ``sst serve`` reports the
refusal as one ``error:`` line before it loads the corpus or binds a
socket.  A port that is already taken is reported the same way, also
before the corpus loads.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core.server import ServerConfig
from repro.errors import SSTCoreError
from repro.ontologies.generator import generate_wordnet_data
from repro.soqa.api import SOQA
from tests.conftest import MINI_OWL

SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.mark.parametrize("setting, value", [
    ("workers", 0), ("max_connections", 0),
    ("max_requests_per_connection", 0), ("breaker_threshold", 0),
    ("max_body_bytes", -5), ("queue_limit", 0),
    ("deadline_seconds", -1.0), ("idle_timeout", -0.5),
    ("drain_seconds", -1.0), ("breaker_reset", -1.0), ("port", 70000),
])
def test_out_of_range_setting_is_refused(setting, value):
    with pytest.raises(SSTCoreError, match=setting):
        ServerConfig(**{setting: value})


def test_zero_deadline_disables_the_deadline_and_the_wait_bound():
    config = ServerConfig(deadline_seconds=0, idle_timeout=0)
    assert config.deadline().remaining() is None
    assert config.admission().max_wait is None


def test_admission_takes_its_bounds_from_the_settings():
    admission = ServerConfig(workers=3, deadline_seconds=2.5).admission()
    assert admission.max_wait == 2.5
    assert admission.queue_limit == 12


@pytest.mark.parametrize("flag, value", [("--max-connections", "0"),
                                         ("--max-body", "-5")])
def test_serve_refuses_an_out_of_range_flag_before_binding(tmp_path, flag,
                                                           value):
    owl = tmp_path / "univ.owl"
    owl.write_text(MINI_OWL, encoding="utf-8")
    env = {key: item for key, item in os.environ.items()
           if not key.startswith("SST_")}
    env["PYTHONPATH"] = SRC
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "--ontology-file", str(owl),
         "serve", "--host", "127.0.0.1", "--port", "0", flag, value],
        capture_output=True, text=True, env=env, timeout=30.0)
    assert result.returncode != 0
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert "listening" not in result.stdout + result.stderr


def test_serve_on_a_busy_port_reports_one_error_line(tmp_path):
    owl = tmp_path / "univ.owl"
    owl.write_text(MINI_OWL, encoding="utf-8")
    env = {key: item for key, item in os.environ.items()
           if not key.startswith("SST_")}
    env["PYTHONPATH"] = SRC
    env["SST_CACHE_DIR"] = str(tmp_path / "cache")
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--ontology-file", str(owl),
             "serve", "--host", "127.0.0.1", "--port", str(port)],
            capture_output=True, text=True, env=env, timeout=60.0)
    assert result.returncode == 1, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert "Traceback" not in result.stderr
    assert "listening" not in result.stdout + result.stderr


def test_serve_binds_before_it_loads_the_corpus(tmp_path):
    """A taken port fails before a 20k-synset corpus loads or compiles:
    no index artifact is written."""
    corpus = tmp_path / "big.wn"
    corpus.write_text(generate_wordnet_data(20000, seed=1),
                      encoding="utf-8")
    cache = tmp_path / "cache"
    env = {key: item for key, item in os.environ.items()
           if not key.startswith("SST_")}
    env["PYTHONPATH"] = SRC
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--cache-dir", str(cache),
             "--ontology-file", str(corpus), "serve", "--host", "127.0.0.1",
             "--port", str(port)],
            capture_output=True, text=True, env=env, timeout=120.0)
    assert result.returncode == 1, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert not list(cache.rglob("*.sstidx"))


def test_a_taken_port_fails_before_any_ontology_loads(tmp_path, monkeypatch,
                                                      capsys):
    def _refuse(*args, **kwargs):
        raise AssertionError("the corpus loaded before the port was bound")

    monkeypatch.setattr(SOQA, "load_file", _refuse)
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        code = main(["--cache-dir", str(tmp_path / "cache"),
                     "--ontology-file", str(tmp_path / "never.owl"),
                     "serve", "--host", "127.0.0.1", "--port", str(port)])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
