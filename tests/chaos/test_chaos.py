"""Chaos suite: CLI runs under injected faults stay bit-identical.

The acceptance bar of the fault-tolerance layer: whatever faults are
armed — crashing pool workers, chunks sleeping past their timeout, a
scribbled-over L2 sqlite file, flaky ontology reads — ``sst`` completes
with *exactly* the stdout a fault-free serial run produces, and what
happened is visible in the ``resilience.*`` / ``faults.injected*`` /
``cache.l2.*`` telemetry counters instead of an exception.

Faults are armed through the ``--inject-faults`` flag (or ``SST_FAULTS``
— ``main()`` re-reads the environment per invocation), so these tests
drive the same code path a user chaos-testing a deployment would.
"""

import pytest

from repro.cli import main
from repro.core import telemetry

#: A fault-free serial matrix over a small slice of the paper corpus.
MATRIX_ARGS = ["matrix", "--from-ontology", "COURSES", "--limit", "8"]

#: The same matrix under TFIDF, which has no kernel batch form and so
#: reads and writes the L2 (kernel measures are never cached).
CACHED_MATRIX_ARGS = MATRIX_ARGS + ["-m", "TFIDF"]

#: The same matrix run by the supervised process pool.
PARALLEL = ["--workers", "2"]

#: The same matrix under uncached Levenshtein: a kernel measure is
#: scored in the parent whatever the worker count, so the pool's fault
#: paths are driven by a per-pair measure.
POOL_MATRIX_ARGS = MATRIX_ARGS + ["-m", "Levenshtein", "--no-cache"]


@pytest.fixture(autouse=True)
def _own_cache_dir(tmp_path, monkeypatch):
    """Each chaos test gets a private L2 directory it may destroy."""
    monkeypatch.setenv("SST_CACHE_DIR", str(tmp_path / "l2"))
    monkeypatch.delenv("SST_FAULTS", raising=False)
    yield tmp_path / "l2"


@pytest.fixture
def baseline(capsys):
    """Stdout of the clean serial run every chaos run must reproduce."""
    assert main(MATRIX_ARGS) == 0
    output = capsys.readouterr().out
    assert output.strip()
    return output


@pytest.fixture
def pool_baseline(capsys):
    """Stdout of the clean serial run of :data:`POOL_MATRIX_ARGS`."""
    assert main(POOL_MATRIX_ARGS) == 0
    output = capsys.readouterr().out
    assert output.strip()
    return output


def counter(name: str) -> int:
    return telemetry.get_registry().value(name)


class TestWorkerCrashChaos:
    def test_crashing_workers_yield_bit_identical_matrix(
            self, pool_baseline, capsys):
        # Every forked worker kills its first 99 chunks, so both the
        # launch and all relaunches fail; the run must finish serially
        # in the parent with the exact same stdout.
        code = main(["--inject-faults", "worker.crash=99"]
                    + POOL_MATRIX_ARGS + PARALLEL
                    + ["--retry-budget", "1"])
        assert code == 0
        assert capsys.readouterr().out == pool_baseline
        assert counter("resilience.degraded") >= 1
        assert counter("resilience.pool_failures.crash") == 2

    def test_faults_env_arms_the_same_plan(self, pool_baseline, capsys,
                                           monkeypatch):
        monkeypatch.setenv("SST_FAULTS", "worker.crash=99")
        code = main(POOL_MATRIX_ARGS + PARALLEL + ["--retry-budget", "0"])
        assert code == 0
        assert capsys.readouterr().out == pool_baseline
        assert counter("resilience.degraded") >= 1


class TestTimeoutChaos:
    def test_slow_chunks_yield_bit_identical_matrix(self, pool_baseline,
                                                    capsys):
        code = main(["--inject-faults", "task.slow=99@0.6"]
                    + POOL_MATRIX_ARGS + PARALLEL
                    + ["--task-timeout", "0.15", "--retry-budget", "0"])
        assert code == 0
        assert capsys.readouterr().out == pool_baseline
        assert counter("resilience.pool_failures.timeout") == 1
        assert counter("resilience.degraded") >= 1


class TestCacheCorruptionChaos:
    @pytest.fixture
    def baseline(self, capsys):
        """Stdout of the clean serial TFIDF run, which builds the L2."""
        assert main(CACHED_MATRIX_ARGS) == 0
        output = capsys.readouterr().out
        assert output.strip()
        return output

    def test_corrupt_l2_is_quarantined_mid_command(self, baseline, capsys,
                                                   _own_cache_dir):
        # The baseline run built a healthy sqlite file; the fault
        # scribbles over it at the next connect.
        code = main(["--inject-faults", "cache.corrupt=1"]
                    + CACHED_MATRIX_ARGS)
        assert code == 0
        assert capsys.readouterr().out == baseline
        assert counter("cache.l2.quarantined") == 1
        assert counter("faults.injected.cache.corrupt") == 1
        evidence = list(_own_cache_dir.glob("*.corrupt-*"))
        assert len(evidence) == 1

    def test_everything_at_once(self, baseline, capsys, _own_cache_dir):
        spec = "worker.crash=99,cache.corrupt=1,loader.io=1"
        code = main(["--inject-faults", spec]
                    + CACHED_MATRIX_ARGS + PARALLEL
                    + ["--retry-budget", "0"])
        assert code == 0
        assert capsys.readouterr().out == baseline
        assert counter("resilience.degraded") >= 1
        assert counter("cache.l2.quarantined") == 1
        assert counter("resilience.retries") == 1  # loader retried once


class TestTelemetryKillSwitch:
    def test_stdout_identical_with_telemetry_off(self, baseline, capsys,
                                                 monkeypatch):
        monkeypatch.setenv("SST_TELEMETRY", "off")
        code = main(["--inject-faults", "worker.crash=99"]
                    + MATRIX_ARGS + PARALLEL + ["--retry-budget", "0"])
        assert code == 0
        assert capsys.readouterr().out == baseline
        # Counters stayed dark: the kill switch silences the books, not
        # the recovery behaviour.
        assert counter("resilience.degraded") == 0


class TestLoaderChaos:
    def test_transient_read_fault_is_absorbed(self, capsys):
        assert main(["--inject-faults", "loader.io=1", "ontologies"]) == 0
        assert "COURSES" in capsys.readouterr().out
        assert counter("resilience.retries") == 1
        assert counter("faults.injected.loader.io") == 1

    def test_persistent_read_fault_exhausts_cleanly(self, capsys):
        # Quota >= attempts: every retry hits the fault, so the command
        # must fail with a one-line error instead of a traceback.
        assert main(["--inject-faults", "loader.io=9", "ontologies"]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert counter("resilience.retry_exhausted") == 1


class TestCLIGuards:
    def test_malformed_fault_spec_is_a_clean_error(self, capsys):
        assert main(["--inject-faults", "warp.core=1", "ontologies"]) == 1
        assert "unknown fault site" in capsys.readouterr().err

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        def interrupt(arguments):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli._run", interrupt)
        assert main(["ontologies"]) == 130
        assert "interrupted" in capsys.readouterr().err
