"""Degradation and recovery paths of the batch similarity engine.

Covers the boundary batches serial and process runs must agree on
(empty sets, more workers than pairs, single-concept matrices) and the
supervised process pool's recovery: crashed workers and timed-out
chunks burn the retry budget, then the unfinished chunks degrade
process -> serial with bit-identical results and visible
``resilience.*`` counters.
"""

import pytest

from repro.core import parallel, telemetry
from repro.core.parallel import (
    DEFAULT_RETRY_BUDGET,
    PROCESS,
    SERIAL,
    BatchSimilarityEngine,
)
from repro.core.registry import Measure
from repro.core.resilience import injected_faults
from repro.core.results import QualifiedConcept
from repro.errors import SSTCoreError

PERSON = QualifiedConcept("univ", "Person")
EMPLOYEE = QualifiedConcept("univ", "Employee")
PROFESSOR = QualifiedConcept("univ", "Professor")
STUDENT = QualifiedConcept("univ", "Student")
COURSE = QualifiedConcept("univ", "Course")

CONCEPTS = (PERSON, EMPLOYEE, PROFESSOR, STUDENT, COURSE)
PAIRS = [(first, second) for first in CONCEPTS for second in CONCEPTS]


class PoisonedRunner:
    """Delegates to a real runner but raises on one specific pair."""

    def __init__(self, inner, poison):
        self.inner = inner
        self.poison = poison

    def run(self, first, second):
        if (first, second) == self.poison:
            raise ValueError("poisoned pair")
        return self.inner.run(first, second)


@pytest.fixture
def runner(mini_sst):
    # Uncached and per-pair: a kernel measure never reaches the pool.
    return mini_sst.runner(Measure.LEVENSHTEIN).inner


@pytest.fixture
def serial_values(runner):
    return [runner.run(first, second) for first, second in PAIRS]


class TestKnobResolution:
    def test_timeout_default_is_none(self, runner):
        assert BatchSimilarityEngine(runner).task_timeout is None
        engine = BatchSimilarityEngine(runner, task_timeout=0.2)
        assert engine.task_timeout == 0.2

    def test_invalid_timeout_rejected(self, runner):
        for timeout in (0, -1.5):
            with pytest.raises(SSTCoreError):
                BatchSimilarityEngine(runner, task_timeout=timeout)

    def test_budget_default(self, runner):
        engine = BatchSimilarityEngine(runner)
        assert engine.retry_budget == DEFAULT_RETRY_BUDGET
        # Zero is a valid choice: degrade at the first pool failure.
        assert BatchSimilarityEngine(runner, retry_budget=0).retry_budget == 0

    def test_invalid_budget_rejected(self, runner):
        with pytest.raises(SSTCoreError):
            BatchSimilarityEngine(runner, retry_budget=-1)


#: The worker count that selects each way of running a batch.
STRATEGY_WORKERS = pytest.mark.parametrize("workers", [1, 4],
                                           ids=[SERIAL, PROCESS])


class TestBoundaryBatches:
    @STRATEGY_WORKERS
    def test_empty_concept_set(self, runner, workers):
        engine = BatchSimilarityEngine(runner, workers=workers)
        assert engine.score_pairs([]) == []
        assert engine.similarity_matrix([]) == []

    @STRATEGY_WORKERS
    def test_single_concept_matrix(self, runner, workers):
        engine = BatchSimilarityEngine(runner, workers=workers)
        expected = [[runner.run(PERSON, PERSON)]]
        assert engine.similarity_matrix([PERSON]) == expected

    # Sixteen workers either way: a one-pair batch short-circuits to
    # the serial loop, a three-pair batch runs in the process pool.
    @pytest.mark.parametrize("pair_count", [1, 3], ids=[SERIAL, PROCESS])
    def test_more_workers_than_pairs(self, runner, pair_count):
        pairs = [(PERSON, STUDENT), (PERSON, COURSE),
                 (STUDENT, COURSE)][:pair_count]
        expected = [runner.run(first, second) for first, second in pairs]
        engine = BatchSimilarityEngine(runner, workers=16)
        assert engine.score_pairs(pairs) == expected

    def test_no_fork_platform_degrades_to_serial(self, runner, monkeypatch,
                                                 serial_values):
        monkeypatch.setattr(parallel, "_fork_context", lambda: None)
        engine = BatchSimilarityEngine(runner, workers=2)
        assert engine.score_pairs(PAIRS) == serial_values


class TestCrashRecovery:
    def test_worker_crashes_degrade_bit_identically(self, runner,
                                                    serial_values):
        telemetry.reset()
        engine = BatchSimilarityEngine(runner, workers=2, retry_budget=1)
        # Forked workers inherit the armed plan, so every fresh worker
        # kills itself on its first chunk: both the initial launch and
        # the one budgeted relaunch fail, and the batch must finish
        # serially in the parent.
        with injected_faults("worker.crash=99"):
            values = engine.score_pairs(PAIRS)
        assert values == serial_values
        registry = telemetry.get_registry()
        assert registry.value("resilience.pool_failures.crash") == 2
        assert registry.value("resilience.pool_failures") == 2
        assert registry.value("resilience.degraded") == 1
        (batch,) = [root for root in telemetry.get_tracer().drain()
                    if root.name == "parallel.score_pairs"]
        assert batch.labels["strategy"] == PROCESS
        (recover,) = [child for child in batch.children
                      if child.name == "resilience.recover"]
        assert recover.labels["strategy"] == SERIAL

    def test_zero_budget_degrades_after_first_crash(self, runner,
                                                    serial_values):
        telemetry.reset()
        engine = BatchSimilarityEngine(runner, workers=2, retry_budget=0)
        with injected_faults("worker.crash=99"):
            assert engine.score_pairs(PAIRS) == serial_values
        assert telemetry.get_registry().value(
            "resilience.pool_failures.crash") == 1


class TestTimeoutRecovery:
    def test_slow_chunks_degrade_bit_identically(self, runner,
                                                 serial_values):
        telemetry.reset()
        engine = BatchSimilarityEngine(runner, workers=2,
                                       task_timeout=0.15, retry_budget=0)
        # Each fresh worker sleeps through its first chunk for far
        # longer than the task timeout; with no relaunch budget the
        # engine degrades immediately.
        with injected_faults("task.slow=99@0.6"):
            values = engine.score_pairs(PAIRS)
        assert values == serial_values
        registry = telemetry.get_registry()
        assert registry.value("resilience.pool_failures.timeout") == 1
        assert registry.value("resilience.degraded") == 1

    def test_generous_timeout_stays_on_process_strategy(self, runner,
                                                        serial_values):
        telemetry.reset()
        engine = BatchSimilarityEngine(runner, workers=2, task_timeout=60.0)
        assert engine.score_pairs(PAIRS) == serial_values
        assert telemetry.get_registry().value("resilience.degraded") == 0


class TestGenuineErrors:
    def test_measure_errors_propagate_unretried(self, runner):
        telemetry.reset()
        poisoned = PoisonedRunner(runner, (STUDENT, COURSE))
        engine = BatchSimilarityEngine(poisoned, workers=2)
        with pytest.raises(ValueError):
            engine.score_pairs(PAIRS)
        # A deterministic exception is not an infrastructure failure:
        # no pool relaunches, no degradation.
        registry = telemetry.get_registry()
        assert registry.value("resilience.pool_failures") == 0
        assert registry.value("resilience.degraded") == 0
