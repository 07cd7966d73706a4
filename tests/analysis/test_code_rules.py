"""Unit tests for the code-rule family: one positive and one negative
fixture per rule, pragma suppression, and config filtering."""

from pathlib import Path
from textwrap import dedent

import pytest

from repro.analysis import AnalysisConfig, analyze_paths
from repro.analysis.code_rules import CODE_RULES, METRIC_NAMESPACES

FIXTURES = Path(__file__).parent / "code_fixtures"


def findings_for(name, config=None):
    return analyze_paths([str(FIXTURES / name)], config=config)


def codes(name, config=None):
    return [finding.code for finding in findings_for(name, config)]


#: ``(positive fixture, negative fixture, rule code, finding count)``.
RULE_CASES = [
    ("wallclock_bad.py", "wallclock_good.py", "wallclock-call", 3),
    ("unseeded_random_bad.py", "unseeded_random_good.py",
     "unseeded-random", 2),
    ("unsorted_iteration_bad.py", "unsorted_iteration_good.py",
     "unsorted-iteration", 3),
    ("worker_mutation_bad.py", "worker_mutation_good.py",
     "worker-shared-mutation", 2),
    ("unlocked_state_bad.py", "unlocked_state_good.py",
     "unlocked-shared-state", 1),
    ("fork_initargs_bad.py", "fork_initargs_good.py",
     "fork-unsafe-initargs", 2),
    ("async_blocking_bad.py", "async_blocking_good.py",
     "async-blocking-call", 3),
    ("nonatomic_write_bad.py", "nonatomic_write_good.py",
     "nonatomic-write", 3),
    ("fault_site_bad.py", "fault_site_good.py", "unknown-fault-site", 1),
    ("swallowed_exception_bad.py", "swallowed_exception_good.py",
     "swallowed-exception", 3),
    ("metric_name_bad.py", "metric_name_good.py", "metric-name", 3),
    ("span_discipline_bad.py", "span_discipline_good.py",
     "span-discipline", 1),
    ("mutable_default_bad.py", "mutable_default_good.py",
     "mutable-default-argument", 3),
    ("prefer_batch_kernel_bad.py", "prefer_batch_kernel_good.py",
     "prefer-batch-kernel", 2),
    ("full_materialization_bad.py", "full_materialization_good.py",
     "full-materialization", 3),
    ("executor_shutdown_bad.py", "executor_shutdown_good.py",
     "abandoning-executor-shutdown", 2),
    ("signal_thread_bad.py", "signal_thread_good.py",
     "signal-off-main-thread", 1),
    ("environ_write_bad.py", "environ_write_good.py", "environ-write", 5),
]


class TestEveryRule:
    @pytest.mark.parametrize("bad,good,code,count", RULE_CASES,
                             ids=[case[2] for case in RULE_CASES])
    def test_positive_fixture_flagged(self, bad, good, code, count):
        found = codes(bad)
        assert found == [code] * count, found

    @pytest.mark.parametrize("bad,good,code,count", RULE_CASES,
                             ids=[case[2] for case in RULE_CASES])
    def test_negative_fixture_clean(self, bad, good, code, count):
        assert codes(good) == []

    def test_every_registered_rule_has_a_fixture_pair(self):
        covered = {case[2] for case in RULE_CASES} | {"module-syntax-error"}
        assert {rule.code for rule in CODE_RULES.rules()} == covered
        assert len(CODE_RULES.rules()) >= 10


class TestFindingShape:
    def test_path_subject_and_position(self):
        finding = findings_for("wallclock_bad.py")[0]
        assert finding.ontology.endswith("code_fixtures/wallclock_bad.py")
        assert finding.subject == "stamp_result"
        assert finding.line == 8
        assert finding.column > 0
        assert "time.time" in finding.message
        assert finding.hint

    def test_class_methods_get_dotted_qualnames(self):
        finding = findings_for("unlocked_state_bad.py")[0]
        assert finding.subject == "Cache.clear"
        assert "self._entries" in finding.message
        assert "self._lock" in finding.message

    def test_bare_except_escalates_to_error(self):
        findings = findings_for("swallowed_exception_bad.py")
        by_severity = {finding.severity for finding in findings}
        assert by_severity == {"error", "warning"}
        bare = next(f for f in findings if f.severity == "error")
        assert "bare except" in bare.message


class TestSyntaxErrors:
    def test_unparseable_file_becomes_finding(self):
        findings = findings_for("syntax_error_bad.py")
        assert [f.code for f in findings] == ["module-syntax-error"]
        assert findings[0].severity == "error"
        assert findings[0].line == 4

    def test_syntax_error_rule_can_be_disabled(self):
        config = AnalysisConfig.create(disabled=["module-syntax-error"])
        assert codes("syntax_error_bad.py", config) == []

    def test_broken_file_does_not_abort_the_run(self):
        findings = analyze_paths([str(FIXTURES / "syntax_error_bad.py"),
                                  str(FIXTURES / "wallclock_bad.py")])
        found = {finding.code for finding in findings}
        assert found == {"module-syntax-error", "wallclock-call"}


class TestSuppression:
    def test_pragmas_silence_named_code_and_all(self):
        assert codes("pragma_suppressed.py") == []

    def test_pragma_does_not_leak_to_other_lines(self, tmp_path):
        source = dedent("""\
            import time

            def stamped():
                a = time.time()  # sst: disable=wallclock-call
                b = time.time()
                return a, b
        """)
        target = tmp_path / "sample.py"
        target.write_text(source, encoding="utf-8")
        findings = analyze_paths([str(target)])
        assert [f.code for f in findings] == ["wallclock-call"]
        assert findings[0].line == 5


class TestConfigFiltering:
    def test_only_selects_one_rule(self):
        config = AnalysisConfig.create(only=["metric-name"])
        assert set(codes("metric_name_bad.py", config)) == {"metric-name"}
        assert codes("wallclock_bad.py", config) == []

    def test_min_severity_drops_warnings(self):
        config = AnalysisConfig.create(min_severity="error")
        assert codes("wallclock_bad.py", config) == []
        assert codes("nonatomic_write_bad.py", config) \
            == ["nonatomic-write"] * 3


class TestDirectoryAnalysis:
    def test_directory_walk_is_deterministic(self):
        config = AnalysisConfig.create(disabled=["module-syntax-error"])
        first = analyze_paths([str(FIXTURES)], config=config)
        second = analyze_paths([str(FIXTURES)], config=config)
        assert [f.as_dict() for f in first] == [f.as_dict() for f in second]
        assert first, "fixture directory must produce findings"

    def test_errors_sort_before_warnings(self):
        config = AnalysisConfig.create(disabled=["module-syntax-error"])
        severities = [f.severity for f in
                      analyze_paths([str(FIXTURES)], config=config)]
        assert severities == sorted(
            severities, key=lambda s: 0 if s == "error" else 1)


class TestSeededViolation:
    def test_wallclock_in_a_measure_is_detected(self, tmp_path):
        """The acceptance scenario: a similarity measure that stamps its
        result with ``time.time()`` must be caught."""
        source = dedent("""\
            import time

            class JitterMeasure:
                def similarity(self, first, second):
                    return (hash((first, second)) % 100) / 100.0

                def report(self, first, second):
                    return {"value": self.similarity(first, second),
                            "at": time.time()}
        """)
        target = tmp_path / "jitter_measure.py"
        target.write_text(source, encoding="utf-8")
        findings = analyze_paths([str(target)])
        assert [f.code for f in findings] == ["wallclock-call"]
        assert findings[0].subject == "JitterMeasure.report"


def test_metric_namespaces_cover_the_codebase():
    """Every namespace the toolkit emits today is registered."""
    for root in ("cache", "facade", "faults", "graphindex", "parallel",
                 "resilience", "soqa"):
        assert root in METRIC_NAMESPACES
