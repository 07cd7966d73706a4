# Local invocations that match the CI jobs (.github/workflows/ci.yml)
# exactly — CI calls these same targets.

PY ?= python
export PYTHONPATH := src

.PHONY: test lint analyze coverage chaos serve-test bench-smoke \
	bench-correctness bench-graphindex bench-kernel bench-scale \
	bench-serve bench

# Tier-1 test suite (the CI "tests" job).
test:
	$(PY) -m pytest -x -q

# Chaos suite: fault-injected CLI runs must stay bit-identical to clean
# serial runs (the CI "chaos" job).
chaos:
	$(PY) -m pytest tests/chaos -q

# Service battery: byte-for-byte CLI parity, hammer concurrency
# and HTTP fuzz over a live `sst serve`, plus chaos under
# traffic and lifecycle chaos (real SIGTERM drains, kill -9 imports;
# the CI "serve" job).
serve-test:
	$(PY) -m pytest tests/server tests/chaos/test_serve_chaos.py \
		tests/chaos/test_lifecycle_chaos.py -q

# Tier-1 suite under coverage with the ratcheted minimum (the CI
# "coverage" job).  The threshold lives in pyproject.toml
# ([tool.coverage.report] fail_under); needs `pip install -e ".[test,cov]"`.
coverage:
	@$(PY) -c "import pytest_cov" 2>/dev/null || \
		{ echo "pytest-cov is not installed; run: pip install -e '.[test,cov]'"; exit 1; }
	$(PY) -m pytest --cov=repro --cov-report=term-missing \
		--cov-report=xml:coverage.xml -q

# Static analysis over the bundled ontology corpus (the CI "lint" job).
# `python -m repro.cli` is the module form of the installed `sst` command.
lint:
	$(PY) -m repro.cli lint --fail-on error

# Code rules over the toolkit's own source (the CI "analyze" job).
# Fails on any NEW warning-or-worse finding not accepted by the
# committed .sst-analyze-baseline.json.
analyze:
	$(PY) -m repro.cli analyze src/repro --fail-on warning

# Fast benchmark subset with JSON artifacts (the CI "bench-smoke" job).
bench-smoke:
	SST_BENCH_QUICK=1 $(PY) -m pytest benchmarks/test_table1.py benchmarks/test_parallel_scaling.py -q

# Correctness smoke over the perfbench workloads (the CI
# "bench-correctness" job): a short untraced run of each must exit 0,
# i.e. identical cold/warm digests, a bit-identical naive re-score and
# agreement with the serve oracle.  Nothing is gated on timing.
bench-correctness:
	$(PY) perfbench/run.py --workload cold-batch --seed 1 --seconds 10 --trace 0
	$(PY) perfbench/run.py --workload serve-mixed --seed 1 --seconds 10 --trace 0

# Disk-cache warm-start benchmark, quick mode (the CI
# "bench-graphindex" job).  Fails if a warm `sst matrix` run misses the
# disk cache or changes its output; run without SST_BENCH_QUICK=1 to
# also require warm < cold and refresh BENCH_graphindex.json at the
# root.  The compiled index's equality gates are tier-1 tests
# (tests/soqa/test_graphindex_properties.py, against networkx).
bench-graphindex:
	SST_BENCH_QUICK=1 $(PY) -m pytest benchmarks/test_graphindex_scaling.py -q

# Batch-kernel benchmark, quick mode (the CI "bench-kernel" job).
# Hard-gates bit-identical kernel/naive matrices and the 5x sweep
# speedup, and compares against the committed root BENCH_kernel.json,
# which the run never rewrites: it writes only the untracked
# benchmarks/results/BENCH_kernel.json.  To re-baseline, copy that file
# over the root one by hand.  Run without SST_BENCH_QUICK=1 for the
# nightly full-size configuration.
bench-kernel:
	SST_BENCH_QUICK=1 $(PY) -m pytest benchmarks/test_kernel_scaling.py -q

# Warm-start scale ladder, quick mode (the CI "bench-scale" job).
# Hard-gates bit-identical loaded/compiled indexes and the 5x
# warm-start speedup at the 10k rung and writes only the untracked
# benchmarks/results/BENCH_scale.json; run without SST_BENCH_QUICK=1 to
# add the 100k WordNet-scale rung and regenerate BENCH_scale.json at
# the root.
bench-scale:
	SST_BENCH_QUICK=1 $(PY) -m pytest benchmarks/test_scale.py -q

# Service throughput + overload posture, quick mode.  Non-gating on
# timings (loopback HTTP is too noisy to band) but hard on overload
# correctness: typed 429s with Retry-After, zero 500s.  Writes only the
# untracked benchmarks/results/BENCH_serve.json, in either mode; run
# without SST_BENCH_QUICK=1 for the nightly full-size configuration.
bench-serve:
	SST_BENCH_QUICK=1 $(PY) -m pytest benchmarks/test_serve_overload.py -q

# The full benchmark suite (not run in CI; slow).
bench:
	$(PY) -m pytest benchmarks -q
