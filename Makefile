# Development entry points. Everything runs from the repository root with the
# src/ layout on PYTHONPATH; no installation step is needed.

PYTHON ?= python
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint bench bench-train bench-rank bench-retrieve bench-serve bench-durability bench-online bench-record bench-compare import-time docs-check all

# Tier-1 test suite (the acceptance gate for every PR).
test:
	$(PYTHON) -m pytest -x -q

# Static analysis: the in-repo analyzer (kernel purity, lock discipline,
# numerics hygiene) over src + tests + benchmarks, plus ruff (import order,
# unused imports, bugbear) when it is installed.
# CI passes LINT_FLAGS="--format github" to surface findings as annotations.
lint:
	$(PYTHON) -m repro.analysis src tests benchmarks $(LINT_FLAGS)
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "lint: ruff not installed; skipped (CI runs it)"; \
	fi

# Benchmark suite: regenerates the paper's tables/figures and the serving
# throughput reports into results/*.txt (includes bench-train and bench-rank).
bench:
	$(PYTHON) -m pytest benchmarks/ -q

# Training-throughput benchmark only: looped vs fused negative sampling
# (writes results/training_throughput.txt).
bench-train:
	$(PYTHON) -m pytest benchmarks/test_training_throughput.py -q

# Candidate-ranking benchmark only: naive per-candidate scoring vs the
# rank_candidates fast path (writes results/ranking_throughput.txt).
bench-rank:
	$(PYTHON) -m pytest benchmarks/test_ranking_throughput.py -q

# Retrieval benchmark only: exact vs IVF search throughput + recall@100, and
# the end-to-end retrieve->rank pipeline vs brute-force full-catalog ranking
# (writes results/retrieval_throughput.txt).
bench-retrieve:
	$(PYTHON) -m pytest benchmarks/test_retrieval_throughput.py -q

# Serving benchmark only: single vs batched vs cached request throughput, and
# the generic HeadRegistry dispatcher vs the hardcoded serving path (<5%
# overhead asserted; writes results/serving_throughput.txt and
# results/serving_protocol_overhead.txt).
bench-serve:
	$(PYTHON) -m pytest benchmarks/test_serving_throughput.py -q

# Durability benchmark only: WAL-on vs WAL-off serving throughput (the
# <90 us/line WAL cost budget) and crash-recovery time at a 100k-event log (writes
# results/serving_durability.txt).
bench-durability:
	$(PYTHON) -m pytest benchmarks/test_serving_durability.py -q

# Online-learning benchmark only: log-to-gradient throughput (WAL tail +
# example build, events/s floor asserted) and the end-to-end retrain wall
# time at a 100k-event log (writes results/online_learning.txt).
bench-online:
	$(PYTHON) -m pytest benchmarks/test_online_learning.py -q

# Benchmark of record (BENCHMARK.json, bench/README.md): run all six workloads,
# untraced then traced, and write one machine-readable record.
#   make bench-record SEED=1
SEED ?= 0
bench-record:
	$(PYTHON) -m bench.run --seed $(SEED) --out bench/out/record_seed$(SEED).json

# Two records, one verdict per (workload, end-to-end metric) from the
# BENCHMARK.json bounds; exits 1 when any row is worse.
#   make bench-compare BASE=parent.json NEW=bench/out/record_seed0.json
bench-compare:
	$(PYTHON) -m bench.compare $(BASE) $(NEW)

# Cold-start profile: the 15 costliest imports behind `import repro.serving`
# (self | cumulative microseconds, costliest last).  What may appear there is
# the "Import layering" section of docs/ARCHITECTURE.md; the enforcement is
# tests/test_import_closure.py, which checks the module set, not the seconds.
import-time:
	@$(PYTHON) -X importtime -c "import repro.serving" 2>&1 | sort -t'|' -k2 -n | tail -15

# Fail if the documented code blocks have drifted from the public API:
# extracts and executes every ```python fence in the README and the
# architecture guide.
docs-check:
	$(PYTHON) docs/check_docs.py README.md
	$(PYTHON) docs/check_docs.py docs/ARCHITECTURE.md

all: lint test docs-check
