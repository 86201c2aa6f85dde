# Development entry points. Everything runs from the repository root with the
# src/ layout on PYTHONPATH; no installation step is needed.

PYTHON ?= python
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint bench bench-record bench-compare import-time docs-check all

# Tier-1 test suite (the acceptance gate for every PR).
test:
	$(PYTHON) -m pytest -x -q

# ruff (import order, unused imports, bugbear) over src + tests + benchmarks,
# when it is installed.  The source invariants (kernel purity, numerics
# hygiene, lock discipline) are tier-1 tests: tests/test_source_invariants.py.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "lint: ruff not installed; skipped (CI runs it)"; \
	fi

# Paper reproductions: regenerates the paper's tables and figures (and the
# complexity report) into results/*.txt.  The tables and Figure 3 series are
# committed; the Figure 4 and complexity timing reports are git-ignored.
bench:
	$(PYTHON) -m pytest benchmarks/ -q

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
