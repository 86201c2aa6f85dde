"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at the ``quick``
scale (small synthetic datasets, few epochs) so the full suite completes in
minutes on a CPU.  The measured numbers are printed next to the paper's
reported values; absolute agreement is not expected (different data scale and
substrate), but the qualitative shape — who wins, roughly by how much — is
asserted where the paper's claim is specific.

Run with ``make bench``, or::

    python -m pytest benchmarks/ -q
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

import pytest

#: The scale every benchmark runs at.  Switch to "small" for a slower,
#: higher-fidelity regeneration of the tables.
BENCHMARK_SCALE = "quick"

#: Regenerated tables/figures are also written here as plain text so they are
#: easy to inspect and to archive (pytest captures stdout of passing tests).
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Tables staged by :func:`export_text` during the currently running test,
#: keyed by destination path.  Flushed to ``results/`` only if that test
#: passes (see :func:`pytest_runtest_makereport`).
_pending_exports: Dict[Path, str] = {}


def export_text(name: str, text: str) -> Path:
    """Stage a regenerated table/figure for ``results/<name>.txt``.

    The write is deferred until the calling test *passes*: benchmarks export
    their report before their acceptance asserts run, and a run that fails an
    acceptance gate (or runs on a contended machine that trips one) must not
    overwrite the committed artifact with numbers the suite itself rejected.
    """
    path = RESULTS_DIR / f"{name}.txt"
    _pending_exports[path] = text + "\n"
    return path


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call":
        if report.passed:
            RESULTS_DIR.mkdir(parents=True, exist_ok=True)
            for path, text in _pending_exports.items():
                path.write_text(text)
        _pending_exports.clear()


@pytest.fixture(scope="session")
def scale() -> str:
    return BENCHMARK_SCALE

