"""The import layering of docs/ARCHITECTURE.md, enforced.

A serving, retrieval, online-learning or training process must import only
what it runs: no scipy, no executor machinery (``concurrent.futures``,
``multiprocessing``: serving is one loop), and neither of the leaf tiers
(``experiments``, ``baselines``) that nothing below them may depend on.  The
check is on the *set* of loaded modules in a fresh interpreter — never on
seconds, which depend on the machine.

The second half pins the dependency-free AUC: exact mid-ranks and the
pairwise definition of the statistic, on inputs with heavy ties.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.eval.classification import _average_ranks, auc_score

ENTRY_PACKAGES = ("repro.serving", "repro.retrieval", "repro.online", "repro.core.trainer")
FORBIDDEN_PREFIXES = ("scipy", "repro.experiments", "repro.baselines",
                      "concurrent.futures", "multiprocessing")


def _loaded_modules(*packages: str) -> list:
    code = (
        f"import {', '.join(packages)}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))},
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_entry_packages_load_no_leaf_tier_and_no_scipy():
    loaded = _loaded_modules(*ENTRY_PACKAGES)
    assert all(package in loaded for package in ENTRY_PACKAGES)
    offenders = [module for module in loaded if module.startswith(FORBIDDEN_PREFIXES)]
    assert offenders == [], (
        "import layering violated (docs/ARCHITECTURE.md, 'Import layering'): "
        f"{offenders[:10]}"
    )


def test_no_source_module_imports_scipy():
    """numpy is the only declared dependency (pyproject.toml)."""
    source_root = Path(repro.__file__).resolve().parent
    offenders = [str(path.relative_to(source_root))
                 for path in sorted(source_root.rglob("*.py"))
                 if "scipy" in path.read_text(encoding="utf-8")]
    assert offenders == []


# --------------------------------------------------------------------------- #
# AUC without scipy
# --------------------------------------------------------------------------- #
@st.composite
def tied_labelled_scores(draw):
    """Scores drawn from a handful of distinct values, so most pairs tie."""
    size = draw(st.integers(min_value=2, max_value=60))
    levels = draw(st.integers(min_value=1, max_value=5))
    scores = draw(st.lists(st.integers(0, levels - 1), min_size=size, max_size=size))
    labels = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    labels[0], labels[1] = 1, 0          # at least one of each class
    scale = draw(st.sampled_from([1.0, 1.0 / 3.0, 1e-9, 1e12]))
    return np.array(labels, dtype=np.float64), np.array(scores, dtype=np.float64) * scale


@settings(max_examples=200, deadline=None)
@given(tied_labelled_scores())
def test_auc_equals_pairwise_definition(case):
    """AUC = P(s⁺ > s⁻) + ½·P(s⁺ = s⁻) over all positive/negative pairs."""
    labels, scores = case
    positive, negative = scores[labels > 0.5], scores[labels <= 0.5]
    wins = (positive[:, None] > negative[None, :]).sum()
    ties = (positive[:, None] == negative[None, :]).sum()
    expected = (wins + 0.5 * ties) / (positive.size * negative.size)
    assert abs(auc_score(labels, scores) - expected) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(tied_labelled_scores())
def test_ranks_are_exact_mid_ranks(case):
    """rank(x) = #{y < x} + (#{y = x} + 1) / 2, exactly.

    Mid-ranks are half-integers, exactly representable, so any correct
    implementation returns the same floats and the rank-sum AUC built on them
    is unchanged to the last bit — which is why the committed
    ``results/table3_*.txt`` need no regeneration.
    """
    _, scores = case
    less = (scores[None, :] < scores[:, None]).sum(axis=1)
    equal = (scores[None, :] == scores[:, None]).sum(axis=1)
    np.testing.assert_array_equal(_average_ranks(scores), less + (equal + 1) / 2.0)
