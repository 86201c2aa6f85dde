"""Repo-invariant static analysis for the SeqFM reproduction.

``python -m repro.analysis src`` (or ``make lint``) runs every registered
rule over the tree and fails on any finding not suppressed inline
(``# repro: allow[rule-id]``).  See :mod:`repro.analysis.core` for the
framework and the individual rule modules for what each one enforces:

* ``kernel-purity`` — :mod:`repro.analysis.kernel_purity`
* ``lock-discipline`` — :mod:`repro.analysis.lock_discipline`
* ``numerics-hygiene`` — :mod:`repro.analysis.numerics`

The serving protocol's registries (heads, error codes, CLI routes, WAL ops,
status vocabularies) are checked at run time against the live objects, by
``tests/test_protocol_registries.py``, not by a rule here.
"""

from repro.analysis.core import (  # noqa: F401 — the public surface
    AnalysisReport,
    Finding,
    Module,
    Rule,
    SYNTAX_ERROR_RULE,
    analyze,
    collect_files,
)
from repro.analysis.kernel_purity import KernelPurityRule  # noqa: F401
from repro.analysis.lock_discipline import LockDisciplineRule  # noqa: F401
from repro.analysis.numerics import NumericsHygieneRule  # noqa: F401


def default_rules():
    """One instance of every registered rule, in stable id order."""
    rules = [
        KernelPurityRule(),
        LockDisciplineRule(),
        NumericsHygieneRule(),
    ]
    return sorted(rules, key=lambda rule: rule.rule_id)
