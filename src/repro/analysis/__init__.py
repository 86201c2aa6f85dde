"""Repo-invariant static analysis for the SeqFM reproduction.

``python -m repro.analysis src`` (or ``make lint``) runs every registered
rule over the tree and fails on any finding that is neither suppressed
inline (``# repro: allow[rule-id]``) nor grandfathered in the committed
baseline (``analysis-baseline.txt``).  See :mod:`repro.analysis.core` for
the framework and the individual rule modules for what each one enforces:

* ``kernel-purity`` — :mod:`repro.analysis.kernel_purity`
* ``lock-discipline`` — :mod:`repro.analysis.lock_discipline`
* ``numerics-hygiene`` — :mod:`repro.analysis.numerics`
* ``protocol-completeness`` — :mod:`repro.analysis.protocol_completeness`
"""

from repro.analysis.core import (  # noqa: F401 — the public surface
    AnalysisReport,
    Finding,
    Module,
    Project,
    Rule,
    SYNTAX_ERROR_RULE,
    analyze,
    collect_files,
    load_baseline,
    render_baseline,
)
from repro.analysis.kernel_purity import KernelPurityRule  # noqa: F401
from repro.analysis.lock_discipline import LockDisciplineRule  # noqa: F401
from repro.analysis.numerics import NumericsHygieneRule  # noqa: F401
from repro.analysis.protocol_completeness import ProtocolCompletenessRule  # noqa: F401


def default_rules():
    """One instance of every registered rule, in stable id order."""
    rules = [
        KernelPurityRule(),
        LockDisciplineRule(),
        NumericsHygieneRule(),
        ProtocolCompletenessRule(),
    ]
    return sorted(rules, key=lambda rule: rule.rule_id)
