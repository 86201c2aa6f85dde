"""Experiment harness: one registry entry per table and figure of the paper.

:data:`~repro.experiments.registry.EXPERIMENTS` maps each artefact name
(``table1`` … ``figure4``) to an :class:`~repro.experiments.registry.ExperimentSpec`
holding its default datasets, rows, metrics, the paper's numbers and its text
rendering; :func:`~repro.experiments.registry.run` regenerates it at a
``scale`` (``"quick"`` / ``"small"`` / ``"full"``)::

    result = run("table3", scale="quick")
    print(EXPERIMENTS["table3"].render(result))
"""

from repro.experiments.registry import EXPERIMENTS, ExperimentSpec, build_context, run
from repro.experiments import reference

__all__ = ["EXPERIMENTS", "ExperimentSpec", "build_context", "reference", "run"]
