"""The paper's primary contribution: the Sequence-Aware Factorization Machine.

Public API
----------
* :class:`~repro.core.config.SeqFMConfig` — hyper-parameters (d, l, n˙, ρ, ...)
  and the ablation switches used by Table V.
* :class:`~repro.core.model.SeqFM` — the multi-view self-attentive
  factorisation model (Eq. 3-19).
* :class:`~repro.core.tasks.SeqFMRanker`, :class:`~repro.core.tasks.SeqFMClassifier`,
  :class:`~repro.core.tasks.SeqFMRegressor` — task wrappers binding SeqFM to
  the BPR / log / squared-error losses of Section IV.
* :class:`~repro.core.trainer.Trainer` / :class:`~repro.core.trainer.TrainingResult`
  — the mini-batch Adam training loop shared by SeqFM and every baseline.

Section IV-D's hyper-parameter sensitivity sweeps are Figure 3's entries in
:data:`repro.experiments.registry.EXPERIMENTS`.
"""

from repro.core.config import SeqFMConfig
from repro.core.masks import causal_mask, cross_view_mask, padding_key_mask, NEG_INF
from repro.core.model import SeqFM
from repro.core.tasks import SeqFMRanker, SeqFMClassifier, SeqFMRegressor, make_task_model
from repro.core.trainer import Trainer, TrainerConfig, TrainingResult

__all__ = [
    "SeqFMConfig",
    "SeqFM",
    "causal_mask",
    "cross_view_mask",
    "padding_key_mask",
    "NEG_INF",
    "SeqFMRanker",
    "SeqFMClassifier",
    "SeqFMRegressor",
    "make_task_model",
    "Trainer",
    "TrainerConfig",
    "TrainingResult",
]
