"""Eval gate: a candidate model must not regress the held-out metrics.

Continuous learning without a gate is continuous forgetting: a retrain on a
biased slice of recent traffic can happily improve its own loss while
destroying the ranking quality the model was deployed for.  The gate scores
baseline and candidate with the **same** leave-one-out protocol the offline
experiments use (:class:`repro.eval.protocol.EvaluationProtocol`) and vetoes
promotion when any gated metric worsens by more than a configurable
tolerance.

Fairness is the subtle part: the ranking protocol samples negative
candidates, so two ``evaluate`` calls against a shared sampler would rank
baseline and candidate against *different* candidate sets and the comparison
would be noise.  :meth:`EvalGate.score` therefore builds a fresh, identically
seeded :class:`~repro.data.sampling.NegativeSampler` per call — both models
see byte-identical evaluation batches.

Metric direction is handled explicitly: HR@K / NDCG@K / AUC improve upwards,
RMSE / MAE / RRSE improve downwards; deltas are sign-adjusted so "positive
means better" everywhere in the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.tasks import TaskModel
from repro.data.features import FeatureEncoder
from repro.data.interactions import InteractionLog
from repro.data.sampling import NegativeSampler
from repro.data.split import LeaveOneOutSplit
from repro.eval.protocol import EvaluationProtocol

#: Metric-name prefixes where smaller is better; everything else is
#: higher-is-better (HR@K, NDCG@K, AUC).
LOWER_IS_BETTER = ("RMSE", "MAE", "RRSE")


@dataclass(frozen=True)
class GateConfig:
    """Knobs of the promotion gate.

    ``metrics`` restricts which keys are gated (empty: every metric both
    evaluations produced).  ``tolerance`` is the largest sign-adjusted
    regression a gated metric may show and still pass — 0.02 means "may lose
    up to two HR points"; a negative tolerance *demands improvement* of at
    least its magnitude, which also makes a deterministically failing gate
    easy to construct in tests.
    """

    metrics: Tuple[str, ...] = ()
    tolerance: float = 0.02
    use_validation: bool = True
    max_users: Optional[int] = None
    num_ranking_negatives: int = 50
    seed: int = 7


@dataclass(frozen=True)
class GateVerdict:
    """The gate's decision with the evidence that produced it."""

    passed: bool
    baseline: Dict[str, float]
    candidate: Dict[str, float]
    #: Sign-adjusted per-metric deltas: positive = candidate is better.
    deltas: Dict[str, float]
    tolerance: float
    reasons: Tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "tolerance": float(self.tolerance),
            "baseline": {key: float(value) for key, value in self.baseline.items()},
            "candidate": {key: float(value) for key, value in self.candidate.items()},
            "deltas": {key: float(value) for key, value in self.deltas.items()},
            "reasons": list(self.reasons),
        }


def _improves_downward(metric: str) -> bool:
    return any(metric.startswith(prefix) for prefix in LOWER_IS_BETTER)


class EvalGate:
    """Score candidates on a held-out slice and veto regressions.

    Parameters mirror the experiment harness: the fitted ``encoder``, the
    full interaction ``log`` (the sampler's seen-sets must cover held-out
    records so evaluation negatives are genuinely unseen), the leave-one-out
    ``split`` and the ``task`` whose metrics are gated.
    """

    def __init__(self, encoder: FeatureEncoder, log: InteractionLog,
                 split: LeaveOneOutSplit, task: str,
                 config: Optional[GateConfig] = None):
        self.encoder = encoder
        self.log = log
        self.split = split
        self.task = task
        self.config = config if config is not None else GateConfig()

    def score(self, model: TaskModel) -> Dict[str, float]:
        """Held-out metrics for one model, on a freshly seeded protocol.

        Every call re-seeds the sampler and the protocol, so consecutive
        calls (baseline, then candidate) rank against identical candidate
        sets — the numbers are comparable, not merely similar.
        """
        sampler = NegativeSampler(self.log, seed=self.config.seed)
        protocol = EvaluationProtocol(
            self.encoder,
            sampler=sampler,
            num_ranking_negatives=self.config.num_ranking_negatives,
            seed=self.config.seed,
        )
        return protocol.evaluate(
            model, self.split, self.task,
            use_validation=self.config.use_validation,
            max_users=self.config.max_users,
        )

    def judge(self, baseline: Dict[str, float],
              candidate: Dict[str, float]) -> GateVerdict:
        """Compare two metric dictionaries under the configured tolerance."""
        keys = (list(self.config.metrics) if self.config.metrics
                else sorted(key for key in baseline if key in candidate))
        missing = [key for key in keys
                   if key not in baseline or key not in candidate]
        if missing:
            raise KeyError(
                f"gated metrics {missing} absent from the evaluation output; "
                f"available: {sorted(baseline)}"
            )
        deltas: Dict[str, float] = {}
        reasons = []
        for key in keys:
            direction = -1.0 if _improves_downward(key) else 1.0
            delta = direction * (float(candidate[key]) - float(baseline[key]))
            deltas[key] = delta
            if not math.isfinite(float(candidate[key])):
                # NaN compares False against any tolerance: veto it by name
                reasons.append(f"{key} is not finite: {candidate[key]}")
            elif delta < -self.config.tolerance:
                reasons.append(
                    f"{key} regressed by {-delta:.4f} "
                    f"(tolerance {self.config.tolerance:.4f}): "
                    f"{baseline[key]:.4f} -> {candidate[key]:.4f}"
                )
        return GateVerdict(
            passed=not reasons,
            baseline=dict(baseline),
            candidate=dict(candidate),
            deltas=deltas,
            tolerance=self.config.tolerance,
            reasons=tuple(reasons),
        )

    def evaluate_candidate(self, baseline_model: TaskModel,
                           candidate_model: TaskModel) -> GateVerdict:
        """Score both models and judge the candidate in one step."""
        return self.judge(self.score(baseline_model),
                          self.score(candidate_model))
