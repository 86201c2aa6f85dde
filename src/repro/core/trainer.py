"""Mini-batch Adam training loop shared by SeqFM and every baseline.

The trainer implements the optimisation strategy of Section IV-D: Adam with
mini-batches, task-specific losses, negative sampling for the ranking and
classification tasks, and iteration until the loss converges (bounded by a
maximum epoch count).  Optional per-epoch validation with early stopping is
provided for the experiment harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.tasks import TaskModel
from repro.data.batching import BatchIterator
from repro.data.features import EncodedExample, FeatureBatch, FeatureEncoder
from repro.data.sampling import NegativeSampler
from repro.nn.optim import Adam


@dataclass
class TrainerConfig:
    """Knobs of the training loop.

    Attributes
    ----------
    epochs:
        Maximum number of passes over the training instances.
    batch_size:
        Mini-batch size (paper: 512; scaled-down default 128).
    learning_rate:
        Adam learning rate (paper: 1e-4 on the full-size datasets; the
        reproduction defaults to 5e-3 which converges within a few epochs on
        the scaled-down synthetic data).
    negatives_per_positive:
        Number of sampled negatives per positive training instance for the
        ranking / classification tasks (paper: 5).
    convergence_tolerance:
        Stop when the absolute relative change of the epoch loss falls below
        this.
    fused_negatives:
        Train through the fused fast path: positive and all sampled negatives
        collated into one ``batch*(1+k)``-row forward/backward pass per step
        (default).  Disable to fall back to one forward/backward pass per
        negative draw.  Both paths draw identical negatives and optimise the
        same objective; with dropout disabled their losses are equal up to
        summation order, while with dropout active they realise different
        (equally valid) dropout masks — the fused pass draws one mask per
        step where the looped pass redraws per forward.
    divergence_tolerance:
        Relative per-epoch loss *worsening* that counts as a divergence step.
        Deliberately percent-level — far above ``convergence_tolerance`` — so
        ordinary stochastic epoch-loss noise (fresh negative draws, reshuffled
        batches) near a plateau is never mistaken for divergence.
    divergence_patience:
        Stop (recording ``stop_reason='diverged'``) after this many
        *consecutive* epochs whose loss worsened by more than
        ``divergence_tolerance``.  ``0`` disables divergence stopping.
    seed:
        Seed controlling shuffling and negative sampling inside the loop.
    verbose:
        Print one line per epoch.
    """

    epochs: int = 10
    batch_size: int = 128
    learning_rate: float = 5e-3
    negatives_per_positive: int = 2
    convergence_tolerance: float = 1e-4
    fused_negatives: bool = True
    divergence_tolerance: float = 0.05
    divergence_patience: int = 3
    seed: int = 0
    verbose: bool = False


@dataclass
class TrainingResult:
    """What :meth:`Trainer.fit` returns.

    Attributes
    ----------
    epoch_losses:
        Mean training loss per epoch, in order.
    train_seconds:
        Wall-clock time spent inside the optimisation loop.
    epochs_run:
        Number of epochs actually executed (early convergence may stop sooner).
    validation_history:
        Metric dictionaries produced by the validation callback, one per epoch
        (empty when no callback was supplied).
    stop_reason:
        Why the loop ended: ``"converged"`` (relative loss change below the
        convergence tolerance), ``"diverged"`` (loss worsened beyond the
        divergence tolerance for ``divergence_patience`` consecutive epochs),
        ``"non_finite"`` (an epoch's loss was NaN or infinite; the loop stops
        at the first such epoch) or ``"max_epochs"``.
    """

    epoch_losses: List[float] = field(default_factory=list)
    train_seconds: float = 0.0
    epochs_run: int = 0
    validation_history: List[Dict[str, float]] = field(default_factory=list)
    stop_reason: str = "max_epochs"

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


class Trainer:
    """Task-aware training loop.

    Parameters
    ----------
    task_model:
        A :class:`~repro.core.tasks.TaskModel` wrapping SeqFM or a baseline.
    encoder:
        The feature encoder (needed to swap candidate objects when building
        negative batches).
    sampler:
        Negative sampler over the training log; required for the ranking and
        classification tasks, unused for regression.
    config:
        :class:`TrainerConfig` instance.
    """

    def __init__(
        self,
        task_model: TaskModel,
        encoder: FeatureEncoder,
        sampler: Optional[NegativeSampler] = None,
        config: Optional[TrainerConfig] = None,
    ):
        self.task_model = task_model
        self.encoder = encoder
        self.sampler = sampler
        self.config = config or TrainerConfig()
        if task_model.task in ("ranking", "classification") and sampler is None:
            raise ValueError(f"{task_model.task} training requires a negative sampler")
        self.optimizer = Adam(task_model.parameters(), lr=self.config.learning_rate)

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(
        self,
        train_examples: Sequence[EncodedExample],
        validation_callback: Optional[Callable[[TaskModel], Dict[str, float]]] = None,
    ) -> TrainingResult:
        """Run the optimisation loop and return its :class:`TrainingResult`."""
        if len(train_examples) == 0:
            raise ValueError("Trainer.fit received no training examples")
        iterator = BatchIterator(
            train_examples,
            batch_size=self.config.batch_size,
            shuffle=True,
            seed=self.config.seed,
        )
        self._initialise_output_bias(train_examples)
        result = TrainingResult()
        start_time = time.perf_counter()
        previous_loss = None
        divergence_streak = 0

        for epoch in range(self.config.epochs):
            self.task_model.train()
            epoch_loss = self._run_epoch(iterator)
            result.epoch_losses.append(epoch_loss)
            result.epochs_run = epoch + 1

            if validation_callback is not None:
                self.task_model.eval()
                result.validation_history.append(validation_callback(self.task_model))

            if self.config.verbose:
                print(f"epoch {epoch + 1}/{self.config.epochs}: loss={epoch_loss:.5f}")

            if not np.isfinite(epoch_loss):
                result.stop_reason = "non_finite"
                break
            if previous_loss is not None and previous_loss != 0:
                relative_improvement = (previous_loss - epoch_loss) / abs(previous_loss)
                if abs(relative_improvement) < self.config.convergence_tolerance:
                    result.stop_reason = "converged"
                    break
                if relative_improvement < -self.config.divergence_tolerance:
                    divergence_streak += 1
                    if (self.config.divergence_patience
                            and divergence_streak >= self.config.divergence_patience):
                        result.stop_reason = "diverged"
                        break
                else:
                    divergence_streak = 0
            previous_loss = epoch_loss

        result.train_seconds = time.perf_counter() - start_time
        self.task_model.eval()
        return result

    def _initialise_output_bias(self, train_examples: Sequence[EncodedExample]) -> None:
        """Warm-start the scorer's global bias at the mean training label.

        For the regression task the targets are centred far from zero (ratings
        live in [1, 5]); starting the global bias at the label mean removes the
        many optimisation steps every model would otherwise spend just learning
        the offset.  Applied identically to SeqFM and all baselines, so the
        comparison stays fair.
        """
        if self.task_model.task != "regression":
            return
        scorer = getattr(self.task_model, "scorer", None)
        bias = getattr(scorer, "global_bias", None)
        if bias is None:
            return
        labels = np.array([example.label for example in train_examples], dtype=np.float64)
        if labels.size:
            bias.data[...] = labels.mean()

    # ------------------------------------------------------------------ #
    # One epoch
    # ------------------------------------------------------------------ #
    def _run_epoch(self, iterator: BatchIterator) -> float:
        total_loss = 0.0
        total_batches = 0
        for batch in iterator:
            loss_value = self._train_step(batch)
            total_loss += loss_value
            total_batches += 1
        return total_loss / max(total_batches, 1)

    def _train_step(self, batch: FeatureBatch) -> float:
        task = self.task_model.task
        self.optimizer.zero_grad()

        if task == "regression":
            loss = self.task_model.loss(batch)
        else:
            loss = self._loss_with_negatives(batch, task)

        loss.backward()
        self.optimizer.step()
        return float(loss.item())

    def _loss_with_negatives(self, batch: FeatureBatch, task: str):
        """Average task loss over ``negatives_per_positive`` negative draws.

        The negatives are always drawn the same way (one :meth:`sample_batch`
        call per draw, so both paths consume the sampler's generator
        identically); what differs is the execution strategy:

        * **fused** (default) — all draws are collated with the positives into
          one ``batch*(1+k)``-row :class:`FeatureBatch` and pushed through a
          single forward/backward pass (:meth:`TaskModel.fused_loss`);
        * **looped** — one forward/backward per draw, averaged.

        With a deterministic forward (dropout off) both produce the same loss
        value up to floating-point summation order; with dropout they differ
        only in mask realisation (see :class:`TrainerConfig`).
        """
        num_draws = self.config.negatives_per_positive
        if num_draws < 1:
            raise ValueError("negatives_per_positive must be at least 1 for "
                             f"{task} training")
        if self.config.fused_negatives:
            negatives = np.stack([
                self.sampler.sample_batch(batch.user_ids, batch.object_ids)
                for _ in range(num_draws)
            ])
            fused = batch.with_candidates(self.encoder, negatives)
            return self.task_model.fused_loss(fused, len(batch), num_draws)

        losses = []
        for _ in range(num_draws):
            negative_objects = self.sampler.sample_batch(batch.user_ids, batch.object_ids)
            negative_batch = batch.with_candidate(self.encoder, negative_objects)
            losses.append(self.task_model.loss(batch, negative_batch))
        if len(losses) == 1:
            return losses[0]
        total = losses[0]
        for extra in losses[1:]:
            total = total + extra
        return total * (1.0 / len(losses))
