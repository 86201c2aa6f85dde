"""Incremental training: warm-start from the serving weights, fit the tail.

A retrain never trains from scratch — it clones the currently-registered
model's weights into a fresh :class:`~repro.core.model.SeqFM` (the serving
copy is never touched; :meth:`~repro.nn.module.Module.state_dict` copies its
arrays) and runs a short pass of the shared :class:`~repro.core.trainer.
Trainer` over only the *new* log segment, through the same fused
negative-sampling fast path the offline harness uses.  The candidate either
earns promotion at the eval gate or is thrown away; the deployed model is
mutated exclusively by :meth:`ModelRegistry.load` during promotion.

The interaction log carries click events, so incremental training serves the
``ranking`` and ``classification`` tasks; regression has no online path
(ratings never travel through the update head) and is rejected loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.model import SeqFM
from repro.core.tasks import TaskModel, make_task_model
from repro.core.trainer import Trainer, TrainerConfig, TrainingResult
from repro.data.features import EncodedExample, FeatureEncoder
from repro.data.sampling import NegativeSampler


@dataclass(frozen=True)
class IncrementalTrainerConfig:
    """Knobs of one incremental pass.

    Deliberately smaller than the offline defaults: the tail is a fraction
    of the corpus and the weights already fit the base distribution, so a
    couple of gentle epochs is the working regime.  ``max_examples`` bounds
    a retrain that slept through a traffic spike — only the **newest** that
    many examples are kept (the older ones are closest to what the model
    already knows), and the cap is reported, never silent.
    """

    epochs: int = 2
    batch_size: int = 64
    learning_rate: float = 5e-3
    negatives_per_positive: int = 2
    max_examples: Optional[int] = None
    seed: int = 0


@dataclass
class IncrementalResult:
    """A trained candidate plus how it was fitted."""

    task_model: TaskModel
    training: TrainingResult
    examples_used: int
    #: Oldest examples dropped by the ``max_examples`` cap (0: none).
    examples_capped: int


class IncrementalTrainer:
    """Warm-start + short-fit factory for retrain candidates."""

    def __init__(self, encoder: FeatureEncoder, sampler: NegativeSampler,
                 task: str = "ranking",
                 config: Optional[IncrementalTrainerConfig] = None):
        if task not in ("ranking", "classification"):
            raise ValueError(
                f"no online training path for task {task!r}: the interaction "
                "log carries click events (ranking/classification only)"
            )
        self.encoder = encoder
        self.sampler = sampler
        self.task = task
        self.config = config if config is not None else IncrementalTrainerConfig()

    def warm_start(self, model: SeqFM) -> TaskModel:
        """A task-wrapped clone of ``model`` — same config, copied weights.

        The clone shares nothing mutable with the source: ``state_dict``
        copies every array, so training the candidate can never bleed into
        the model still serving traffic.
        """
        clone = SeqFM(model.config)
        clone.load_state_dict(model.state_dict())
        return make_task_model(clone, self.task)

    def train(self, candidate: TaskModel,
              examples: Sequence[EncodedExample]) -> IncrementalResult:
        """Fit ``candidate`` on the tail examples; returns the result bundle."""
        examples = list(examples)
        if not examples:
            raise ValueError("incremental training received no examples; "
                             "callers must skip empty tails")
        capped = 0
        cap = self.config.max_examples
        if cap is not None and len(examples) > cap:
            capped = len(examples) - cap
            examples = examples[-cap:]
        trainer = Trainer(
            candidate,
            self.encoder,
            sampler=self.sampler,
            config=TrainerConfig(
                epochs=self.config.epochs,
                batch_size=self.config.batch_size,
                learning_rate=self.config.learning_rate,
                negatives_per_positive=self.config.negatives_per_positive,
                seed=self.config.seed,
            ),
        )
        training = trainer.fit(examples)
        return IncrementalResult(task_model=candidate, training=training,
                                 examples_used=len(examples),
                                 examples_capped=capped)

    def fit_tail(self, model: SeqFM,
                 examples: Sequence[EncodedExample]) -> IncrementalResult:
        """Warm-start from ``model`` and train on ``examples`` in one step."""
        return self.train(self.warm_start(model), examples)


def mark_tail_seen(sampler: NegativeSampler,
                   examples: Sequence[EncodedExample]) -> int:
    """Teach a *training* sampler the tail's positives; returns how many.

    Without this, a logged click could be drawn as its own "negative".
    Only ever applied to the sampler used for training draws — the gate
    builds its own freshly seeded samplers so evaluation candidates stay
    comparable across retrains.
    """
    marked = 0
    for example in examples:
        sampler.mark_seen(int(example.user_id), int(example.object_id))
        marked += 1
    return marked
