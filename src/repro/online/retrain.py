"""One retrain cycle, end to end: tail → train → gate → promote/reject.

:func:`retrain_once` is the orchestration the ``retrain`` CLI command wraps.
It is deliberately a pure function of its inputs plus the on-disk online
state (WAL, cursor, manifest): run it twice from the same cursor and the
second run reports ``no_new_events`` and mutates nothing — idempotency is
what makes crash-and-rerun safe.

``RETRAIN_STATUSES`` is the vocabulary a cycle may report; a
:class:`RetrainReport` with any other status raises at construction, so a new
outcome cannot ship without being declared.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.core.tasks import make_task_model
from repro.data.features import FeatureEncoder
from repro.data.interactions import InteractionLog
from repro.data.sampling import NegativeSampler
from repro.data.split import LeaveOneOutSplit
from repro.online.gate import EvalGate, GateConfig, GateVerdict
from repro.online.log_reader import (
    CURSOR_NAME,
    InteractionLogReader,
    LogCursor,
    base_histories_from_split,
    build_training_examples,
)
from repro.online.promotion import (
    MANIFEST_NAME,
    ModelLineage,
    PromotionPipeline,
)
from repro.online.trainer import (
    IncrementalTrainer,
    IncrementalTrainerConfig,
    mark_tail_seen,
)

PathLike = Union[str, Path]

#: Every outcome one retrain cycle may report; ``RetrainReport`` rejects any
#: other status.
RETRAIN_STATUSES = (
    "promoted",       # gate passed; checkpoint, registry, index and cursor updated
    "rejected",       # gate failed; manifest audit entry only
    "no_new_events",  # nothing to train on past the cursor; nothing mutated
    "dry_run",        # full cycle ran but no state of any kind was written
)


@dataclass(frozen=True)
class RetrainReport:
    """What one retrain cycle did, machine-readable (the CLI prints it)."""

    status: str
    model: str
    start_seq: int
    end_seq: int
    events: int = 0
    examples: int = 0
    examples_capped: int = 0
    dropped_users: int = 0
    dropped_events: int = 0
    compacted_gap: int = 0
    seeked: bool = False
    version: Optional[int] = None
    tag: Optional[str] = None
    verdict: Optional[GateVerdict] = field(default=None, repr=False)
    train_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.status not in RETRAIN_STATUSES:
            raise ValueError(f"retrain status {self.status!r} is not in "
                             f"RETRAIN_STATUSES {RETRAIN_STATUSES}")

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "model": self.model,
            "start_seq": int(self.start_seq),
            "end_seq": int(self.end_seq),
            "events": int(self.events),
            "examples": int(self.examples),
            "examples_capped": int(self.examples_capped),
            "dropped_users": int(self.dropped_users),
            "dropped_events": int(self.dropped_events),
            "compacted_gap": int(self.compacted_gap),
            "seeked": bool(self.seeked),
            "version": self.version,
            "tag": self.tag,
            "gate": self.verdict.as_dict() if self.verdict is not None else None,
            "train_seconds": float(self.train_seconds),
        }


def retrain_once(
    registry,
    name: str,
    *,
    wal_path: PathLike,
    online_dir: PathLike,
    encoder: FeatureEncoder,
    log: InteractionLog,
    split: LeaveOneOutSplit,
    task: str = "ranking",
    gate_config: Optional[GateConfig] = None,
    trainer_config: Optional[IncrementalTrainerConfig] = None,
    dry_run: bool = False,
    since_seq: Optional[int] = None,
) -> RetrainReport:
    """Run one incremental retrain of ``registry[name]`` off the WAL.

    ``online_dir`` holds all online-learning state: the cursor file, the
    version manifest and the ``<name>@vN.npz`` checkpoints.  ``since_seq``
    overrides the persisted cursor (a deliberate re-read; the cursor still
    only ever moves forward).  With ``dry_run`` the full tail/train/gate
    cycle runs and the verdict is reported, but registry, index, cursor and
    manifest are all left untouched.
    """
    online_dir = Path(online_dir)
    entry = registry.get(name)
    reader = InteractionLogReader(wal_path,
                                  cursor_path=online_dir / CURSOR_NAME)
    lineage = ModelLineage(online_dir, name=name)
    if entry.lineage is None:
        entry.lineage = lineage

    since = LogCursor(seq=int(since_seq)) if since_seq is not None else None
    tail = reader.tail(since=since)
    if not tail.interactions:
        return RetrainReport(
            status="no_new_events", model=name,
            start_seq=tail.start.seq, end_seq=tail.cursor.seq,
            compacted_gap=tail.compacted_gap, seeked=tail.seeked,
        )

    build = build_training_examples(
        tail.interactions, encoder,
        base_histories=base_histories_from_split(split, encoder))
    if not build.examples:
        # Every logged event fell outside the encoder's vocabulary — there
        # is nothing to fit, so the cycle ends exactly like an empty tail.
        return RetrainReport(
            status="no_new_events", model=name,
            start_seq=tail.start.seq, end_seq=tail.cursor.seq,
            events=tail.events_total,
            dropped_users=build.dropped_users,
            dropped_events=build.dropped_events,
            compacted_gap=tail.compacted_gap, seeked=tail.seeked,
        )

    trainer_config = (trainer_config if trainer_config is not None
                      else IncrementalTrainerConfig())
    sampler = NegativeSampler(log, seed=trainer_config.seed)
    mark_tail_seen(sampler, build.examples)
    trainer = IncrementalTrainer(encoder, sampler, task=task,
                                 config=trainer_config)
    started = time.perf_counter()
    result = trainer.fit_tail(entry.model, build.examples)
    train_seconds = time.perf_counter() - started

    gate = EvalGate(encoder, log, split, task, config=gate_config)
    verdict = gate.evaluate_candidate(
        make_task_model(entry.model, task), result.task_model)

    common = dict(
        model=name,
        start_seq=tail.start.seq, end_seq=tail.cursor.seq,
        events=tail.events_total,
        examples=result.examples_used,
        examples_capped=result.examples_capped,
        dropped_users=build.dropped_users,
        dropped_events=build.dropped_events,
        compacted_gap=tail.compacted_gap, seeked=tail.seeked,
        verdict=verdict, train_seconds=train_seconds,
    )
    if dry_run:
        return RetrainReport(status="dry_run", **common)

    pipeline = PromotionPipeline(registry, name, lineage, reader)
    if verdict.passed:
        version = pipeline.promote(result.task_model, verdict, tail,
                                   examples=result.examples_used)
        return RetrainReport(status="promoted", version=version.version,
                             tag=lineage.tag(version.version), **common)
    version = pipeline.reject(verdict, tail, examples=result.examples_used)
    return RetrainReport(status="rejected", version=version.version,
                         tag=lineage.tag(version.version), **common)


def inspect_online(directory: PathLike) -> dict:
    """Offline summary of an online-state directory (``status`` surface).

    Reads the cursor file and the version manifest without constructing a
    reader or a registry — safe to call against a directory another process
    is actively retraining into.
    """
    directory = Path(directory)
    payload: dict = {"directory": str(directory), "cursor": None,
                     "retrain": None}
    cursor_path = directory / CURSOR_NAME
    if cursor_path.exists():
        payload["cursor"] = LogCursor.from_dict(
            json.loads(cursor_path.read_text())).as_dict()
    if (directory / MANIFEST_NAME).exists():
        payload["retrain"] = ModelLineage(directory).status_payload()
    return payload
