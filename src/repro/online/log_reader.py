"""Tail the serving WAL into training interactions (the log → gradient feed).

The write-ahead log of :mod:`repro.serving.durability` doubles as the durable
interaction log: every ``update``-head write lands as a ``record`` entry
carrying the user id and the raw event indices.  This module turns that log
into an *incremental* training feed:

* :class:`LogCursor` — the persisted read position (``seq`` consumed so far
  plus the byte offset it ended at), written atomically to ``cursor.json``
  so a retrain that crashes before promoting never loses or replays events;
* :class:`InteractionLogReader` — tails the WAL from the cursor through the
  :func:`repro.serving.durability.read_wal` fast path (the byte offset lets
  the scan skip everything already consumed; a compacted log falls back to a
  full scan transparently) and reports a :class:`LogTail` of
  :class:`LoggedInteraction` rows;
* :func:`build_training_examples` — converts logged interactions into the
  :class:`~repro.data.features.EncodedExample` instances the shared
  :class:`~repro.core.trainer.Trainer` consumes, replaying each user's
  events in order on top of their base (train-split) history so every click
  becomes one positive with exactly the history the model would have seen.

Events in the log are **dynamic-vocabulary indices** (the update head's wire
format): ``dyn = object_rank + 1`` with index 0 reserved for padding.  Rows
whose user or event fell outside the encoder's vocabulary are dropped and
counted, never guessed at.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.serialization import atomic_write_text
from repro.data.features import EncodedExample, FeatureEncoder, pad_sequences
from repro.serving.durability import SNAPSHOT_NAME, load_snapshot_doc, read_wal

PathLike = Union[str, Path]

#: File the reader checkpoints its position to (next to the manifest).
CURSOR_NAME = "cursor.json"

_CURSOR_FORMAT = 1


@dataclass(frozen=True)
class LogCursor:
    """A durable WAL read position: everything at or below ``seq`` is consumed.

    ``offset`` is the byte the consumed prefix ended at — the seek hint for
    the next tail (validated against the file before it is trusted, so a
    compaction between retrains merely costs a full rescan).
    """

    seq: int = 0
    offset: int = 0

    def as_dict(self) -> dict:
        return {"format": _CURSOR_FORMAT, "seq": int(self.seq),
                "offset": int(self.offset)}

    @staticmethod
    def from_dict(doc: Mapping) -> "LogCursor":
        if doc.get("format") != _CURSOR_FORMAT:
            raise ValueError(
                f"cursor format {doc.get('format')!r} is not readable by "
                f"this build (expected {_CURSOR_FORMAT})"
            )
        return LogCursor(seq=int(doc["seq"]), offset=int(doc["offset"]))


@dataclass(frozen=True)
class LoggedInteraction:
    """One ``record`` WAL entry: a user's logged event burst, in log order."""

    seq: int
    user_id: int
    #: Dynamic-vocabulary event indices, chronological within the entry.
    events: Tuple[int, ...]


@dataclass
class LogTail:
    """What one tail of the interaction log produced."""

    interactions: List[LoggedInteraction]
    #: The cursor this tail started from.
    start: LogCursor
    #: The cursor to persist once this tail is fully consumed (promotion).
    cursor: LogCursor
    #: Sequence numbers between the start cursor and the oldest surviving
    #: WAL record that were compacted into a snapshot — their events are no
    #: longer replayable as training data (0 when nothing was lost).
    compacted_gap: int = 0
    #: Non-``record`` journal entries in the tail (puts, touches, evictions).
    other_ops: int = 0
    #: Whether the byte-offset fast path was taken (no full log rescan).
    seeked: bool = False

    @property
    def events_total(self) -> int:
        return sum(len(interaction.events)
                   for interaction in self.interactions)


class InteractionLogReader:
    """Tail ``record`` entries out of a WAL from a persisted cursor.

    The reader is deliberately read-only with respect to the log: it never
    opens the WAL for writing, so it can run against a directory a serving
    process is still appending to (retrains see whatever the server has
    flushed).  The cursor file is the reader's only mutable state; it is
    written atomically and only moves forward.
    """

    def __init__(self, wal_path: PathLike,
                 cursor_path: Optional[PathLike] = None):
        self.wal_path = Path(wal_path)
        self.cursor_path = (Path(cursor_path) if cursor_path is not None
                            else self.wal_path.parent / CURSOR_NAME)
        self._cursor = self._load_cursor()

    def _load_cursor(self) -> LogCursor:
        if not self.cursor_path.exists():
            return LogCursor()
        return LogCursor.from_dict(json.loads(self.cursor_path.read_text()))

    @property
    def cursor(self) -> LogCursor:
        return self._cursor

    # ------------------------------------------------------------------ #
    # Tailing
    # ------------------------------------------------------------------ #
    def tail(self, since: Optional[LogCursor] = None) -> LogTail:
        """Read every ``record`` entry past ``since`` (default: the cursor).

        Does **not** advance the cursor — consumption is only durable once
        the work the tail fed succeeded (:meth:`advance` is the promotion
        pipeline's last step), so a crashed or gate-rejected retrain
        re-reads the same events.
        """
        start = since if since is not None else self.cursor
        scan = read_wal(self.wal_path, since_seq=start.seq,
                        start_offset=start.offset)
        interactions: List[LoggedInteraction] = []
        other_ops = 0
        for record in scan.records:
            if record.get("op") == "record":
                interactions.append(LoggedInteraction(
                    seq=int(record["seq"]),
                    user_id=int(record["user"]),
                    events=tuple(int(event) for event in record["events"]),
                ))
            else:
                other_ops += 1
        # Anything at or below the checkpoint snapshot's sequence was folded
        # into state and is gone as training data — including the case where
        # a clean shutdown compacted the *entire* log and no record survives
        # to betray the gap.
        compacted_gap = max(0, self._snapshot_seq() - start.seq)
        if scan.records and not scan.skipped and not scan.seeked:
            # The whole surviving log is newer than the cursor: anything
            # between the cursor and the log head was compacted away.
            first_seq = int(scan.records[0]["seq"])
            compacted_gap = max(compacted_gap, first_seq - start.seq - 1)
        end = LogCursor(seq=max(start.seq, scan.last_seq),
                        offset=scan.valid_bytes)
        return LogTail(interactions=interactions, start=start, cursor=end,
                       compacted_gap=compacted_gap, other_ops=other_ops,
                       seeked=scan.seeked)

    def _snapshot_seq(self) -> int:
        """Highest sequence a checkpoint snapshot has compacted, 0 if none.

        A snapshot this build cannot restore raises
        :class:`~repro.serving.durability.WALError` instead of reading as 0.
        """
        try:
            doc = load_snapshot_doc(self.wal_path.parent / SNAPSHOT_NAME)
        except (OSError, ValueError):
            return 0
        return int(doc.get("seq", 0)) if doc is not None else 0

    def advance(self, cursor: LogCursor) -> LogCursor:
        """Atomically persist ``cursor`` as the new read position.

        Refuses to move backwards — an older cursor would double-train the
        events in between, and idempotent retrains are the whole point.
        """
        if cursor.seq < self._cursor.seq:
            raise ValueError(
                f"cursor cannot move backwards (seq {self._cursor.seq} "
                f"-> {cursor.seq}); pass since_seq explicitly to re-read"
            )
        atomic_write_text(
            self.cursor_path,
            json.dumps(cursor.as_dict(), separators=(",", ":"),
                       sort_keys=True))
        self._cursor = cursor
        return cursor


# --------------------------------------------------------------------------- #
# Interaction → training-example conversion
# --------------------------------------------------------------------------- #
@dataclass
class ExampleBuild:
    """Converted training feed plus what had to be dropped to build it."""

    examples: List[EncodedExample] = field(default_factory=list)
    dropped_users: int = 0
    dropped_events: int = 0


def build_training_examples(
    interactions: Sequence[LoggedInteraction],
    encoder: FeatureEncoder,
    base_histories: Optional[Mapping[int, Sequence[int]]] = None,
) -> ExampleBuild:
    """One positive :class:`EncodedExample` per logged event.

    Events are replayed per user in log order on top of that user's
    ``base_histories`` entry (dynamic-vocabulary indices — typically the
    train-split history the deployed model was fitted on), so the i-th click
    trains against exactly the history the serving model saw when it was
    made.  Users unknown to the encoder and events outside the dynamic
    vocabulary are dropped and counted; the label is always 1.0 — negatives
    are the trainer's job (:meth:`NegativeSampler.sample_batch`).
    """
    base = base_histories or {}
    known_objects = encoder.known_objects()
    known_users = set(encoder.known_users())
    histories: Dict[int, List[int]] = {}
    build = ExampleBuild()
    for interaction in interactions:
        user_id = interaction.user_id
        if user_id not in known_users:
            build.dropped_users += 1
            continue
        history = histories.get(user_id)
        if history is None:
            history = list(base.get(user_id, ()))
            histories[user_id] = history
        user_index = int(encoder.static_user_index(user_id))
        for dyn in interaction.events:
            if not 1 <= dyn < encoder.dynamic_vocab_size:
                build.dropped_events += 1
                continue
            padded, mask = pad_sequences([history], encoder.max_seq_len)
            build.examples.append(EncodedExample(
                static_indices=np.array(
                    [user_index, encoder.num_users + (dyn - 1)],
                    dtype=np.int64),
                dynamic_indices=padded[0],
                dynamic_mask=mask[0],
                label=1.0,
                user_id=user_id,
                object_id=int(known_objects[dyn - 1]),
            ))
            history.append(int(dyn))
    return build


def base_histories_from_split(split, encoder: FeatureEncoder,
                              ) -> Dict[int, List[int]]:
    """Per-user dynamic-index histories out of a leave-one-out split.

    The bridge between the offline world (``split.history`` holds
    :class:`~repro.data.interactions.Interaction` objects) and the online
    one (the WAL speaks dynamic indices): the returned mapping is what
    :func:`build_training_examples` expects as ``base_histories``.
    """
    known_users = set(encoder.known_users())
    histories: Dict[int, List[int]] = {}
    for user_id, events in split.history.items():
        if user_id not in known_users:
            continue
        history: List[int] = []
        for event in events:
            try:
                history.append(int(encoder.dynamic_object_index(event.object_id)))
            except KeyError:
                continue
        histories[user_id] = history
    return histories
