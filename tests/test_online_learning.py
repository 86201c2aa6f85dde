"""Online-learning battery: WAL tailing, cursor, gate, promotion, full loop.

Proves the contract of :mod:`repro.online` end to end:

* ``read_wal``'s cursor arguments: ``since_seq`` filtering, the anchored
  byte-offset fast path, and the compaction-boundary regression — a cursor
  taken at (or past) a compaction point must fall back to a full scan and
  never lose or duplicate records;
* :class:`InteractionLogReader`: durable cursor round trips, forward-only
  advancement, tails that do not consume, compacted-gap detection;
* ``build_training_examples``: per-user history replay on top of the train
  split, vocabulary drops counted rather than guessed at;
* :class:`EvalGate`: sign-adjusted deltas, lower-is-better metrics,
  tolerance boundaries and deterministic scoring;
* :class:`IncrementalTrainer`: warm-start isolation (the serving weights
  never move during candidate training) and the newest-first example cap;
* :class:`ModelLineage` / :class:`PromotionPipeline`: manifest persistence,
  versioned checkpoints, hot-swap with index rebuild, rejection touching
  nothing;
* the full loop: recommend → click → retrain → recommend moves clicked
  items strictly up the ranking; a rerun from the same cursor is a no-op; a
  failing gate leaves registry, index and cursor untouched;
* the CLI surface: ``retrain --dry-run`` prints the verdict without mutating
  anything, ``train`` emits a parseable held-out-metrics block, ``status``
  folds in the online state;
* the log-to-gradient floor: a 100k-event log is tailed and converted at
  more than 20k events/s, and one capped retrain over it is promoted.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.model import SeqFM
from repro.core.tasks import make_task_model
from repro.core.trainer import Trainer
from repro.experiments.registry import build_context
from repro.online import (
    CURSOR_NAME,
    EvalGate,
    GateConfig,
    GateVerdict,
    IncrementalTrainer,
    IncrementalTrainerConfig,
    InteractionLogReader,
    LogCursor,
    LoggedInteraction,
    MANIFEST_NAME,
    ModelLineage,
    ModelVersion,
    PromotionPipeline,
    base_histories_from_split,
    build_training_examples,
    inspect_online,
    retrain_once,
)
from repro.serving import ModelRegistry
from repro.serving.durability import WAL_NAME, WriteAheadLog, read_wal


# --------------------------------------------------------------------------- #
# Shared context: one quick dataset + one short-trained model per module
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def ctx():
    return build_context("gowalla", "quick")


@pytest.fixture(scope="module")
def trained_state(ctx):
    """Config + state dict of a short-trained ranking model (copy per use)."""
    model = SeqFM(ctx.seqfm_config())
    task_model = make_task_model(model, ctx.task)
    Trainer(task_model, ctx.encoder, sampler=ctx.sampler,
            config=ctx.trainer_config(epochs=2)).fit(ctx.train_examples)
    return model.config, model.state_dict()


@pytest.fixture
def trained_model(trained_state):
    config, state = trained_state
    model = SeqFM(config)
    model.load_state_dict(state)
    return model


#: One registry dataset per task, for the gate's broken-candidate cases.
TASK_DATASETS = {"ranking": "gowalla", "classification": "trivago", "regression": "beauty"}


@pytest.fixture(scope="module", params=sorted(TASK_DATASETS))
def gated_baseline(request):
    """A 2-epoch quick SeqFM for one task, with an eval gate on its dataset."""
    context = build_context(TASK_DATASETS[request.param], "quick")
    model = SeqFM(context.seqfm_config())
    Trainer(make_task_model(model, context.task), context.encoder, sampler=context.sampler,
            config=context.trainer_config(epochs=2)).fit(context.train_examples)
    gate = EvalGate(context.encoder, context.log, context.split, context.task,
                    config=GateConfig(max_users=30))
    return gate, model


def make_wal(path, count, start=0):
    wal = WriteAheadLog(path)
    for i in range(count):
        wal.append({"op": "record", "user": 1 + (start + i) % 3,
                    "fp": [1, 2], "stamp": 0.0, "events": [1 + i % 4]})
    wal.sync()
    return wal


#: Appends ``2 * half`` records through a durable store, pausing after
#: ``half`` until a line arrives on stdin.  It exits without ``close()``,
#: which would checkpoint and compact the log away; ``fsync_every=1`` makes
#: every record durable when ``record`` returns.
CHILD_WRITER = """
import sys
from repro.serving import DurableSequenceStore
store = DurableSequenceStore(sys.argv[1], max_seq_len=8, fsync_every=1)
half = int(sys.argv[2])
for i in range(2 * half):
    if i == half:
        print("paused", flush=True)
        sys.stdin.readline()
    store.record(i % 5, [1 + i % 7])
"""


def interaction_rows(tail):
    return [(i.seq, i.user_id, i.events) for i in tail.interactions]


# --------------------------------------------------------------------------- #
# read_wal cursor arguments
# --------------------------------------------------------------------------- #
class TestReadWalCursor:
    def test_since_seq_filters_and_counts(self, tmp_path):
        wal = make_wal(tmp_path / WAL_NAME, 5)
        scan = read_wal(tmp_path / WAL_NAME, since_seq=2)
        assert [r["seq"] for r in scan.records] == [3, 4, 5]
        assert scan.skipped == 2 and not scan.seeked
        assert scan.last_seq == 5
        wal.close()

    def test_anchored_offset_takes_fast_path(self, tmp_path):
        wal = make_wal(tmp_path / WAL_NAME, 3)
        anchor = read_wal(tmp_path / WAL_NAME).valid_bytes
        for i in range(2):
            wal.append({"op": "record", "user": 1, "fp": [i], "stamp": 0.0,
                        "events": [1]})
        wal.sync()
        scan = read_wal(tmp_path / WAL_NAME, since_seq=3, start_offset=anchor)
        assert scan.seeked and scan.skipped == 0
        assert [r["seq"] for r in scan.records] == [4, 5]
        # fast path and full scan agree record for record
        full = read_wal(tmp_path / WAL_NAME, since_seq=3)
        assert full.records == scan.records and not full.seeked
        wal.close()

    def test_misaligned_offset_falls_back_to_full_scan(self, tmp_path):
        make_wal(tmp_path / WAL_NAME, 4).close()
        anchor = read_wal(tmp_path / WAL_NAME, since_seq=2).valid_bytes
        for bad in (1, anchor - 3, anchor + 10 ** 6):
            scan = read_wal(tmp_path / WAL_NAME, since_seq=2, start_offset=bad)
            assert not scan.seeked
            assert [r["seq"] for r in scan.records] == [3, 4]

    def test_offset_at_wrong_record_boundary_falls_back(self, tmp_path):
        """A real record boundary whose record is NOT since_seq must not be
        trusted — that is exactly the post-compaction aliasing hazard."""
        make_wal(tmp_path / WAL_NAME, 5).close()
        data = (tmp_path / WAL_NAME).read_bytes()
        # boundary after the SECOND record, claimed as the cursor of seq 3
        second_end = data.find(b"\n", data.find(b"\n") + 1) + 1
        scan = read_wal(tmp_path / WAL_NAME, since_seq=3,
                        start_offset=second_end)
        assert not scan.seeked
        assert [r["seq"] for r in scan.records] == [4, 5]
        assert scan.skipped == 3

    def test_cursor_at_compaction_point_survives(self, tmp_path):
        """Regression: compact() rewrites the file, so a byte offset taken
        before compaction is stale; the scan must fall back and return
        exactly the unconsumed records — none lost, none doubled."""
        wal = make_wal(tmp_path / WAL_NAME, 5)
        anchor = read_wal(tmp_path / WAL_NAME, since_seq=3).valid_bytes
        wal.compact(3)  # snapshot covers seq <= 3; file now holds 4, 5
        scan = read_wal(tmp_path / WAL_NAME, since_seq=3, start_offset=anchor)
        assert not scan.seeked and scan.skipped == 0
        assert [r["seq"] for r in scan.records] == [4, 5]
        wal.close()

    def test_cursor_past_compaction_point_still_filters(self, tmp_path):
        wal = make_wal(tmp_path / WAL_NAME, 6)
        stale = read_wal(tmp_path / WAL_NAME, since_seq=5).valid_bytes
        wal.compact(2)  # file now holds 3..6, re-encoded at new offsets
        scan = read_wal(tmp_path / WAL_NAME, since_seq=5, start_offset=stale)
        assert not scan.seeked
        assert [r["seq"] for r in scan.records] == [6]
        assert scan.skipped == 3  # 3, 4, 5 validated but already consumed
        wal.close()

    def test_fully_compacted_log_yields_empty_tail(self, tmp_path):
        wal = make_wal(tmp_path / WAL_NAME, 4)
        anchor = read_wal(tmp_path / WAL_NAME).valid_bytes
        wal.compact(4)
        scan = read_wal(tmp_path / WAL_NAME, since_seq=4, start_offset=anchor)
        assert scan.records == [] and not scan.seeked and scan.last_seq == 0
        wal.close()


# --------------------------------------------------------------------------- #
# InteractionLogReader: cursor + tailing
# --------------------------------------------------------------------------- #
class TestInteractionLogReader:
    def test_cursor_round_trips_through_disk(self, tmp_path):
        make_wal(tmp_path / WAL_NAME, 3).close()
        reader = InteractionLogReader(tmp_path / WAL_NAME)
        assert reader.cursor == LogCursor()
        tail = reader.tail()
        reader.advance(tail.cursor)
        reborn = InteractionLogReader(tmp_path / WAL_NAME)
        assert reborn.cursor == tail.cursor
        assert reborn.cursor.seq == 3

    def test_tail_does_not_advance_the_cursor(self, tmp_path):
        make_wal(tmp_path / WAL_NAME, 3).close()
        reader = InteractionLogReader(tmp_path / WAL_NAME)
        reader.tail()
        assert reader.cursor == LogCursor()
        assert not (tmp_path / CURSOR_NAME).exists()

    def test_advance_refuses_backwards(self, tmp_path):
        make_wal(tmp_path / WAL_NAME, 3).close()
        reader = InteractionLogReader(tmp_path / WAL_NAME)
        reader.advance(reader.tail().cursor)
        with pytest.raises(ValueError, match="backwards"):
            reader.advance(LogCursor(seq=1, offset=10))

    def test_second_tail_is_empty_and_seeked(self, tmp_path):
        wal = make_wal(tmp_path / WAL_NAME, 4)
        reader = InteractionLogReader(tmp_path / WAL_NAME)
        reader.advance(reader.tail().cursor)
        again = reader.tail()
        assert again.interactions == [] and again.seeked
        # new traffic resumes from the fast path
        wal.append({"op": "record", "user": 2, "fp": [9], "stamp": 0.0,
                    "events": [2, 3]})
        wal.sync()
        fresh = reader.tail()
        assert fresh.seeked and [i.seq for i in fresh.interactions] == [5]
        assert fresh.interactions[0].events == (2, 3)
        wal.close()

    def test_non_record_ops_are_counted_not_converted(self, tmp_path):
        wal = WriteAheadLog(tmp_path / WAL_NAME)
        wal.append({"op": "record", "user": 1, "fp": [1], "stamp": 0.0,
                    "events": [1]})
        wal.append({"op": "touch", "user": 1})
        wal.append({"op": "evict", "user": 1})
        wal.sync()
        tail = InteractionLogReader(tmp_path / WAL_NAME).tail()
        assert len(tail.interactions) == 1 and tail.other_ops == 2
        assert tail.cursor.seq == 3  # the cursor covers every op, not just records
        wal.close()

    def test_compacted_gap_is_reported(self, tmp_path):
        wal = make_wal(tmp_path / WAL_NAME, 5)
        wal.compact(4)  # events 3, 4 (seq > consumed 2) are gone for good
        reader = InteractionLogReader(tmp_path / WAL_NAME)
        reader.advance(LogCursor(seq=2, offset=0))
        tail = reader.tail()
        assert [i.seq for i in tail.interactions] == [5]
        assert tail.compacted_gap == 2
        wal.close()

    def test_clean_shutdown_compaction_reports_the_full_gap(self, tmp_path):
        """A durable server's clean close checkpoints + compacts: the clicks
        fold into snapshot.json and NO record survives in the journal.  The
        reader must still report how many events it can never train on."""
        from repro.serving import DurableSequenceStore

        store = DurableSequenceStore(tmp_path, max_seq_len=8)
        store.record(1, [2, 3])
        store.record(2, [4])
        store.close()  # the clean-shutdown path
        tail = InteractionLogReader(tmp_path / WAL_NAME).tail()
        assert tail.interactions == []
        assert tail.compacted_gap == 2
        # consuming past the snapshot silences the gap on the next tail
        reader = InteractionLogReader(tmp_path / WAL_NAME)
        reader.advance(LogCursor(seq=2, offset=0))
        assert reader.tail().compacted_gap == 0

    def test_custom_cursor_path(self, tmp_path):
        make_wal(tmp_path / WAL_NAME, 2).close()
        cursor_path = tmp_path / "elsewhere" / "cursor.json"
        cursor_path.parent.mkdir()
        reader = InteractionLogReader(tmp_path / WAL_NAME,
                                      cursor_path=cursor_path)
        reader.advance(reader.tail().cursor)
        assert cursor_path.exists()
        assert json.loads(cursor_path.read_text())["seq"] == 2

    def test_cursor_stays_monotone_across_reader_restarts(self, tmp_path):
        """Each restart resumes at the persisted cursor, tails exactly the
        records past it, and refuses every cursor behind it."""
        total = 12
        make_wal(tmp_path / WAL_NAME, total).close()
        data = (tmp_path / WAL_NAME).read_bytes()
        ends = [index + 1 for index, byte in enumerate(data) if byte == ord("\n")]
        cursors = [LogCursor(), *(LogCursor(seq=seq, offset=end)
                                  for seq, end in enumerate(ends, start=1))]
        for step, cursor in enumerate(cursors[1:], start=1):
            reader = InteractionLogReader(tmp_path / WAL_NAME)
            assert reader.cursor == cursors[step - 1]
            assert [i.seq for i in reader.tail().interactions] == \
                list(range(step, total + 1))
            persisted = (tmp_path / CURSOR_NAME).read_bytes() if step > 1 else None
            for behind in cursors[:step - 1]:
                with pytest.raises(ValueError, match="backwards"):
                    reader.advance(behind)
            if persisted is not None:
                assert (tmp_path / CURSOR_NAME).read_bytes() == persisted
            reader.advance(cursor)
        reborn = InteractionLogReader(tmp_path / WAL_NAME)
        assert reborn.cursor == cursors[-1]
        assert reborn.tail().interactions == []

    def test_tails_a_log_another_process_appends_to(self, tmp_path):
        """A child process appends through a durable store while this one
        tails the log: every tail is a prefix of the final log."""
        half = 150
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_WRITER, str(tmp_path), str(half)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))})
        reader = InteractionLogReader(tmp_path / WAL_NAME)
        full_tails, stream = [], []

        def tail_once() -> None:
            full_tails.append(interaction_rows(reader.tail(LogCursor())))
            step = reader.tail()
            stream.extend(interaction_rows(step))
            reader.advance(step.cursor)

        try:
            assert child.stdout.readline() == "paused\n"
            tail_once()   # the writer is paused after exactly `half` records
            assert len(full_tails[0]) == half
            child.stdin.write("go\n")
            child.stdin.flush()
            while child.poll() is None:
                tail_once()
        finally:
            if child.poll() is None:
                child.kill()
            child.wait(timeout=60)
        assert child.returncode == 0
        tail_once()
        log = [(int(record["seq"]), int(record["user"]), tuple(record["events"]))
               for record in read_wal(tmp_path / WAL_NAME).records]
        assert len(log) == 2 * half
        for tail in full_tails:
            assert tail == log[:len(tail)]
        assert full_tails[-1] == log
        assert stream == log

    def test_cursor_format_guard(self, tmp_path):
        (tmp_path / CURSOR_NAME).write_text(
            json.dumps({"format": 99, "seq": 1, "offset": 5}))
        with pytest.raises(ValueError, match="format"):
            InteractionLogReader(tmp_path / WAL_NAME)


# --------------------------------------------------------------------------- #
# Interaction → example conversion
# --------------------------------------------------------------------------- #
class TestBuildTrainingExamples:
    def test_examples_replay_history_in_order(self, ctx):
        user = int(ctx.encoder.known_users()[0])
        interactions = [LoggedInteraction(seq=1, user_id=user, events=(1, 2)),
                        LoggedInteraction(seq=2, user_id=user, events=(3,))]
        build = build_training_examples(interactions, ctx.encoder)
        assert len(build.examples) == 3
        assert build.dropped_users == 0 and build.dropped_events == 0
        first, second, third = build.examples
        # the i-th click trains against the history *before* it happened
        assert int(first.dynamic_mask.sum()) == 0
        assert int(second.dynamic_mask.sum()) == 1
        assert int(third.dynamic_mask.sum()) == 2
        # static layout: [user_index, num_users + (dyn - 1)]
        assert first.static_indices[0] == int(ctx.encoder.static_user_index(user))
        assert first.static_indices[1] == ctx.encoder.num_users + 0
        assert first.label == 1.0 and first.user_id == user
        assert first.object_id == int(ctx.encoder.known_objects()[0])

    def test_base_histories_seed_the_replay(self, ctx):
        user = int(ctx.encoder.known_users()[0])
        interactions = [LoggedInteraction(seq=1, user_id=user, events=(2,))]
        base = {user: [1, 3, 2]}
        build = build_training_examples(interactions, ctx.encoder,
                                        base_histories=base)
        example = build.examples[0]
        assert int(example.dynamic_mask.sum()) == 3
        assert list(example.dynamic_indices[-3:]) == [1, 3, 2]  # left-padded
        assert base[user] == [1, 3, 2]  # caller's history not mutated

    def test_unknown_users_and_events_are_dropped_and_counted(self, ctx):
        user = int(ctx.encoder.known_users()[0])
        vocab = ctx.encoder.dynamic_vocab_size
        interactions = [
            LoggedInteraction(seq=1, user_id=10 ** 9, events=(1,)),
            LoggedInteraction(seq=2, user_id=user, events=(0, vocab, 1)),
        ]
        build = build_training_examples(interactions, ctx.encoder)
        assert len(build.examples) == 1
        assert build.dropped_users == 1 and build.dropped_events == 2

    def test_base_histories_from_split_speak_dynamic_indices(self, ctx):
        histories = base_histories_from_split(ctx.split, ctx.encoder)
        assert histories  # quick scale always has active users
        user, history = next(iter(histories.items()))
        assert all(1 <= dyn < ctx.encoder.dynamic_vocab_size
                   for dyn in history)
        raw = [int(ctx.encoder.dynamic_object_index(event.object_id))
               for event in ctx.split.history[user]]
        assert history == raw


# --------------------------------------------------------------------------- #
# EvalGate
# --------------------------------------------------------------------------- #
class TestEvalGate:
    def make_gate(self, tolerance=0.02, metrics=()):
        # judge() needs no models, so a bare instance with config suffices
        return EvalGate(encoder=None, log=None, split=None, task="ranking",
                        config=GateConfig(tolerance=tolerance, metrics=metrics))

    def test_improvement_and_tolerated_slip_pass(self):
        gate = self.make_gate(tolerance=0.05)
        verdict = gate.judge({"HR@10": 0.50, "NDCG@10": 0.30},
                             {"HR@10": 0.46, "NDCG@10": 0.32})
        assert verdict.passed and verdict.reasons == ()
        assert verdict.deltas["HR@10"] == pytest.approx(-0.04)
        assert verdict.deltas["NDCG@10"] == pytest.approx(0.02)

    def test_regression_beyond_tolerance_fails_with_reason(self):
        gate = self.make_gate(tolerance=0.02)
        verdict = gate.judge({"HR@10": 0.50}, {"HR@10": 0.40})
        assert not verdict.passed
        assert "HR@10 regressed" in verdict.reasons[0]

    def test_lower_is_better_metrics_flip_direction(self):
        gate = self.make_gate(tolerance=0.02)
        better = gate.judge({"RMSE": 1.00}, {"RMSE": 0.90})
        worse = gate.judge({"RMSE": 1.00}, {"RMSE": 1.10})
        assert better.passed and better.deltas["RMSE"] == pytest.approx(0.1)
        assert not worse.passed

    def test_negative_tolerance_demands_improvement(self):
        gate = self.make_gate(tolerance=-0.05)
        assert not gate.judge({"HR@10": 0.5}, {"HR@10": 0.5}).passed
        assert gate.judge({"HR@10": 0.5}, {"HR@10": 0.60}).passed

    def test_gated_metric_subset_and_missing_key(self):
        gate = self.make_gate(metrics=("HR@10",))
        verdict = gate.judge({"HR@10": 0.5, "NDCG@10": 0.3},
                             {"HR@10": 0.5, "NDCG@10": 0.0})
        assert verdict.passed  # NDCG collapse is not gated
        with pytest.raises(KeyError, match="HR@10"):
            gate.judge({"NDCG@10": 0.3}, {"NDCG@10": 0.3})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_candidate_metric_is_vetoed_by_name(self, bad):
        """NaN compares False against the tolerance, so a diverged candidate
        used to pass; ``-inf`` RMSE would read as a huge improvement."""
        gate = self.make_gate(tolerance=0.02)
        verdict = gate.judge({"hr@10": 0.8, "auc": 0.9, "RMSE": 1.0},
                             {"hr@10": bad, "auc": 0.9, "RMSE": -bad})
        assert not verdict.passed
        assert [reason.split()[0] for reason in verdict.reasons] == ["RMSE", "hr@10"]
        assert all("not finite" in reason for reason in verdict.reasons)

    @pytest.mark.parametrize("fill", [np.nan, 0.0], ids=["all_nan", "all_zero"])
    def test_vetoes_a_diverged_or_collapsed_candidate(self, gated_baseline, fill):
        """A candidate whose every parameter is NaN, or 0, fails the gate
        with a reason on every task."""
        gate, model = gated_baseline
        broken = SeqFM(model.config)
        broken.load_state_dict({name: np.full_like(value, fill)
                                for name, value in model.state_dict().items()})
        verdict = gate.evaluate_candidate(make_task_model(model, gate.task),
                                          make_task_model(broken, gate.task))
        assert not verdict.passed
        assert verdict.reasons

    def test_score_is_deterministic_across_calls(self, ctx, trained_model):
        gate = EvalGate(ctx.encoder, ctx.log, ctx.split, ctx.task,
                        config=GateConfig(max_users=15))
        task_model = make_task_model(trained_model, ctx.task)
        assert gate.score(task_model) == gate.score(task_model)

    def test_verdict_round_trips_as_dict(self):
        verdict = self.make_gate().judge({"HR@10": 0.5}, {"HR@10": 0.4})
        doc = verdict.as_dict()
        assert doc["passed"] is False and doc["reasons"]
        assert json.loads(json.dumps(doc)) == doc


# --------------------------------------------------------------------------- #
# IncrementalTrainer
# --------------------------------------------------------------------------- #
class TestIncrementalTrainer:
    def test_warm_start_is_isolated_from_the_source(self, ctx, trained_model):
        trainer = IncrementalTrainer(ctx.encoder, ctx.sampler, task=ctx.task,
                                     config=IncrementalTrainerConfig(epochs=1))
        before = {k: v.copy() for k, v in trained_model.state_dict().items()}
        result = trainer.fit_tail(trained_model, ctx.train_examples[:40])
        after = trained_model.state_dict()
        for key, value in before.items():
            np.testing.assert_array_equal(value, after[key])
        # ... while the candidate actually moved
        candidate = result.task_model.scorer.state_dict()
        assert any(not np.array_equal(candidate[k], before[k]) for k in before)

    def test_max_examples_keeps_the_newest(self, ctx, trained_model):
        trainer = IncrementalTrainer(
            ctx.encoder, ctx.sampler, task=ctx.task,
            config=IncrementalTrainerConfig(epochs=1, max_examples=10))
        result = trainer.fit_tail(trained_model, ctx.train_examples[:25])
        assert result.examples_used == 10 and result.examples_capped == 15

    def test_empty_tail_is_rejected(self, ctx, trained_model):
        trainer = IncrementalTrainer(ctx.encoder, ctx.sampler, task=ctx.task)
        with pytest.raises(ValueError, match="no examples"):
            trainer.fit_tail(trained_model, [])

    def test_regression_has_no_online_path(self, ctx):
        with pytest.raises(ValueError, match="regression"):
            IncrementalTrainer(ctx.encoder, ctx.sampler, task="regression")


# --------------------------------------------------------------------------- #
# ModelLineage manifest
# --------------------------------------------------------------------------- #
def version(number, status="promoted", seq=5):
    return ModelVersion(version=number, status=status,
                        checkpoint=f"m@v{number}.npz" if status == "promoted"
                        else None,
                        cursor_seq=seq, parent=number - 1, gate={},
                        examples=3)


class TestModelLineage:
    def test_manifest_round_trips_through_disk(self, tmp_path):
        lineage = ModelLineage(tmp_path, name="m")
        lineage.record(version(1))
        lineage.record(version(2, status="rejected", seq=9))
        reborn = ModelLineage(tmp_path)
        assert reborn.name == "m"  # remembered by the manifest
        assert [v.version for v in reborn.versions] == [1, 2]
        assert reborn.active.version == 1  # rejected entries are not active
        assert reborn.next_version() == 3
        assert reborn.tag(3) == "m@v3"
        assert reborn.checkpoint_path(1).name == "m@v1.npz"

    def test_status_payload_counts(self, tmp_path):
        lineage = ModelLineage(tmp_path, name="m")
        assert lineage.status_payload()["active"] is None
        lineage.record(version(1))
        lineage.record(version(2, status="rejected"))
        payload = lineage.status_payload()
        assert payload["versions"] == 2 and payload["promoted"] == 1
        assert payload["rejected"] == 1 and payload["active"] == "m@v1"
        assert payload["last"]["status"] == "rejected"

    def test_undeclared_status_and_reused_version_are_rejected(self, tmp_path):
        lineage = ModelLineage(tmp_path, name="m")
        lineage.record(version(1))
        with pytest.raises(ValueError, match="MANIFEST_STATUSES"):
            lineage.record(ModelVersion(version=2, status="rolled-back",
                                        checkpoint=None, cursor_seq=0,
                                        parent=1, gate={}, examples=0))
        with pytest.raises(ValueError, match="already recorded"):
            lineage.record(version(1))


# --------------------------------------------------------------------------- #
# Promotion pipeline + status head surface
# --------------------------------------------------------------------------- #
def serving_setup(ctx, model, tmp_path, n_retrieve=None):
    """Registry with index + durable WAL + reader + lineage, ready to click."""
    registry = ModelRegistry()
    registry.register("m", model)
    catalog = range(ctx.encoder.num_users,
                    ctx.encoder.num_users + ctx.encoder.num_objects)
    registry.build_index("m", catalog,
                         n_retrieve=n_retrieve or ctx.encoder.num_objects)
    durable = registry.enable_durability("m", tmp_path / "state")
    wal_path = tmp_path / "state" / WAL_NAME
    online = tmp_path / "online"
    reader = InteractionLogReader(wal_path, cursor_path=online / CURSOR_NAME)
    lineage = ModelLineage(online, name="m")
    return registry, durable, wal_path, online, reader, lineage


class TestPromotionPipeline:
    def click(self, durable, ctx, events=(1, 2), users=3):
        for user in ctx.encoder.known_users()[:users]:
            durable.record(int(user), list(events))
        durable.sync()

    def passing_verdict(self):
        return GateVerdict(passed=True, baseline={"HR@10": 0.5},
                           candidate={"HR@10": 0.5}, deltas={"HR@10": 0.0},
                           tolerance=0.1, reasons=())

    def failing_verdict(self):
        return GateVerdict(passed=False, baseline={"HR@10": 0.5},
                           candidate={"HR@10": 0.1},
                           deltas={"HR@10": -0.4}, tolerance=0.1,
                           reasons=("HR@10 regressed by 0.4",))

    def test_promote_swaps_registry_index_and_cursor(self, ctx, trained_model,
                                                     tmp_path):
        registry, durable, _, online, reader, lineage = serving_setup(
            ctx, trained_model, tmp_path)
        self.click(durable, ctx)
        tail = reader.tail()
        trainer = IncrementalTrainer(ctx.encoder, ctx.sampler, task=ctx.task,
                                     config=IncrementalTrainerConfig(epochs=1))
        build = build_training_examples(tail.interactions, ctx.encoder)
        result = trainer.fit_tail(trained_model, build.examples)
        old_index = registry.get("m").index

        pipeline = PromotionPipeline(registry, "m", lineage, reader)
        promoted = pipeline.promote(result.task_model, self.passing_verdict(),
                                    tail, examples=result.examples_used)
        assert promoted.version == 1 and promoted.status == "promoted"
        entry = registry.get("m")
        # weights hot-swapped to the candidate's
        np.testing.assert_array_equal(
            entry.model.state_dict()["projection"],
            result.task_model.scorer.state_dict()["projection"])
        # index rebuilt from the new weights, not orphaned, not stale
        assert entry.index is not None and entry.index is not old_index
        assert entry.lineage is lineage
        assert reader.cursor == tail.cursor
        assert (online / MANIFEST_NAME).exists()
        assert lineage.checkpoint_path(1).exists()

    def test_reject_touches_only_the_manifest(self, ctx, trained_model,
                                              tmp_path):
        registry, durable, _, online, reader, lineage = serving_setup(
            ctx, trained_model, tmp_path)
        self.click(durable, ctx)
        tail = reader.tail()
        entry = registry.get("m")
        weights_before = entry.model.state_dict()["projection"].copy()
        index_before = entry.index

        pipeline = PromotionPipeline(registry, "m", lineage, reader)
        rejected = pipeline.reject(self.failing_verdict(), tail, examples=6)
        assert rejected.status == "rejected" and rejected.checkpoint is None
        np.testing.assert_array_equal(
            entry.model.state_dict()["projection"], weights_before)
        assert entry.index is index_before
        assert reader.cursor == LogCursor()  # cursor never moved
        assert not lineage.checkpoint_path(rejected.version).exists()
        assert ModelLineage(online).active is None

    def test_promote_refuses_a_non_finite_candidate(self, ctx, trained_model,
                                                    tmp_path):
        """Even under a passing verdict, the hot-swap refuses a NaN model:
        served weights, index, cursor and manifest stay as they were."""
        registry, durable, _, online, reader, lineage = serving_setup(
            ctx, trained_model, tmp_path)
        self.click(durable, ctx)
        tail = reader.tail()
        entry = registry.get("m")
        weights_before = entry.model.state_dict()["projection"].copy()
        index_before = entry.index
        candidate = SeqFM(trained_model.config)
        candidate.load_state_dict(trained_model.state_dict())
        candidate.projection.data[0] = np.nan

        pipeline = PromotionPipeline(registry, "m", lineage, reader)
        with pytest.raises(ValueError, match="'projection'"):
            pipeline.promote(make_task_model(candidate, ctx.task),
                             self.passing_verdict(), tail, examples=1)
        np.testing.assert_array_equal(
            entry.model.state_dict()["projection"], weights_before)
        assert entry.index is index_before
        assert reader.cursor == LogCursor()
        assert ModelLineage(online).active is None
        assert not lineage.checkpoint_path(1).exists()

    def test_promote_refuses_a_failed_verdict(self, ctx, trained_model,
                                              tmp_path):
        registry, durable, _, _, reader, lineage = serving_setup(
            ctx, trained_model, tmp_path)
        self.click(durable, ctx)
        tail = reader.tail()
        pipeline = PromotionPipeline(registry, "m", lineage, reader)
        with pytest.raises(ValueError, match="reject"):
            pipeline.promote(make_task_model(trained_model, ctx.task),
                             self.failing_verdict(), tail, examples=1)

    def test_status_head_serves_the_retrain_block(self, ctx, trained_model,
                                                  tmp_path):
        from repro.serving.protocol import ServingRouter

        registry, durable, _, _, reader, lineage = serving_setup(
            ctx, trained_model, tmp_path)
        lineage.record(version(1, seq=7))
        registry.get("m").lineage = lineage
        payload = ServingRouter(registry, default_model="m").status_payload()
        block = payload["models"]["m"]["retrain"]
        assert block["active"] == "m@v1" and block["cursor_seq"] == 7
        assert block["versions"] == 1


# --------------------------------------------------------------------------- #
# The full loop: recommend → click → retrain → recommend
# --------------------------------------------------------------------------- #
class TestFullLoop:
    def ranks(self, ctx, entry, users, targets, histories):
        """Full-catalog rank position (0 = best) of each user's target."""
        catalog = np.arange(ctx.encoder.num_users,
                            ctx.encoder.num_users + ctx.encoder.num_objects)
        positions = {}
        for user in users:
            profile = np.array([int(ctx.encoder.static_user_index(user)),
                                int(catalog[0])], dtype=np.int64)
            ids, _ = entry.engine.rank_topk(profile, catalog, len(catalog),
                                            histories[user])
            positions[user] = list(ids).index(targets[user])
        return positions

    def test_clicks_move_their_items_up_and_rerun_is_noop(self, ctx,
                                                          trained_model,
                                                          tmp_path):
        registry, durable, wal_path, online, reader, _ = serving_setup(
            ctx, trained_model, tmp_path)
        entry = registry.get("m")
        users = [int(u) for u in ctx.encoder.known_users()[:3]]
        histories = {u: base_histories_from_split(ctx.split, ctx.encoder)
                     .get(u, []) for u in users}

        # each user's target: the item the model currently ranks worst
        catalog = np.arange(ctx.encoder.num_users,
                            ctx.encoder.num_users + ctx.encoder.num_objects)
        targets = {}
        for user in users:
            profile = np.array([int(ctx.encoder.static_user_index(user)),
                                int(catalog[0])], dtype=np.int64)
            ids, _ = entry.engine.rank_topk(profile, catalog, len(catalog),
                                            histories[user])
            targets[user] = int(ids[-1])
        before = self.ranks(ctx, entry, users, targets, histories)

        # click each target repeatedly through the durable store (the same
        # journal the update head writes)
        for user in users:
            dyn = targets[user] - ctx.encoder.num_users + 1
            durable.record(user, [dyn] * 8)
        durable.sync()

        kwargs = dict(wal_path=wal_path, online_dir=online,
                      encoder=ctx.encoder, log=ctx.log, split=ctx.split,
                      task=ctx.task)
        report = retrain_once(
            registry, "m",
            gate_config=GateConfig(tolerance=5.0, max_users=15),
            trainer_config=IncrementalTrainerConfig(
                epochs=6, learning_rate=2e-2, batch_size=16),
            **kwargs)
        assert report.status == "promoted"
        assert report.events == 24 and report.examples == 24
        assert report.tag == "m@v1"

        after = self.ranks(ctx, entry, users, targets, histories)
        for user in users:
            assert after[user] < before[user], (
                f"user {user}: clicked item rank {before[user]} -> "
                f"{after[user]} did not improve")

        # idempotency: same cursor, nothing new → a no-op that mutates nothing
        cursor_doc = (online / CURSOR_NAME).read_text()
        manifest_doc = (online / MANIFEST_NAME).read_text()
        rerun = retrain_once(registry, "m",
                             gate_config=GateConfig(tolerance=5.0,
                                                    max_users=15), **kwargs)
        assert rerun.status == "no_new_events" and rerun.seeked
        assert (online / CURSOR_NAME).read_text() == cursor_doc
        assert (online / MANIFEST_NAME).read_text() == manifest_doc

        # a failing gate (negative tolerance demands impossible improvement)
        # audits the attempt and leaves registry, index and cursor untouched
        durable.record(users[0], [1])
        durable.sync()
        weights = entry.model.state_dict()["projection"].copy()
        index_obj = entry.index
        failed = retrain_once(
            registry, "m",
            gate_config=GateConfig(tolerance=-1.0, max_users=15),
            trainer_config=IncrementalTrainerConfig(epochs=1), **kwargs)
        assert failed.status == "rejected" and failed.verdict.reasons
        np.testing.assert_array_equal(
            entry.model.state_dict()["projection"], weights)
        assert entry.index is index_obj
        assert (online / CURSOR_NAME).read_text() == cursor_doc
        manifest = ModelLineage(online)
        assert [v.status for v in manifest.versions] == ["promoted",
                                                         "rejected"]
        assert manifest.active.version == 1

    def test_dry_run_reports_without_mutating(self, ctx, trained_model,
                                              tmp_path):
        registry, durable, wal_path, online, reader, _ = serving_setup(
            ctx, trained_model, tmp_path)
        for user in ctx.encoder.known_users()[:2]:
            durable.record(int(user), [1, 2])
        durable.sync()
        weights = registry.get("m").model.state_dict()["projection"].copy()
        report = retrain_once(
            registry, "m", wal_path=wal_path, online_dir=online,
            encoder=ctx.encoder, log=ctx.log, split=ctx.split, task=ctx.task,
            gate_config=GateConfig(tolerance=5.0, max_users=10),
            trainer_config=IncrementalTrainerConfig(epochs=1), dry_run=True)
        assert report.status == "dry_run"
        assert report.verdict is not None and report.examples == 4
        np.testing.assert_array_equal(
            registry.get("m").model.state_dict()["projection"], weights)
        assert not (online / CURSOR_NAME).exists()
        assert not (online / MANIFEST_NAME).exists()

    def test_no_new_events_short_circuits(self, ctx, trained_model, tmp_path):
        registry, durable, wal_path, online, *_ = serving_setup(
            ctx, trained_model, tmp_path)
        report = retrain_once(
            registry, "m", wal_path=wal_path, online_dir=online,
            encoder=ctx.encoder, log=ctx.log, split=ctx.split, task=ctx.task)
        assert report.status == "no_new_events" and report.examples == 0

    def test_inspect_online_reads_cursor_and_manifest(self, tmp_path):
        assert inspect_online(tmp_path) == {
            "directory": str(tmp_path), "cursor": None, "retrain": None}
        lineage = ModelLineage(tmp_path, name="m")
        lineage.record(version(1))
        InteractionLogReader(tmp_path / WAL_NAME,
                             cursor_path=tmp_path / CURSOR_NAME
                             ).advance(LogCursor(seq=5, offset=99))
        doc = inspect_online(tmp_path)
        assert doc["cursor"]["seq"] == 5
        assert doc["retrain"]["active"] == "m@v1"


# --------------------------------------------------------------------------- #
# CLI surface: train metrics block, retrain, retrain --dry-run, status
# --------------------------------------------------------------------------- #
class TestOnlineCLI:
    @pytest.fixture
    def checkpoint(self, trained_model, tmp_path):
        from repro.core.serialization import save_seqfm

        path = tmp_path / "model.npz"
        save_seqfm(trained_model, path)
        return path

    @pytest.fixture
    def wal_dir(self, ctx, tmp_path):
        directory = tmp_path / "state"
        directory.mkdir()
        wal = WriteAheadLog(directory / WAL_NAME)
        for i, user in enumerate(ctx.encoder.known_users()[:3]):
            wal.append({"op": "record", "user": int(user), "fp": [0],
                        "stamp": float(i), "events": [1 + i, 2 + i]})
        wal.sync()
        wal.close()
        return directory

    def retrain_args(self, checkpoint, wal_dir, *extra):
        return ["retrain", "--dataset", "gowalla", "--scale", "quick",
                "--checkpoint", str(checkpoint), "--wal", str(wal_dir),
                "--gate-tolerance", "5.0", "--epochs", "1",
                *extra]

    def report_from(self, out):
        return json.loads(out.split("== retrain report ==", 1)[1])

    def test_train_prints_parseable_heldout_metrics(self, tmp_path, capsys):
        from repro.experiments.cli import main

        exit_code = main(["train", "--dataset", "gowalla", "--scale", "quick",
                          "--checkpoint", str(tmp_path / "m.npz"),
                          "--epochs", "1"])
        assert exit_code == 0
        out = capsys.readouterr().out
        block = out.split("== held-out metrics ==", 1)[1].split("wrote", 1)[0]
        metrics = json.loads(block)
        assert set(metrics) >= {"HR@10", "NDCG@10"}
        assert all(isinstance(v, float) for v in metrics.values())

    def test_retrain_dry_run_prints_verdict_and_mutates_nothing(
            self, checkpoint, wal_dir, capsys):
        from repro.experiments.cli import main

        exit_code = main(self.retrain_args(checkpoint, wal_dir, "--dry-run"))
        assert exit_code == 0
        report = self.report_from(capsys.readouterr().out)
        assert report["status"] == "dry_run"
        assert report["gate"]["passed"] is True
        assert report["events"] == 6
        # nothing written: no online dir, no cursor, no manifest, no version
        assert not (wal_dir / "online").exists()

    def test_retrain_promotes_then_reruns_as_noop(self, checkpoint, wal_dir,
                                                  capsys):
        from repro.experiments.cli import main

        assert main(self.retrain_args(checkpoint, wal_dir)) == 0
        report = self.report_from(capsys.readouterr().out)
        assert report["status"] == "promoted" and report["tag"] == "default@v1"
        online = wal_dir / "online"
        assert (online / CURSOR_NAME).exists()
        assert (online / MANIFEST_NAME).exists()
        assert (online / "default@v1.npz").exists()

        # second invocation warm-starts from the promoted checkpoint and
        # finds nothing new behind the cursor
        assert main(self.retrain_args(checkpoint, wal_dir)) == 0
        captured = capsys.readouterr()
        rerun = self.report_from(captured.out)
        assert rerun["status"] == "no_new_events" and rerun["seeked"]
        assert "warm-starting from promoted default@v1" in captured.err

    def test_retrain_failing_gate_exits_2_and_writes_no_checkpoint(
            self, checkpoint, wal_dir, capsys):
        from repro.experiments.cli import main

        exit_code = main(["retrain", "--dataset", "gowalla", "--scale",
                          "quick", "--checkpoint", str(checkpoint),
                          "--wal", str(wal_dir),
                          "--gate-tolerance", "-5.0", "--epochs", "1"])
        assert exit_code == 2
        report = self.report_from(capsys.readouterr().out)
        assert report["status"] == "rejected" and report["gate"]["reasons"]
        online = wal_dir / "online"
        assert not (online / CURSOR_NAME).exists()  # cursor never advanced
        assert not any(online.glob("*.npz"))
        assert ModelLineage(online).active is None  # audit entry only

    def test_retrain_exits_2_on_unreadable_snapshot(self, checkpoint, wal_dir,
                                                    capsys):
        from repro.experiments.cli import main

        (wal_dir / "snapshot.json").write_text(
            json.dumps({"format": 99, "kind": "single", "seq": 1, "state": {}}))
        assert main(self.retrain_args(checkpoint, wal_dir)) == 2
        assert "error: cannot recover WAL state" in capsys.readouterr().err
        assert not (wal_dir / "online" / CURSOR_NAME).exists()

    def test_status_reports_the_online_block(self, checkpoint, wal_dir,
                                             capsys):
        from repro.experiments.cli import main

        assert main(self.retrain_args(checkpoint, wal_dir)) == 0
        capsys.readouterr()
        assert main(["status", "--wal", str(wal_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        online = payload["online"]
        assert online["retrain"]["active"] == "default@v1"
        assert online["cursor"]["seq"] == 3


# --------------------------------------------------------------------------- #
# The log-to-gradient floor at 100k logged events
# --------------------------------------------------------------------------- #
NUM_RECORDS = 25_000
EVENTS_PER_RECORD = 4          # NUM_RECORDS * EVENTS_PER_RECORD = 100k events
MAX_EXAMPLES = 2_000           # newest-first trainer cap (steady-state cycle)
GATE_USERS = 30                # held-out users scored per gate side
MIN_EVENTS_PER_SECOND = 20_000.0


def test_log_to_gradient_floor_and_retrain_at_100k_events(tmp_path):
    """Tailing the serving journal must be cheap next to serving itself.

    A WAL of 100,000 logged click events (25k ``record`` entries × 4 events,
    the shape ``DurableSequenceStore`` journals for the update head) goes
    from CRC-framed journal bytes to padded training rows —
    :meth:`InteractionLogReader.tail` plus :func:`build_training_examples` —
    at more than 20k events/s, or the tail could not keep up with the
    durable store's own write path.  One ``retrain_once`` cycle over the
    same log, capped at the newest 2,000 examples, must then end promoted
    with the cursor parked at the final sequence number.
    """
    context = build_context("gowalla", "quick")
    encoder = context.encoder
    users = [int(user) for user in encoder.known_users()]
    vocab = encoder.dynamic_vocab_size

    wal_path = tmp_path / WAL_NAME
    wal = WriteAheadLog(wal_path)
    for index in range(NUM_RECORDS):
        events = [1 + (index * EVENTS_PER_RECORD + step) % (vocab - 1)
                  for step in range(EVENTS_PER_RECORD)]
        wal.append({"op": "record", "user": users[index % len(users)],
                    "fp": [0], "stamp": float(index), "events": events})
    wal.sync()
    wal.close()
    total_events = NUM_RECORDS * EVENTS_PER_RECORD

    reader = InteractionLogReader(wal_path,
                                  cursor_path=tmp_path / "probe-cursor.json")
    started = time.perf_counter()
    tail = reader.tail()
    build = build_training_examples(tail.interactions, encoder)
    convert_seconds = time.perf_counter() - started
    assert tail.events_total == total_events
    assert len(build.examples) == total_events
    events_per_second = total_events / convert_seconds
    assert events_per_second > MIN_EVENTS_PER_SECOND, (
        f"log-to-gradient {events_per_second:,.0f} events/s is below the "
        f"{MIN_EVENTS_PER_SECOND:,.0f} floor")

    model = SeqFM(context.seqfm_config())
    Trainer(make_task_model(model, context.task), encoder,
            sampler=context.sampler,
            config=context.trainer_config(epochs=1)).fit(
                context.train_examples)
    registry = ModelRegistry()
    registry.register("m", model)
    registry.build_index("m", range(encoder.num_users,
                                    encoder.num_users + encoder.num_objects))
    report = retrain_once(
        registry, "m", wal_path=wal_path, online_dir=tmp_path / "online",
        encoder=encoder, log=context.log, split=context.split,
        task=context.task,
        gate_config=GateConfig(tolerance=5.0, max_users=GATE_USERS),
        trainer_config=IncrementalTrainerConfig(
            epochs=1, max_examples=MAX_EXAMPLES))
    assert report.status == "promoted"
    assert report.events == total_events
    assert report.examples == MAX_EXAMPLES
    assert report.examples_capped == total_events - MAX_EXAMPLES
    assert report.end_seq == NUM_RECORDS
