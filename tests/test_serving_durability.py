"""Durability battery: WAL framing, crash recovery, atomic writes, fault sites.

Proves the contract of :mod:`repro.serving.durability`:

* the write-ahead log's framing survives round trips, heals a torn tail by
  truncation, and refuses (``WALCorruptionError``) mid-file corruption;
* a :class:`DurableSequenceStore` killed at **every WAL append boundary**
  recovers byte-identically (``snapshot()`` equality) to the state after the
  operation that owned the final surviving record — the hypothesis property
  test drives a random op tape through every truncation point;
* on-disk writers (:func:`repro.core.serialization.atomic_write`) leave the
  previous file intact when the write dies mid-flight;
* the seeded :class:`~repro.serving.faults.FaultInjector` replays the same
  schedule from the same seed, and the store/WAL fault sites fire *before*
  mutation, so a failed operation leaves durable state untouched and a
  reopen recovers cleanly;
* on-disk state this build cannot restore — an unknown snapshot format, a
  sharded store's snapshot or journal — fails loudly, in the library and at
  every CLI entry point (exit code 2, never a traceback).
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SeqFMConfig
from repro.core.model import SeqFM
from repro.core.serialization import atomic_write, atomic_write_text, save_seqfm
from repro.experiments.cli import main
from repro.serving.durability import (
    WAL_OPS,
    DurableSequenceStore,
    WALCorruptionError,
    WALError,
    WriteAheadLog,
    _encode_line,
    inspect_durability,
    read_wal,
)
from repro.serving.faults import FaultInjector, InjectedFault

MAX_SEQ_LEN = 6

SETTINGS = settings(max_examples=20, deadline=None)


def make_record(seq: int, op: str = "record", user: int = 1) -> dict:
    assert op in WAL_OPS
    return {"seq": seq, "op": op, "user": user, "fp": [1, 2, 3],
            "stamp": 0.0, "events": [1, 2, 3]}


# --------------------------------------------------------------------------- #
# WAL framing
# --------------------------------------------------------------------------- #
class TestWriteAheadLog:
    def test_append_read_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl", fsync_every=2)
        for seq in range(1, 6):
            wal.append(make_record(seq))
        wal.sync()
        scan = read_wal(tmp_path / "wal.jsonl")
        assert [r["seq"] for r in scan.records] == [1, 2, 3, 4, 5]
        assert scan.last_seq == 5 and not scan.torn
        wal.close()

    def test_log_owns_sequencing(self, tmp_path):
        """A caller-supplied 'seq' can never override the assigned one."""
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        assert wal.append({"op": "record", "seq": 999}) == 1
        assert wal.append({"op": "record", "seq": 1}) == 2
        wal.sync()
        scan = read_wal(tmp_path / "wal.jsonl")
        assert [r["seq"] for r in scan.records] == [1, 2]
        wal.close()

    def test_non_increasing_seq_on_disk_is_corruption(self, tmp_path):
        """Seq going backwards mid-file (valid records follow) is corruption,
        not a crash tail, and must refuse rather than silently replay."""
        path = tmp_path / "wal.jsonl"
        path.write_bytes(_encode_line({"seq": 2, "op": "record"})
                         + _encode_line({"seq": 1, "op": "record"})
                         + _encode_line({"seq": 3, "op": "record"}))
        with pytest.raises(WALCorruptionError):
            read_wal(path)

    def test_torn_tail_is_healed_at_every_byte(self, tmp_path):
        """A partial final line (any cut point) is detected and dropped."""
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        for seq in (1, 2, 3):
            wal.append(make_record(seq))
        wal.close()
        data = path.read_bytes()
        last_line_start = data[:-1].rfind(b"\n") + 1
        for cut in range(last_line_start + 1, len(data)):
            torn_path = tmp_path / "torn.jsonl"
            torn_path.write_bytes(data[:cut])
            scan = read_wal(torn_path)
            assert scan.torn
            assert [r["seq"] for r in scan.records] == [1, 2]
            assert scan.valid_bytes == last_line_start

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        for seq in (1, 2, 3):
            wal.append(make_record(seq))
        wal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        # Flip a byte inside record 2: a valid record follows, so this is
        # corruption, not a crash tail.
        bad = lines[1][:5] + b"X" + lines[1][6:]
        path.write_bytes(lines[0] + bad + lines[2])
        with pytest.raises(WALCorruptionError):
            read_wal(path)

    def test_compaction_drops_checkpointed_prefix(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        for seq in range(1, 8):
            wal.append(make_record(seq))
        wal.compact(5)
        scan = read_wal(path)
        assert [r["seq"] for r in scan.records] == [6, 7]
        wal.append(make_record(8))
        wal.close()
        assert [r["seq"] for r in read_wal(path).records] == [6, 7, 8]

    def test_fsync_batching_counters(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl", fsync_every=3)
        for seq in range(1, 7):
            wal.append(make_record(seq))
        status = wal.status()
        assert status["appends"] == 6
        assert status["fsyncs"] == 2          # at appends 3 and 6
        assert status["synced_seq"] == 6 and status["lag"] == 0
        wal.append(make_record(7))
        assert wal.status()["lag"] == 1
        wal.close()

    def test_torn_write_injection_is_fail_stop(self, tmp_path):
        injector = FaultInjector(seed=3)
        injector.arm("wal.torn", kind="torn", after=1, times=1)
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, injector=injector)
        wal.append(make_record(1))
        with pytest.raises(Exception):
            wal.append(make_record(2))
        assert wal.status()["broken"]
        with pytest.raises(Exception):
            wal.append(make_record(3))   # broken log refuses further appends
        wal.close()
        scan = read_wal(path)            # the torn tail heals on read
        assert scan.torn and [r["seq"] for r in scan.records] == [1]


# --------------------------------------------------------------------------- #
# Crash recovery: every append boundary (the hypothesis property test)
# --------------------------------------------------------------------------- #
OPS = st.lists(
    st.tuples(
        st.sampled_from(["record", "append", "encode", "invalidate", "clear"]),
        st.integers(min_value=0, max_value=5),                    # user id
        st.lists(st.integers(min_value=0, max_value=9),           # events
                 min_size=1, max_size=4),
    ),
    min_size=1, max_size=12,
)


def apply_op(store, op) -> None:
    kind, user, events = op
    if kind == "record":
        store.record(user, events)
    elif kind == "append":
        store.append_event(user, events[0])
    elif kind == "encode":
        store.encode(user, events)
    elif kind == "invalidate":
        store.invalidate(user)
    else:
        store.clear()


def truncate_wal_copy(source: Path, dest: Path, keep_records: int) -> None:
    """Copy a durability directory, keeping only the first WAL records."""
    shutil.copytree(source, dest)
    wal_path = dest / "wal.jsonl"
    lines = wal_path.read_bytes().splitlines(keepends=True)
    wal_path.write_bytes(b"".join(lines[:keep_records]))


class TestCrashRecovery:
    @SETTINGS
    @given(ops=OPS)
    def test_replay_is_byte_identical_at_every_append_boundary(
            self, tmp_path_factory, ops):
        """Kill the store after every WAL append; replay must reconverge.

        For a crash at an op boundary the recovered ``snapshot()`` must be
        byte-identical to the live pre-crash one.  For a crash *inside* a
        multi-record op (put+evict) write-ahead semantics
        promise prefix-consistency instead: replaying the surviving prefix
        and then the op's remaining records lands exactly on the post-op
        state — no record is lost, none applies twice.
        """
        base = tmp_path_factory.mktemp("wal")
        live = base / "live"
        store = DurableSequenceStore(live, MAX_SEQ_LEN, capacity=3,
                                     fsync_every=1)
        boundaries = []   # (WAL high-water mark, pre-crash snapshot) per op
        for op in ops:
            apply_op(store, op)
            boundaries.append((store.wal_status()["last_seq"],
                               store.snapshot()))
        store._wal.sync()
        all_records = read_wal(live / "wal.jsonl").records

        expected_by_record = {}   # record count -> (op last_seq, op snapshot)
        previous = 0
        for last_seq, snap in boundaries:
            for record_count in range(previous + 1, last_seq + 1):
                expected_by_record[record_count] = (last_seq, snap)
            previous = max(previous, last_seq)

        for record_count, (op_last, expected) in expected_by_record.items():
            crashed = base / f"crash{record_count}"
            truncate_wal_copy(live, crashed, record_count)
            recovered = DurableSequenceStore(crashed, MAX_SEQ_LEN, capacity=3,
                                             fsync_every=1)
            assert recovered.recovery.replayed == record_count
            for record in all_records:   # complete the op that was cut
                if record_count < int(record["seq"]) <= op_last:
                    recovered._store.apply_journal(record)
            assert recovered.snapshot() == expected, (
                f"replay after {record_count} records diverged")
            recovered.close()
        store.close()

    def test_recovery_after_checkpoint_and_more_traffic(self, tmp_path):
        store = DurableSequenceStore(tmp_path, MAX_SEQ_LEN, capacity=8)
        for user in range(5):
            store.record(user, [user, user + 1])
        store.checkpoint()
        store.record(7, [1, 2, 3])
        store.invalidate(0)
        expected = store.snapshot()
        store._wal.sync()

        recovered = DurableSequenceStore(tmp_path, MAX_SEQ_LEN, capacity=8)
        assert recovered.snapshot() == expected
        assert recovered.recovery.snapshot_seq > 0
        assert recovered.recovery.replayed >= 2
        recovered.close()
        store.close()

    def test_recovery_preserves_lru_recency(self, tmp_path):
        """Touch records keep eviction order identical across a restart."""
        store = DurableSequenceStore(tmp_path, MAX_SEQ_LEN, capacity=2)
        store.record(1, [1])
        store.record(2, [2])
        store.encode(1, [1])          # touch: 2 is now the LRU victim
        expected = store.snapshot()
        store.sync()
        recovered = DurableSequenceStore(tmp_path, MAX_SEQ_LEN, capacity=2)
        assert recovered.snapshot() == expected
        recovered.record(3, [3])      # evicts 2, not 1 — recency survived
        assert 1 in recovered and 2 not in recovered
        recovered.close()
        store.close()

    def test_inspect_durability_reports_disk_state(self, tmp_path):
        store = DurableSequenceStore(tmp_path, MAX_SEQ_LEN, capacity=8,
                                     fsync_every=1)
        store.record(1, [1, 2])
        store.record(2, [3])
        store.close()
        report = inspect_durability(tmp_path)
        assert report["snapshot"]["users"] == 2
        assert report["snapshot"]["kind"] == "single"
        assert "shards" not in report["snapshot"]
        assert report["wal"]["records"] == 0      # close() compacts
        assert not report["wal"]["torn_tail"]

    def test_read_hits_are_journaled_as_touch_records(self, tmp_path):
        store = DurableSequenceStore(tmp_path, MAX_SEQ_LEN, capacity=8,
                                     fsync_every=1)
        store.record(1, [1])
        store.encode(1, [1])          # hit: journals a touch
        store.encode_stored(1)        # hit: journals a touch
        store._wal.sync()
        scan = read_wal(tmp_path / "wal.jsonl")
        assert [record["op"] for record in scan.records] == \
            ["record", "touch", "touch"]
        assert all(record["user"] == 1 for record in scan.records)
        store.close()


# --------------------------------------------------------------------------- #
# Atomic on-disk writes
# --------------------------------------------------------------------------- #
class TestAtomicWrites:
    def test_atomic_write_replaces_only_on_success(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with atomic_write(target) as handle:
            handle.write(b"new")
        assert target.read_bytes() == b"new"
        assert list(tmp_path.iterdir()) == [target]   # no temp left behind

    def test_failed_write_leaves_previous_file_intact(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as handle:
                handle.write(b"half")
                raise RuntimeError("simulated crash mid-write")
        assert target.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_replace_cleans_up_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")

        def failing_replace(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            with atomic_write(target) as handle:
                handle.write(b"new")
        monkeypatch.undo()
        assert target.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [target]

    def test_atomic_write_text(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_write_text(target, json.dumps({"ok": True}))
        assert json.loads(target.read_text()) == {"ok": True}

    def test_npz_written_atomically_is_loadable(self, tmp_path):
        target = tmp_path / "arrays.npz"
        with atomic_write(target) as handle:
            np.savez_compressed(handle, values=np.arange(5))
        with np.load(target) as archive:
            assert archive["values"].tolist() == [0, 1, 2, 3, 4]


# --------------------------------------------------------------------------- #
# Fault injection: deterministic schedules, failures before mutation
# --------------------------------------------------------------------------- #
class TestFaultDeterminism:
    def firing_schedule(self, seed: int, hits: int = 60) -> list:
        injector = FaultInjector(seed=seed)
        injector.arm("site", kind="raise", probability=0.5)
        fired = []
        for index in range(hits):
            try:
                injector.hit("site")
            except InjectedFault:
                fired.append(index)
        return fired

    def test_same_seed_same_schedule(self):
        first = self.firing_schedule(seed=7)
        second = self.firing_schedule(seed=7)
        assert first == second
        # A p=0.5 schedule over 60 hits both fires and skips.
        assert 0 < len(first) < 60

    def test_different_seed_different_schedule(self):
        assert self.firing_schedule(seed=7) != self.firing_schedule(seed=8)

    def test_after_and_times_window_the_firings(self):
        injector = FaultInjector(seed=0)
        injector.arm("site", kind="raise", after=2, times=2)
        outcomes = []
        for _ in range(6):
            try:
                injector.hit("site")
                outcomes.append("ok")
            except InjectedFault:
                outcomes.append("fault")
        assert outcomes == ["ok", "ok", "fault", "fault", "ok", "ok"]

    def test_match_limits_firings_to_matching_context(self):
        injector = FaultInjector(seed=0)
        spec = injector.arm("store.record", match="42")
        injector.hit("store.record", context="7")
        with pytest.raises(InjectedFault):
            injector.hit("store.record", context="42")
        assert (spec.seen, spec.fired) == (1, 1)   # non-matching hits are unseen
        assert injector.fired("store.record") == 1

    def test_torn_keeps_a_strict_prefix(self):
        data = b"0123456789"
        injector = FaultInjector(seed=0)
        injector.arm("wal.torn", kind="torn", keep_bytes=3, times=1)
        assert injector.torn("wal.torn", data) == b"012"
        assert injector.torn("wal.torn", data) is None     # times=1 spent
        halves = FaultInjector(seed=0)
        halves.arm("wal.torn", kind="torn")
        assert halves.torn("wal.torn", data) == b"01234"
        greedy = FaultInjector(seed=0)
        greedy.arm("wal.torn", kind="torn", keep_bytes=100)
        assert greedy.torn("wal.torn", data) == data[:-1]  # never the whole record

    @pytest.mark.parametrize("options", [{"kind": "explode"},
                                         {"probability": 1.5},
                                         {"probability": -0.1},
                                         {"kind": "delay"}])
    def test_invalid_specs_are_rejected(self, options):
        with pytest.raises(ValueError):
            FaultInjector(seed=0).arm("site", **options)

    def test_reset_disarms_and_keeps_spec_counters(self):
        injector = FaultInjector(seed=0)
        spec = injector.arm("site")
        with pytest.raises(InjectedFault):
            injector.hit("site")
        injector.reset()
        injector.hit("site")                # disarmed: passes through
        assert spec.fired == 1 and injector.fired("site") == 0


class TestDurableChaos:
    def test_store_record_fault_leaves_state_untouched(self, tmp_path):
        injector = FaultInjector(seed=0)
        injector.arm("store.record", kind="raise", times=1)
        store = DurableSequenceStore(tmp_path, MAX_SEQ_LEN,
                                     fsync_every=1, injector=injector)
        with pytest.raises(InjectedFault) as info:
            store.record(0, [1, 2, 3])
        assert info.value.site == "store.record"
        assert 0 not in store
        assert store.wal_status()["appends"] == 0
        store.record(0, [1, 2, 3])  # the retry succeeds
        assert store.history(0) == (1, 2, 3)
        store.sync()
        pre = store.snapshot()
        store.close()
        recovered = DurableSequenceStore(tmp_path, MAX_SEQ_LEN)
        assert recovered.snapshot() == pre
        recovered.close()

    def test_wal_append_fault_aborts_cleanly_then_retries(self, tmp_path):
        injector = FaultInjector(seed=0)
        injector.arm("wal.append", kind="raise", times=1)
        store = DurableSequenceStore(tmp_path, MAX_SEQ_LEN,
                                     fsync_every=1, injector=injector)
        with pytest.raises(InjectedFault):
            store.record(0, [1, 2])
        # Write-ahead means the aborted journal append blocked the mutation.
        assert 0 not in store
        assert store.wal_status()["last_seq"] == 0
        store.record(0, [1, 2])
        store.record(1, [3])
        store.sync()
        pre = store.snapshot()
        store.close()
        recovered = DurableSequenceStore(tmp_path, MAX_SEQ_LEN)
        assert recovered.snapshot() == pre
        assert recovered.recovery.replayed == 0  # close() checkpointed
        recovered.close()

    def test_torn_write_breaks_log_and_reopen_recovers(self, tmp_path):
        injector = FaultInjector(seed=0)
        injector.arm("wal.torn", kind="torn", after=2, times=1)
        store = DurableSequenceStore(tmp_path, MAX_SEQ_LEN,
                                     fsync_every=1, injector=injector)
        store.record(0, [1, 2])
        store.record(1, [3, 4])
        pre_crash = store.snapshot()
        with pytest.raises(WALError, match="torn write"):
            store.record(2, [5])
        # Fail-stop: the broken log refuses further appends...
        with pytest.raises(WALError, match="broken"):
            store.record(3, [6])
        del store  # crash without checkpoint (close() would compact)
        # ...and the reopen heals the torn tail back to the last good record.
        scan = read_wal(tmp_path / "wal.jsonl")
        assert scan.torn
        recovered = DurableSequenceStore(tmp_path, MAX_SEQ_LEN)
        assert recovered.recovery.torn_tail
        assert recovered.recovery.replayed == 2
        assert recovered.snapshot() == pre_crash
        assert 2 not in recovered and 3 not in recovered
        recovered.record(2, [5])  # the healed log accepts writes again
        assert recovered.history(2) == (5,)
        recovered.close()

    def test_fsync_fault_surfaces_without_corrupting_log(self, tmp_path):
        injector = FaultInjector(seed=0)
        injector.arm("wal.fsync", kind="raise", times=1)
        store = DurableSequenceStore(tmp_path, MAX_SEQ_LEN,
                                     fsync_every=1, injector=injector)
        with pytest.raises(InjectedFault):
            store.record(0, [1, 2])
        # The append landed before its fsync failed, so the failed record is
        # *more* durable than the caller was told — never less.  The
        # in-memory store skipped the mutation (journal-before-mutation)...
        assert 0 not in store
        store.record(1, [3])
        store.sync()
        del store  # crash without checkpoint
        # ...but a crash-recovery replays the durable record: at-least-once
        # semantics for operations that failed between append and fsync.
        recovered = DurableSequenceStore(tmp_path, MAX_SEQ_LEN)
        assert recovered.history(0) == (1, 2)
        assert recovered.history(1) == (3,)
        recovered.close()

    def test_failed_touch_append_keeps_recency_in_step_with_the_log(self, tmp_path):
        """A read hit whose touch record fails must not reorder the LRU in
        memory either, or the next eviction would differ after a restart."""
        injector = FaultInjector(seed=0)
        injector.arm("wal.append", kind="raise", match="touch", times=1)
        store = DurableSequenceStore(tmp_path, MAX_SEQ_LEN, capacity=2,
                                     fsync_every=1, injector=injector)
        store.record(1, [1])
        store.record(2, [2])
        before = store.snapshot()
        with pytest.raises(InjectedFault):
            store.history(1)
        assert store.snapshot() == before   # 1 is still the LRU victim
        store.record(3, [3])
        assert 1 not in store and 2 in store
        live = store.snapshot()
        store._wal.close()   # crash without checkpoint

        recovered = DurableSequenceStore(tmp_path, MAX_SEQ_LEN, capacity=2)
        assert recovered.snapshot() == live
        recovered.close()


# --------------------------------------------------------------------------- #
# Interleaved writers on one store and one log
# --------------------------------------------------------------------------- #
def write_interleaved(store, writers: int = 4, records: int = 60,
                      checkpoint_at: int = 0):
    """Round-robin ``writers`` clients, each recording its own three users.

    Checkpoints once after ``checkpoint_at`` calls when it is positive.
    Returns each user's accepted events in order, and the ``(user, event)``
    pairs an injected fault refused.
    """
    accepted = {}
    refused = []
    for index in range(records):
        for worker in range(writers):
            if checkpoint_at and index * writers + worker == checkpoint_at:
                store.checkpoint()
            user = worker * 3 + index % 3
            event = (worker + index) % 10
            try:
                store.record(user, [event])
            except InjectedFault:
                refused.append((user, event))
            else:
                accepted.setdefault(user, []).append(event)
    return accepted, refused


def logged_events(records, user):
    return [record["events"][0] for record in records if record["user"] == user]


class TestInterleavedWriters:
    @pytest.mark.parametrize("checkpoint_at", [0, 100],
                             ids=["no_checkpoint", "checkpoint_midway"])
    def test_per_user_order_and_seq_density_survive_reopen(
            self, tmp_path, checkpoint_at):
        store = DurableSequenceStore(tmp_path, MAX_SEQ_LEN, capacity=64,
                                     fsync_every=8)
        written, refused = write_interleaved(store, checkpoint_at=checkpoint_at)
        assert refused == []
        store.sync()
        expected = store.snapshot()
        store._wal.close()   # crash without checkpoint

        # The log holds exactly the records past the checkpoint, densely.
        scan = read_wal(tmp_path / "wal.jsonl")
        assert [record["seq"] for record in scan.records] == \
            list(range(checkpoint_at + 1, 4 * 60 + 1))
        recovered = DurableSequenceStore(tmp_path, MAX_SEQ_LEN, capacity=64)
        assert recovered.recovery.snapshot_seq == checkpoint_at
        assert recovered.recovery.replayed == 4 * 60 - checkpoint_at
        assert recovered.snapshot() == expected
        for user, events in written.items():
            logged = logged_events(scan.records, user)
            assert logged == events[len(events) - len(logged):]
            assert recovered.history(user) == tuple(events[-MAX_SEQ_LEN:])
        recovered.close()

    def test_append_fault_after_n_records_fails_exactly_its_records(
            self, tmp_path):
        injector = FaultInjector(seed=0)
        injector.arm("wal.append", kind="raise", after=20, times=7)
        store = DurableSequenceStore(tmp_path, MAX_SEQ_LEN, capacity=64,
                                     fsync_every=8, injector=injector)
        accepted, refused = write_interleaved(store)
        # Calls 21..27 fail, in the round-robin order they were made.
        calls = [(worker * 3 + index % 3, (worker + index) % 10)
                 for index in range(60) for worker in range(4)]
        assert refused == calls[20:27]
        assert injector.fired("wal.append") == 7
        store.sync()
        scan = read_wal(tmp_path / "wal.jsonl")
        assert [record["seq"] for record in scan.records] == \
            list(range(1, 4 * 60 - 7 + 1))
        for user, events in accepted.items():
            assert logged_events(scan.records, user) == events
            assert store.history(user) == tuple(events[-MAX_SEQ_LEN:])
        store.close()

    @pytest.mark.parametrize("op", ["record", "append", "put", "touch", "del",
                                    "clear"])
    def test_refused_journal_record_aborts_its_mutation(self, tmp_path, op):
        injector = FaultInjector(seed=0)
        store = DurableSequenceStore(tmp_path, MAX_SEQ_LEN, capacity=8,
                                     fsync_every=1, injector=injector)
        store.record(1, [1, 2])
        store.record(2, [3])
        before = store.snapshot()
        last_seq = store.wal_status()["last_seq"]
        injector.arm("wal.append", kind="raise", match=op, times=1)
        mutate = {"record": lambda: store.record(3, [4]),
                  "append": lambda: store.append_event(1, 5),
                  "put": lambda: store.encode(2, [6, 7]),
                  "touch": lambda: store.history(1),
                  "del": lambda: store.invalidate(2),
                  "clear": store.clear}[op]
        with pytest.raises(InjectedFault):
            mutate()
        assert store.snapshot() == before
        assert store.wal_status()["last_seq"] == last_seq
        store._wal.close()   # crash without checkpoint

        recovered = DurableSequenceStore(tmp_path, MAX_SEQ_LEN, capacity=8)
        assert recovered.snapshot() == before
        recovered.close()

    def test_second_close_is_a_no_op(self, tmp_path):
        store = DurableSequenceStore(tmp_path, MAX_SEQ_LEN, fsync_every=4)
        store.record(1, [1, 2])
        store.record(2, [3])
        expected = store.snapshot()
        store.close()
        store.close()
        recovered = DurableSequenceStore(tmp_path, MAX_SEQ_LEN)
        assert recovered.snapshot() == expected
        recovered.close()


# --------------------------------------------------------------------------- #
# On-disk state this build cannot restore fails loudly
# --------------------------------------------------------------------------- #
def write_snapshot(directory: Path, **fields) -> None:
    doc = {"format": 1, "kind": "single", "seq": 1,
           "state": {"max_seq_len": MAX_SEQ_LEN, "capacity": 8, "ttl": None,
                     "entries": [[1, [1, 2], 0.0]]}}
    doc.update(fields)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "snapshot.json").write_text(json.dumps(doc))


#: What a two-shard store checkpointed: shard snapshots as [id, state] pairs.
SHARDED_STATE = {"max_seq_len": MAX_SEQ_LEN, "ttl": None, "shards": [
    [0, {"max_seq_len": MAX_SEQ_LEN, "capacity": 4, "ttl": None,
         "entries": [[2, [1, 2], 0.0]]}],
    [1, {"max_seq_len": MAX_SEQ_LEN, "capacity": 4, "ttl": None,
         "entries": [[1, [3], 0.0]]}],
]}


class TestUnreadableState:
    @pytest.mark.parametrize("fields, message", [
        ({"kind": "sharded", "state": SHARDED_STATE}, "'sharded'"),
        ({"format": 99}, "snapshot format 99"),
    ])
    def test_snapshot_is_refused_not_restored(self, tmp_path, fields, message):
        write_snapshot(tmp_path, **fields)
        with pytest.raises(WALError, match=message):
            DurableSequenceStore(tmp_path, MAX_SEQ_LEN)
        with pytest.raises(WALError, match=message):
            inspect_durability(tmp_path)

    @pytest.mark.parametrize("record", [
        {"op": "add_shard", "shard_id": 2},
        {"op": "remove_shard", "shard_id": 0},
    ])
    def test_shard_topology_record_is_an_unknown_journal_op(self, tmp_path,
                                                            record):
        (tmp_path / "wal.jsonl").write_bytes(
            _encode_line({"op": "record", "user": 1, "fp": [4], "stamp": 0.0,
                          "events": [4], "shard": 1, "seq": 1})
            + _encode_line({**record, "seq": 2}))
        with pytest.raises(ValueError, match=f"unknown journal op '{record['op']}'"):
            DurableSequenceStore(tmp_path, MAX_SEQ_LEN)


class TestRecoveryErrorsExitTwo:
    """A directory the store refuses is an operator error, never a traceback."""

    @pytest.fixture
    def checkpoint(self, tmp_path):
        config = SeqFMConfig(static_vocab_size=20, dynamic_vocab_size=12,
                             max_seq_len=MAX_SEQ_LEN, embed_dim=4, seed=0)
        path = tmp_path / "c.npz"
        save_seqfm(SeqFM(config), path)
        return path

    @pytest.mark.parametrize("fields", [{"format": 99}, {"kind": "sharded"}])
    def test_serve_exits_2(self, checkpoint, tmp_path, capsys, monkeypatch,
                           fields):
        wal_dir = tmp_path / "state"
        write_snapshot(wal_dir, **fields)
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        assert main(["serve", "--checkpoint", str(checkpoint),
                     "--wal", str(wal_dir)]) == 2
        assert "error: cannot recover WAL state" in capsys.readouterr().err

    def test_serve_exits_2_on_shard_topology_record(self, checkpoint, tmp_path,
                                                    capsys, monkeypatch):
        wal_dir = tmp_path / "state"
        wal_dir.mkdir()
        (wal_dir / "wal.jsonl").write_bytes(
            _encode_line({"op": "add_shard", "shard_id": 2, "seq": 1}))
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        assert main(["serve", "--checkpoint", str(checkpoint),
                     "--wal", str(wal_dir)]) == 2
        assert "unknown journal op 'add_shard'" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [{"format": 99}, {"kind": "sharded"}])
    def test_status_exits_2(self, tmp_path, capsys, fields):
        write_snapshot(tmp_path, **fields)
        assert main(["status", "--wal", str(tmp_path)]) == 2
        assert "error: cannot recover WAL state" in capsys.readouterr().err
