"""Durable serving state: write-ahead log, snapshots, crash recovery.

The serving runtime's only mutable state is the user-sequence store (the
``update`` head's server-side sequences).  This module makes that state
survive a crash:

* :class:`WriteAheadLog` — an append-only, fsync-batched log of JSON
  records, one line per store mutation, each carrying a monotonic sequence
  number and a CRC32 checksum.  Appends are buffered and fsynced every
  ``fsync_every`` records (``lag`` = records acknowledged but not yet on
  disk); recovery tolerates a torn tail (a partially written last record is
  detected by checksum/framing and truncated) but refuses mid-file
  corruption, which means the disk — not this code — lost data.

* :class:`DurableSequenceStore` — a drop-in
  :class:`~repro.serving.cache.UserSequenceStore` facade that journals
  every mutation to the WAL **before** applying it (write-ahead
  semantics: a journal append that fails aborts the mutation, so the log is
  always a superset of the applied state), checkpoints the store's
  ``snapshot()`` atomically, compacts the log to the records newer than the
  checkpoint, and on startup replays snapshot + tail to recover the store
  **byte-identically** to its pre-crash ``snapshot()`` — the property the
  crash-recovery test battery proves at every append boundary.

  Replay is idempotent by construction: every put record carries the final
  fingerprint and stamp (not a delta), so records that overlap a snapshot
  re-apply harmlessly — and that same idempotence is what makes retrying a
  failed WAL append safe.

The WAL doubles as the **durable interaction log**: ``record`` entries keep
their raw ``events``, so an offline retrain loop can tail the log and see
every user interaction the ``update`` head ingested, in order.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.serialization import atomic_write, atomic_write_text
from repro.serving.cache import CacheStats, UserSequenceStore, _CachedSequence
from repro.serving.faults import NULL_INJECTOR, FaultInjector

PathLike = Union[str, Path]

#: Every op the store journal may emit, and every op ``apply_journal``
#: replays.  A test drives each store mutator through a recording journal and
#: requires the emitted set to equal this tuple, so a new mutation cannot
#: bypass the replay vocabulary.
WAL_OPS = (
    "record",   # update-head write: events appended (the interaction log rows)
    "append",   # append_event: one event extended onto a resident entry
    "put",      # explicit-history re-encode replacing an entry
    "touch",    # read hit: LRU recency refresh (part of snapshot()'s bytes)
    "del",      # invalidate()
    "expire",   # TTL expiry pop
    "evict",    # capacity eviction (redundant on replay, kept for the log)
    "clear",    # clear()
)

_SNAPSHOT_NAME = "snapshot.json"
_WAL_NAME = "wal.jsonl"
#: Public name of the WAL file inside a durability directory — what the
#: online interaction-log reader (:mod:`repro.online.log_reader`) tails.
WAL_NAME = _WAL_NAME
#: Public name of the checkpoint snapshot next to it — its ``seq`` tells the
#: reader how far compaction reached when no journal records survive.
SNAPSHOT_NAME = _SNAPSHOT_NAME
_SNAPSHOT_FORMAT = 1
#: The one store layout this build checkpoints and restores.
_SNAPSHOT_KIND = "single"


class WALError(RuntimeError):
    """The write-ahead log is unusable (broken writer or unreadable file)."""


class WALCorruptionError(WALError):
    """The log is damaged somewhere other than its tail.

    A torn *tail* is the expected crash signature and is healed by
    truncation; a bad record with valid records after it means the storage
    corrupted history — recovery refuses to guess and fails loudly.
    """


# --------------------------------------------------------------------------- #
# Record framing: one line = <canonical json> <space> <crc32 hex> <newline>
# --------------------------------------------------------------------------- #
def _encode_line(body: dict) -> bytes:
    payload = json.dumps(body, separators=(",", ":"), sort_keys=True)
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{payload} {crc:08x}\n".encode("utf-8")


def _decode_line(line: bytes) -> dict:
    """Parse one framed record; raises ``ValueError`` on any damage."""
    body, _, crc_hex = line.rstrip(b"\n").rpartition(b" ")
    if not body:
        raise ValueError("record has no checksum field")
    if int(crc_hex, 16) != zlib.crc32(body) & 0xFFFFFFFF:
        raise ValueError("record checksum mismatch")
    return json.loads(body.decode("utf-8"))


@dataclass
class WALScan:
    """The result of reading a log file front to back."""

    records: List[dict]
    last_seq: int
    #: ``True`` when a partially written final record was dropped.
    torn: bool
    #: Byte length of the valid prefix (the truncation point for healing).
    valid_bytes: int
    #: Records validated but excluded because their ``seq`` was at or below
    #: the ``since_seq`` cursor (0 on a cursor-less scan).
    skipped: int = 0
    #: Whether the ``start_offset`` fast path was taken (the cursor anchored
    #: cleanly and only the tail past it was read).
    seeked: bool = False


def _cursor_anchored(data: bytes, since_seq: int, offset: int) -> bool:
    """Whether byte ``offset`` is exactly the end of the record ``since_seq``.

    The soundness condition of the tailing fast path: seqs are unique and
    ascending within a log file, so if the framed record ending at ``offset``
    decodes to sequence ``since_seq``, then everything before it is already
    consumed and everything after it is exactly the unconsumed tail — even if
    the log was compacted since the cursor was written, as long as that
    record survived in place.  Any other situation (offset past EOF, offset
    mid-record after a compaction shifted bytes, a different record ending
    there) fails the check and the caller falls back to a full scan.
    """
    if offset < 1 or offset > len(data) or data[offset - 1:offset] != b"\n":
        return False
    line_start = data.rfind(b"\n", 0, offset - 1) + 1
    try:
        record = _decode_line(data[line_start:offset])
        return int(record["seq"]) == since_seq
    except (ValueError, KeyError, TypeError):
        return False


def read_wal(path: PathLike, since_seq: int = 0,
             start_offset: int = 0) -> WALScan:
    """Scan a WAL file, validating framing, checksums and seq monotonicity.

    A damaged *final* record (torn write at crash time) is reported via
    ``torn`` and excluded; damage anywhere else raises
    :class:`WALCorruptionError`.

    ``since_seq``/``start_offset`` are the tailing cursor of the online
    retrain loop (:mod:`repro.online`): records with ``seq <= since_seq``
    are validated but excluded from ``records`` (counted in ``skipped``),
    and when ``start_offset`` is the verified end of record ``since_seq``
    (see :func:`_cursor_anchored`) the scan seeks straight there instead of
    re-reading the whole log.  A stale offset — the log was compacted and
    the anchor record moved or vanished — silently falls back to a full
    scan, so a cursor taken at a compaction point is always safe, merely
    slower.  ``valid_bytes`` stays an absolute file offset either way.
    """
    path = Path(path)
    data = path.read_bytes() if path.exists() else b""
    offset = 0
    last_seq = 0
    seeked = False
    if start_offset > 0 and _cursor_anchored(data, since_seq, start_offset):
        offset = start_offset
        last_seq = since_seq
        seeked = True
    records: List[dict] = []
    skipped = 0
    torn = False
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:  # no terminator: the classic torn tail
            torn = True
            break
        line = data[offset:newline + 1]
        try:
            record = _decode_line(line)
            seq = int(record["seq"])
            if seq <= last_seq:
                raise ValueError(f"sequence went backwards ({last_seq} -> {seq})")
        except (ValueError, KeyError, TypeError) as error:
            if _any_valid_record(data, newline + 1):
                raise WALCorruptionError(
                    f"{path}: damaged record at byte {offset} with valid "
                    f"records after it ({error})"
                ) from None
            torn = True
            break
        if seq <= since_seq:
            skipped += 1
        else:
            records.append(record)
        last_seq = seq
        offset = newline + 1
    return WALScan(records=records, last_seq=last_seq, torn=torn,
                   valid_bytes=offset, skipped=skipped, seeked=seeked)


def _any_valid_record(data: bytes, offset: int) -> bool:
    """Whether any complete, checksummed record exists at/after ``offset``."""
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            return False
        try:
            _decode_line(data[offset:newline + 1])
            return True
        except (ValueError, KeyError):
            offset = newline + 1
    return False


# --------------------------------------------------------------------------- #
# The write-ahead log
# --------------------------------------------------------------------------- #
class WriteAheadLog:
    """Append-only, checksummed, fsync-batched log of JSON records.

    ``append`` assigns the next sequence number, frames and buffers the
    record, and fsyncs once ``fsync_every`` records are pending — the
    classic durability/throughput dial (``fsync_every=1`` is synchronous
    commit).  ``lag`` (appended − synced) is the data-loss window a hard
    crash could cost; :meth:`sync` closes it on demand and callers close it
    at every checkpoint and clean shutdown.

    A torn-write fault (injected or real ENOSPC mid-write) marks the log
    **broken** — further appends refuse, and the owner must recover by
    reopening, exactly as a crashed process would.
    """

    def __init__(self, path: PathLike, fsync_every: int = 256,
                 start_seq: int = 0,
                 injector: Optional[FaultInjector] = None):
        if fsync_every < 1:
            raise ValueError("fsync_every must be at least 1")
        self.path = Path(path)
        self.fsync_every = fsync_every
        self._injector = injector if injector is not None else NULL_INJECTOR
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "ab")
        self._last_seq = int(start_seq)
        self._synced_seq = int(start_seq)
        self._appends = 0
        self._fsyncs = 0
        self._pending = 0
        self._broken = False

    # -- write path ----------------------------------------------------- #
    def append(self, record: dict) -> int:
        """Frame and append one record; returns its sequence number.

        The injected fault sites: ``wal.append`` fires *before* anything is
        written (clean abort, safe to retry), ``wal.torn`` truncates the
        written bytes and breaks the log (the crash-mid-write signature),
        ``wal.fsync`` fires inside the batched fsync.
        """
        if self._broken:
            raise WALError(
                f"{self.path}: log is broken after a torn write; reopen "
                "to recover"
            )
        self._injector.hit("wal.append", context=str(record.get("op", "")))
        seq = self._last_seq + 1
        # The log owns sequencing: an (erroneous) caller-supplied "seq"
        # must never override the assigned one.
        data = _encode_line({**record, "seq": seq})
        torn = self._injector.torn("wal.torn", data)
        if torn is not None:
            self._file.write(torn)
            self._file.flush()
            os.fsync(self._file.fileno())
            self._broken = True
            raise WALError(
                f"{self.path}: torn write after {len(torn)} of "
                f"{len(data)} bytes"
            )
        self._file.write(data)
        self._last_seq = seq
        self._appends += 1
        self._pending += 1
        if self._pending >= self.fsync_every:
            self._sync()
        return seq

    def sync(self) -> None:
        """Flush and fsync everything appended so far (``lag`` → 0)."""
        self._sync()

    def _sync(self) -> None:
        self._file.flush()
        self._injector.hit("wal.fsync")
        os.fsync(self._file.fileno())
        self._fsyncs += 1
        self._pending = 0
        self._synced_seq = self._last_seq

    # -- maintenance ----------------------------------------------------- #
    def compact(self, snapshot_seq: int) -> int:
        """Atomically rewrite the log to records newer than ``snapshot_seq``.

        Called after a checkpoint: everything at or below the checkpointed
        sequence is reconstructible from the snapshot, so only the tail is
        kept.  Returns the number of records retained.
        """
        self._file.flush()
        scan = read_wal(self.path)
        keep = [record for record in scan.records
                if int(record["seq"]) > snapshot_seq]
        self._file.close()
        with atomic_write(self.path, "wb") as handle:
            for record in keep:
                handle.write(_encode_line(record))
        self._file = open(self.path, "ab")
        self._pending = 0
        self._synced_seq = self._last_seq
        self._broken = False
        return len(keep)

    @property
    def closed(self) -> bool:
        return self._file.closed

    def close(self) -> None:
        if self.closed:
            return
        if not self._broken:
            self._sync()
        self._file.close()

    # -- observability --------------------------------------------------- #
    @property
    def last_seq(self) -> int:
        return self._last_seq

    @property
    def synced_seq(self) -> int:
        return self._synced_seq

    def status(self) -> dict:
        """Counters for the ``status`` head: lag is the crash-loss window."""
        return {
            "path": str(self.path),
            "last_seq": self._last_seq,
            "synced_seq": self._synced_seq,
            "lag": self._last_seq - self._synced_seq,
            "appends": self._appends,
            "fsyncs": self._fsyncs,
            "fsync_every": self.fsync_every,
            "broken": self._broken,
        }


# --------------------------------------------------------------------------- #
# The checkpoint snapshot document
# --------------------------------------------------------------------------- #
def load_snapshot_doc(path: PathLike) -> Optional[dict]:
    """The checkpoint document at ``path``, or ``None`` when there is none.

    Raises :class:`WALError` for a document this build cannot restore: an
    unknown ``format``, or a ``kind`` other than the single-store layout
    (a sharded store's directory carries ``"kind": "sharded"``) — restoring
    either would silently drop state.
    """
    path = Path(path)
    if not path.exists():
        return None
    doc = json.loads(path.read_text())
    if doc.get("format") != _SNAPSHOT_FORMAT:
        raise WALError(
            f"{path} has snapshot format {doc.get('format')!r}; this build "
            f"reads {_SNAPSHOT_FORMAT}"
        )
    if doc.get("kind") != _SNAPSHOT_KIND:
        raise WALError(
            f"{path} holds a {doc.get('kind')!r} store snapshot; this build "
            f"restores only {_SNAPSHOT_KIND!r} stores"
        )
    return doc


@dataclass
class RecoveryReport:
    """What startup recovery found and did (surfaced by ``status``/CLI)."""

    snapshot_seq: int      # sequence the loaded snapshot was taken at (0: none)
    replayed: int          # WAL records applied on top of the snapshot
    skipped: int           # WAL records already covered by the snapshot
    torn_tail: bool        # a partial final record was truncated away
    last_seq: int          # the sequence the store resumed at


# --------------------------------------------------------------------------- #
# The durable store facade
# --------------------------------------------------------------------------- #
class DurableSequenceStore:
    """A user-sequence store whose every mutation survives a crash.

    Drop-in for :class:`UserSequenceStore` (the micro-batcher, the
    ``update`` head and the router cannot tell them apart): same ``encode``
    / ``encode_stored`` / ``encode_rows`` / ``history`` / ``append_event`` /
    ``record`` / ``stats`` / ``snapshot`` surface, plus

    * **write-ahead journaling** — the inner store emits one record per
      mutation *before* applying it; the records land in a
      :class:`WriteAheadLog` under ``directory``;
    * **startup recovery** — the constructor loads the last checkpoint (if
      any), heals a torn WAL tail, replays the tail records in order and
      reports the result (:attr:`recovery`); the recovered state is
      byte-identical to the pre-crash ``snapshot()``;
    * **checkpoint + compaction** — :meth:`checkpoint` atomically persists
      ``snapshot()`` and shrinks the log to the records the snapshot does
      not cover; call it at drains, shutdowns, or on a timer.

    ``clock`` defaults to wall time (``time.time``) rather than the inner
    store's monotonic default: TTL stamps live in the WAL and must stay
    meaningful across process restarts.  Read hits journal ``touch``
    records, so recovery restores LRU recency as well as contents.
    """

    def __init__(
        self,
        directory: PathLike,
        max_seq_len: int,
        capacity: int = 4096,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.time,
        fsync_every: int = 256,
        injector: Optional[FaultInjector] = None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._injector = injector if injector is not None else NULL_INJECTOR
        self._snapshot_path = self.directory / _SNAPSHOT_NAME
        self._wal_path = self.directory / _WAL_NAME

        doc = load_snapshot_doc(self._snapshot_path)
        self._store = UserSequenceStore(max_seq_len, capacity=capacity,
                                        ttl=ttl, clock=clock)
        snapshot_seq = int(doc["seq"]) if doc is not None else 0
        if doc is not None:
            self._store.restore(doc["state"])

        scan = read_wal(self._wal_path)
        if scan.torn:
            self._truncate_wal(scan.valid_bytes)
        replayed = skipped = 0
        for record in scan.records:
            if int(record["seq"]) <= snapshot_seq:
                skipped += 1
                continue
            self._store.apply_journal(record)
            replayed += 1

        start_seq = max(snapshot_seq, scan.last_seq)
        self._snapshot_seq = snapshot_seq
        self._wal = WriteAheadLog(self._wal_path, fsync_every=fsync_every,
                                  start_seq=start_seq, injector=self._injector)
        self.recovery = RecoveryReport(
            snapshot_seq=snapshot_seq, replayed=replayed, skipped=skipped,
            torn_tail=scan.torn, last_seq=start_seq)
        self._store.set_journal(self._journal_sink)

    # -- construction helpers -------------------------------------------- #
    def _truncate_wal(self, valid_bytes: int) -> None:
        with open(self._wal_path, "r+b") as handle:
            handle.truncate(valid_bytes)
            handle.flush()
            os.fsync(handle.fileno())

    def _journal_sink(self, record: dict) -> None:
        """The inner store's journal: every mutation record → WAL append."""
        self._wal.append(record)

    # ------------------------------------------------------------------ #
    # Durability operations
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> int:
        """Persist ``snapshot()`` atomically and compact the log; returns
        the checkpointed sequence."""
        seq = self._wal.last_seq
        state = self._store.snapshot()
        self._wal.sync()
        doc = {"format": _SNAPSHOT_FORMAT, "kind": _SNAPSHOT_KIND,
               "seq": seq, "state": state}
        atomic_write_text(self._snapshot_path,
                          json.dumps(doc, separators=(",", ":"),
                                     sort_keys=True))
        self._wal.compact(seq)
        self._snapshot_seq = seq
        return seq

    def sync(self) -> None:
        """Force the WAL to disk (``lag`` → 0) without checkpointing."""
        self._wal.sync()

    def close(self) -> None:
        """Checkpoint and release the log (the clean-shutdown path).

        A second call is a no-op: the first already checkpointed.
        """
        if self._wal.closed:
            return
        self.checkpoint()
        self._wal.close()

    def wal_status(self) -> dict:
        """WAL counters + recovery summary for the ``status`` head."""
        report = self.recovery
        return {
            **self._wal.status(),
            "snapshot_seq": self._snapshot_seq,
            "recovered_replayed": report.replayed,
            "recovered_skipped": report.skipped,
            "recovered_torn_tail": report.torn_tail,
        }

    # ------------------------------------------------------------------ #
    # UserSequenceStore surface (delegated)
    # ------------------------------------------------------------------ #
    @property
    def max_seq_len(self) -> int:
        return self._store.max_seq_len

    @property
    def ttl(self) -> Optional[float]:
        return self._store.ttl

    @property
    def capacity(self) -> int:
        return self._store.capacity

    @property
    def stats(self) -> CacheStats:
        return self._store.stats

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._store

    def encode(self, user_id: int, history: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        return self._store.encode(user_id, history)

    def encode_stored(self, user_id: int) -> Tuple[np.ndarray, np.ndarray]:
        return self._store.encode_stored(user_id)

    def encode_rows(self, user_ids: Sequence[int],
                    histories: Sequence[Optional[Sequence[int]]]) -> Tuple[np.ndarray, np.ndarray]:
        return self._store.encode_rows(user_ids, histories)

    def history(self, user_id: int) -> Optional[Tuple[int, ...]]:
        return self._store.history(user_id)

    def append_event(self, user_id: int, dynamic_index: int) -> None:
        self._store.append_event(user_id, dynamic_index)

    def record(self, user_id: int, events: Iterable[int]) -> _CachedSequence:
        # The store-level fault site fires before any mutation, so a failed
        # (then retried) record can never double-append events.
        self._injector.hit("store.record", context=str(user_id))
        return self._store.record(user_id, events)

    def invalidate(self, user_id: int) -> None:
        self._store.invalidate(user_id)

    def clear(self) -> None:
        self._store.clear()

    def snapshot(self) -> dict:
        return self._store.snapshot()

    def restore(self, snapshot: dict) -> None:
        """Restore then re-checkpoint: bulk state swaps bypass the journal,
        so the snapshot file — not the WAL — must carry the new state."""
        self._store.set_journal(None)
        try:
            self._store.restore(snapshot)
        finally:
            self._store.set_journal(self._journal_sink)
        self.checkpoint()


# --------------------------------------------------------------------------- #
# Offline inspection (the CLI `status --wal DIR` path)
# --------------------------------------------------------------------------- #
def inspect_durability(directory: PathLike) -> dict:
    """Summarise a durability directory without constructing a store.

    Reads the snapshot header and scans the WAL: sequence positions, per-op
    record counts, torn-tail state and on-disk sizes — the offline half of
    the ``status`` head.  Raises :class:`WALError` on a snapshot this build
    cannot restore (see :func:`load_snapshot_doc`).
    """
    directory = Path(directory)
    snapshot_path = directory / _SNAPSHOT_NAME
    wal_path = directory / _WAL_NAME
    summary: dict = {
        "directory": str(directory),
        "snapshot": None,
        "wal": None,
    }
    doc = load_snapshot_doc(snapshot_path)
    if doc is not None:
        summary["snapshot"] = {
            "seq": int(doc.get("seq", 0)),
            "kind": doc["kind"],
            "users": len(doc.get("state", {}).get("entries", ())),
            "bytes": snapshot_path.stat().st_size,
        }
    if wal_path.exists():
        scan = read_wal(wal_path)
        ops: Dict[str, int] = {}
        for record in scan.records:
            op = str(record.get("op", "?"))
            ops[op] = ops.get(op, 0) + 1
        snapshot_seq = summary["snapshot"]["seq"] if summary["snapshot"] else 0
        summary["wal"] = {
            "records": len(scan.records),
            "last_seq": scan.last_seq,
            "since_snapshot": sum(1 for record in scan.records
                                  if int(record["seq"]) > snapshot_seq),
            "torn_tail": scan.torn,
            "ops": ops,
            "bytes": wal_path.stat().st_size,
        }
    return summary
