"""Caching for the serving runtime: a generic LRU map and the user-sequence store.

Encoding a scoring request is cheap but not free — every request pads and
masks the user's interaction history into fixed-shape arrays.  Users who score
many candidates in a row (the ranking endpoint scores J+1 candidates per
request) share one history, and active users come back request after request,
so the padded encoding is highly reusable.  :class:`UserSequenceStore` keeps
the most recently used encodings behind an exact fingerprint check: a cached
entry is reused only when the relevant suffix of the history is unchanged, so
the cache can never serve a stale sequence.

The store is also the serving runtime's only mutable state: the ``update``
head extends it, :mod:`repro.serving.durability` journals every mutation
through its journal hook, and :meth:`UserSequenceStore.snapshot` /
:meth:`UserSequenceStore.restore` round-trip it exactly.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.data.batching import pad_sequences
from repro.data.features import PADDING_INDEX

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of a cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class LRUCache(Generic[K, V]):
    """Least-recently-used mapping with a fixed capacity.

    ``get`` refreshes recency; ``put`` inserts or updates and evicts the least
    recently used entry once ``capacity`` is exceeded.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[K, V]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def get(self, key: K) -> Optional[V]:
        """Return the cached value (refreshing recency) or ``None``."""
        if key not in self._entries:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return self._entries[key]

    def peek(self, key: K) -> Optional[V]:
        """The cached value or ``None``, leaving recency and stats untouched."""
        return self._entries.get(key)

    def put(self, key: K, value: V) -> Optional[K]:
        """Insert or update ``key``, evicting the LRU entry beyond capacity.

        Returns the evicted key (``None`` when nothing was evicted) so
        callers journaling mutations can account for the side effect.
        """
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self.stats.evictions += 1
            return evicted
        return None

    def pop(self, key: K) -> Optional[V]:
        """Remove and return ``key`` if cached (no stats impact)."""
        return self._entries.pop(key, None)

    def peek_lru(self) -> Optional[K]:
        """The least-recently-used key (the next eviction victim), if any."""
        return next(iter(self._entries), None)

    def clear(self) -> None:
        self._entries.clear()

    def keys(self):
        """Keys in LRU → MRU order (oldest first)."""
        return list(self._entries.keys())

    def items(self):
        """``(key, value)`` pairs in LRU → MRU order (oldest first)."""
        return list(self._entries.items())


@dataclass
class _CachedSequence:
    #: the (≤ max_seq_len) visible history suffix — both the cache-validity
    #: fingerprint and the raw material for append_event/record updates
    fingerprint: Tuple[int, ...]
    indices: np.ndarray
    mask: np.ndarray
    #: clock reading at (re-)encoding time, for TTL expiry
    stamp: float = 0.0


#: Journal callback: receives one JSON-safe mutation record (``{"op": ...}``)
#: *before* the mutation is applied.  Raising from the journal aborts the
#: mutation — write-ahead semantics.
JournalFn = Callable[[dict], None]


class UserSequenceStore:
    """LRU-cached padded history encodings, keyed by user id.

    Parameters
    ----------
    max_seq_len:
        The n˙ the cached encodings are padded/truncated to; must match the
        model the sequences are fed into.
    capacity:
        Maximum number of users kept resident.
    ttl:
        Optional time-to-live in seconds.  Entries older than this are
        treated as absent (and counted as evictions) — the staleness bound
        for server-side sequences maintained by the ``update`` serving head,
        where the store is the source of truth rather than a pure cache.
        ``None`` (the default) never expires.
    clock:
        Monotonic time source for TTL bookkeeping; injectable for tests.

    Notes
    -----
    Correctness does not depend on callers invalidating anything: each lookup
    carries the full history and is checked against the cached fingerprint
    (the last ``max_seq_len`` items — exactly the suffix the model sees).  A
    changed history is transparently re-encoded.  :meth:`append_event` keeps a
    hot user's entry fresh without a round-trip through re-encoding callers;
    :meth:`record` is its creating sibling (the ``update`` head), and
    :meth:`history` reads the stored suffix back for requests that omit
    their history.

    Returned arrays are never mutated in place (updates replace whole
    entries), so callers may keep using them after later mutations.

    The store is **last-writer-wins**: a request carrying an explicit history
    re-encodes and *replaces* the user's stored suffix (that is how read
    traffic seeds the server-side state the ``update`` head extends — the
    recommend → update → recommend loop).  The flip side: ``history`` on the
    wire is always the user's *full* visible history, never a fragment — a
    client sending a partial history overwrites whatever ``update`` events
    accumulated for that user.
    """

    def __init__(
        self,
        max_seq_len: int,
        capacity: int = 4096,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_seq_len < 1:
            raise ValueError("max_seq_len must be at least 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None to never expire)")
        self.max_seq_len = max_seq_len
        self.ttl = ttl
        self._clock = clock
        self._hits = 0
        self._misses = 0
        self._expired = 0
        self._cache: LRUCache[int, _CachedSequence] = LRUCache(capacity)
        self._journal: Optional[JournalFn] = None

    @property
    def capacity(self) -> int:
        return self._cache.capacity

    # ------------------------------------------------------------------ #
    # Journal (write-ahead durability hook)
    # ------------------------------------------------------------------ #
    def set_journal(self, journal: Optional[JournalFn]) -> None:
        """Attach (or detach, with ``None``) the mutation journal.

        The journal receives one JSON-safe record for every state-affecting
        operation — writes, TTL expiries, evictions, and recency touches on
        read hits (the LRU order is part of :meth:`snapshot`'s bytes) —
        *before* the mutation lands.  A journal that raises aborts its
        operation, which is what lets a write-ahead log stay a superset of
        the applied state.
        """
        self._journal = journal

    def _journal_op(self, op: str, user_id: Optional[int] = None,
                    entry: Optional[_CachedSequence] = None,
                    events: Optional[Iterable[int]] = None) -> None:
        """Emit one journal record (no-op without an attached journal)."""
        if self._journal is None:
            return
        record: Dict[str, object] = {"op": op}
        if user_id is not None:
            record["user"] = int(user_id)
        if entry is not None:
            record["fp"] = list(entry.fingerprint)
            record["stamp"] = entry.stamp
        if events is not None:
            record["events"] = [int(event) for event in events]
        self._journal(record)

    def _journal_put(self, op: str, user_id: int, entry: _CachedSequence,
                     events: Optional[Iterable[int]] = None) -> None:
        """Journal a put *and* the eviction it will cause, before either lands."""
        self._journal_op(op, user_id, entry, events)
        if user_id not in self._cache and len(self._cache) >= self._cache.capacity:
            self._journal_op("evict", self._cache.peek_lru())

    def apply_journal(self, record: dict) -> None:
        """Re-apply one journal record (the crash-recovery replay path).

        Replay is *closed over the journal's own vocabulary*: puts carry the
        final fingerprint and stamp, so applying a record twice is idempotent
        — the property that makes WAL replay safe when a snapshot and the
        log overlap.  ``evict`` records are usually no-ops on replay (the
        same-capacity cache re-evicts the same victim automatically); they
        are kept in the log so the interaction history is self-describing.
        """
        op = record["op"]
        if op in ("record", "append", "put"):
            entry = self._encode_entry(
                tuple(int(item) for item in record["fp"]))
            entry.stamp = float(record["stamp"])
            self._cache.put(int(record["user"]), entry)
        elif op == "touch":
            self._cache.get(int(record["user"]))
        elif op in ("del", "expire", "evict"):
            self._cache.pop(int(record["user"]))
        elif op == "clear":
            self._cache.clear()
        else:
            raise ValueError(f"unknown journal op {op!r}")

    @property
    def stats(self) -> CacheStats:
        """Store-level counters: a *hit* requires the fingerprint to match."""
        return CacheStats(hits=self._hits, misses=self._misses,
                          evictions=self._cache.stats.evictions + self._expired)

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, user_id: int) -> bool:
        cached = self._peek(user_id)
        if cached is not None:
            self._touch(user_id)
        return cached is not None

    def _peek(self, user_id: int) -> Optional[_CachedSequence]:
        """The live cached entry, dropping (and counting) TTL-expired ones.

        Does not refresh recency: a read hit does that through
        :meth:`_touch` (an operation that replaces the entry moves it
        anyway), so a refused journal leaves the LRU order untouched too.
        The expiry pop is journaled here, where it happens.
        """
        cached = self._cache.peek(user_id)
        if cached is None:
            return None
        if self.ttl is not None and self._clock() - cached.stamp > self.ttl:
            self._journal_op("expire", user_id)
            self._cache.pop(user_id)
            self._expired += 1
            return None
        return cached

    def _touch(self, user_id: int) -> None:
        """Journal a read hit's recency refresh, then apply it."""
        self._journal_op("touch", user_id)
        self._cache.get(user_id)

    def encode(self, user_id: int, history: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Padded ``(indices, mask)`` row vectors for ``history``.

        Cached per user; a hit requires the visible history suffix to match
        exactly, so results are always identical to a fresh
        :func:`repro.data.batching.pad_sequences` call.
        """
        fingerprint = tuple(int(item) for item in list(history)[-self.max_seq_len:])
        entry = self._lookup(user_id, fingerprint)
        return entry.indices, entry.mask

    def encode_stored(self, user_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """Padded ``(indices, mask)`` of the stored suffix (empty when cold).

        The hot path for requests that omit their history: one cache lookup
        and no re-fingerprinting — a resident entry is returned directly
        (counted as a hit); a cold user gets the empty encoding (counted as
        a miss) *without* seeding an entry, so a sweep of cold reads can
        never evict warm users' accumulated ``update``-head state.
        """
        entry = self._lookup(user_id, None)
        return entry.indices, entry.mask

    def encode_rows(self, user_ids: Sequence[int],
                    histories: Sequence[Optional[Sequence[int]]]) -> Tuple[np.ndarray, np.ndarray]:
        """Padded ``(B, max_seq_len)`` indices and mask for a column of rows.

        Each row takes the step :meth:`encode` (a history of exact
        ``int``s) or :meth:`encode_stored` (``None``) would, in row order.  A negative user id has no server state: its literal history
        is padded without touching the store.
        """
        length = self.max_seq_len
        rows = []
        for user_id, history in zip(user_ids, histories):
            if user_id >= 0:
                entry = self._lookup(
                    user_id, None if history is None else tuple(history[-length:]))
                rows.append((entry.indices, entry.mask))
            else:
                indices, mask = pad_sequences([history or ()], length, PADDING_INDEX)
                rows.append((indices[0], mask[0]))
        indices, mask = zip(*rows)
        return np.stack(indices), np.stack(mask)

    def _lookup(self, user_id: int, fingerprint: Optional[Tuple[int, ...]]):
        """One row's cache step: the entry answering ``fingerprint`` exactly,
        or the stored suffix for ``None`` (a cold user's miss seeds nothing)."""
        cached = self._peek(user_id)
        if cached is not None and (fingerprint is None or cached.fingerprint == fingerprint):
            self._hits += 1
            self._touch(user_id)
            return cached
        self._misses += 1
        if fingerprint is None:
            return self._encode_entry(())
        entry = self._encode_entry(fingerprint)
        self._journal_put("put", user_id, entry)
        self._cache.put(user_id, entry)
        return entry

    def history(self, user_id: int) -> Optional[Tuple[int, ...]]:
        """The stored visible history suffix, or ``None`` for cold users.

        This is what requests that omit their history are answered against
        (the v1-envelope "server-side sequence" semantic).
        """
        cached = self._peek(user_id)
        if cached is not None:
            self._touch(user_id)
            return cached.fingerprint
        return None

    def append_event(self, user_id: int, dynamic_index: int) -> None:
        """Extend a cached user's history by one event (no-op on cold users)."""
        cached = self._peek(user_id)
        if cached is None:
            return
        suffix = (cached.fingerprint + (int(dynamic_index),))[-self.max_seq_len:]
        entry = self._encode_entry(suffix)
        self._journal_put("append", user_id, entry,
                          events=(int(dynamic_index),))
        self._cache.put(user_id, entry)

    def record(self, user_id: int, events: Iterable[int]) -> _CachedSequence:
        """Append ``events`` to a user's stored sequence, creating it if cold.

        The write path of the ``update`` serving head: unlike
        :meth:`append_event` it establishes state for users the store has
        never seen, so the online loop works from the first interaction.
        Returns the updated entry (its ``fingerprint`` is the new suffix).
        """
        events = tuple(int(event) for event in events)
        cached = self._peek(user_id)
        base = cached.fingerprint if cached is not None else ()
        suffix = (base + events)[-self.max_seq_len:]
        entry = self._encode_entry(suffix)
        self._journal_put("record", user_id, entry, events=events)
        self._cache.put(user_id, entry)
        return entry

    def _encode_entry(self, fingerprint: Tuple[int, ...]) -> _CachedSequence:
        indices, mask = pad_sequences([fingerprint], self.max_seq_len, PADDING_INDEX)
        return _CachedSequence(fingerprint=fingerprint, indices=indices[0],
                               mask=mask[0], stamp=self._clock())

    def invalidate(self, user_id: int) -> None:
        """Drop a user's cached encoding."""
        if user_id in self._cache:
            self._journal_op("del", user_id)
        self._cache.pop(user_id)

    def clear(self) -> None:
        self._journal_op("clear")
        self._cache.clear()

    # ------------------------------------------------------------------ #
    # Snapshot / restore (checkpointing and replay)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """A JSON-safe copy of the resident state, oldest entry first.

        Captures each user's visible suffix and its TTL stamp in LRU → MRU
        order, so :meth:`restore` reproduces both the sequences *and* the
        eviction/expiry order exactly — the contract that lets a checkpoint
        be replayed after a crash.  Counters
        (hits/misses/evictions) are runtime telemetry, not state, and are
        not captured.
        """
        return {
            "max_seq_len": self.max_seq_len,
            "capacity": self._cache.capacity,
            "ttl": self.ttl,
            "entries": [
                [user_id, list(entry.fingerprint), entry.stamp]
                for user_id, entry in self._cache.items()
            ],
        }

    def restore(self, snapshot: dict) -> None:
        """Replace the resident state with a :meth:`snapshot`'s contents.

        The snapshot must have been taken at the same ``max_seq_len`` —
        restoring sequences padded for a different model geometry would
        silently corrupt every encoding, so it raises instead.
        """
        if snapshot.get("max_seq_len") != self.max_seq_len:
            raise ValueError(
                f"snapshot was taken at max_seq_len={snapshot.get('max_seq_len')}, "
                f"this store encodes at {self.max_seq_len}"
            )
        self._cache.clear()
        for user_id, fingerprint, stamp in snapshot.get("entries", []):
            entry = self._encode_entry(tuple(int(item) for item in fingerprint))
            entry.stamp = float(stamp)
            self._cache.put(int(user_id), entry)
