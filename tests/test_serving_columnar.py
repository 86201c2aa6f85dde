"""The columnar score path against the per-request path it replaced.

``ScoringHead.parse_all`` → ``MicroBatcher.score_all`` → ``collate`` →
``UserSequenceStore.encode_rows`` must answer every line exactly as the
per-payload loop did: one ``ScoreRequest`` per payload, a per-row store
lookup, one engine call per ``max_batch_size`` chunk.  That loop is kept
below as the reference.  Both sides run on their own store (in memory, or
WAL-backed) driven by a tick clock, so TTL expiry and stamps are exercised
too; they must agree on scores (bitwise), errors (type, code, message),
store snapshot, cache and batcher counters, and every journal record in
order.

Also here: the integer-field contract shared by every head — fractional
floats are rejected, integral floats and numeric strings still accepted.
"""

from __future__ import annotations

import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SeqFMConfig
from repro.core.model import SeqFM
from repro.data.features import FeatureBatch, pad_sequences
from repro.serving import (
    DurableSequenceStore,
    InferenceEngine,
    MicroBatcher,
    ModelRegistry,
    ProtocolError,
    ScoreColumns,
    ScoreRequest,
    ServeDefaults,
    UserSequenceStore,
    default_heads,
)
from repro.serving.durability import WAL_NAME
from repro.serving.protocol import ERR_BAD_REQUEST, parse_int, parse_int_list

CONFIG = SeqFMConfig(static_vocab_size=40, dynamic_vocab_size=30, max_seq_len=6,
                     embed_dim=8, dropout=0.0, seed=5)
N = CONFIG.max_seq_len


@pytest.fixture(scope="module")
def engine() -> InferenceEngine:
    model = SeqFM(CONFIG)
    rng = np.random.default_rng(2)
    for parameter in model.parameters():
        parameter.data += rng.normal(0.0, 0.2, parameter.data.shape)
    model.dynamic_embedding.reset_padding()
    return InferenceEngine(model)


# --------------------------------------------------------------------------- #
# The reference: the per-ScoreRequest path
# --------------------------------------------------------------------------- #
def reference_collate(requests, store) -> FeatureBatch:
    """Pad ``ScoreRequest`` objects one row at a time, as collation used to."""
    if not requests:
        raise ValueError("cannot collate zero requests")
    widths = {len(request.static_indices) for request in requests}
    if len(widths) != 1:
        raise ValueError(
            f"all requests must have the same static feature count, got {sorted(widths)}")
    static = np.asarray([list(request.static_indices) for request in requests],
                        dtype=np.int64)
    literal = [request.history if request.history is not None else ()
               for request in requests]
    if store is None:
        dynamic, mask = pad_sequences(literal, N)
    else:
        rows, masks = [], []
        for request, history in zip(requests, literal):
            if request.user_id < 0:
                padded, padded_mask = pad_sequences([history], N)
                indices, row_mask = padded[0], padded_mask[0]
            elif request.history is None:
                indices, row_mask = store.encode_stored(request.user_id)
            else:
                indices, row_mask = store.encode(request.user_id, request.history)
            rows.append(indices)
            masks.append(row_mask)
        dynamic, mask = np.stack(rows), np.stack(masks)
    return FeatureBatch(
        static_indices=static, dynamic_indices=dynamic, dynamic_mask=mask,
        labels=np.zeros(len(requests), dtype=np.float64),
        user_ids=np.array([request.user_id for request in requests], dtype=np.int64),
        object_ids=np.array([request.object_id for request in requests], dtype=np.int64),
    )


def reference_score_all(score_fn, requests, store, max_batch_size, stats):
    """Queue-then-flush scoring: every chunk runs, the first error re-raised."""
    stats["requests"] += len(requests)
    scores = np.full(len(requests), np.nan)
    first_error = None
    for start in range(0, len(requests), max_batch_size):
        chunk = requests[start:start + max_batch_size]
        try:
            chunk_scores = np.asarray(score_fn(reference_collate(chunk, store)),
                                      dtype=np.float64)
        except Exception as error:  # noqa: BLE001 — re-raised below, as before
            first_error = first_error or error
            continue
        scores[start:start + len(chunk)] = chunk_scores
        stats["batches"] += 1
        stats["rows_scored"] += len(chunk)
    if first_error is not None:
        raise first_error
    return scores


# --------------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------------- #
def tick_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


class Side:
    """One store (or none) plus the journal it wrote, for one side of a run."""

    def __init__(self, kind, directory, ttl, capacity):
        self.kind = kind
        self.records = []
        self.directory = directory
        if kind == "none":
            self.store = None
        elif kind == "memory":
            self.store = UserSequenceStore(N, capacity=capacity, ttl=ttl, clock=tick_clock())
            self.store.set_journal(self.records.append)
        else:
            self.store = DurableSequenceStore(directory, N, capacity=capacity, ttl=ttl,
                                              clock=tick_clock(), fsync_every=1000)

    def state(self):
        if self.store is None:
            return None
        journal = self.records
        if self.kind == "wal":
            self.store.sync()
            journal = (Path(self.directory) / WAL_NAME).read_bytes()
        return self.store.snapshot(), self.store.stats, journal

    def close(self):
        if self.kind == "wal":
            self.store.close()


def outcome(run):
    try:
        return "ok", run()
    except Exception as error:  # noqa: BLE001 — compared between the sides
        return "error", (type(error), getattr(error, "code", None), str(error))


def assert_parity(engine, payloads, kind="memory", stored_history=True,
                  max_batch_size=256, ttl=None, capacity=16, warmup=()):
    """Run ``payloads`` through both paths (after ``warmup`` lines) and compare."""
    head = default_heads().get("score")
    defaults = ServeDefaults(stored_history=stored_history)
    with tempfile.TemporaryDirectory() as scratch:
        new = Side(kind, Path(scratch) / "new", ttl, capacity)
        ref = Side(kind, Path(scratch) / "ref", ttl, capacity)
        try:
            batcher = MicroBatcher(engine.score, max_batch_size=max_batch_size,
                                   max_seq_len=N, sequence_store=new.store)
            ref_stats = {"requests": 0, "batches": 0, "rows_scored": 0}
            results = []
            for line in [*warmup, payloads]:
                got = outcome(lambda: batcher.score_all(head.parse_all(line, defaults)))
                want = outcome(lambda: reference_score_all(
                    engine.score, [head.parse(payload, defaults) for payload in line],
                    ref.store, max_batch_size, ref_stats))
                assert got[0] == want[0], (got, want)
                if got[0] == "ok":
                    assert got[1].tobytes() == want[1].tobytes()
                else:
                    assert got[1] == want[1]
                assert (batcher.stats.requests, batcher.stats.batches,
                        batcher.stats.rows_scored) == tuple(ref_stats.values())
                assert new.state() == ref.state()
                results.append(got)
            return results
        finally:
            new.close()
            ref.close()


# --------------------------------------------------------------------------- #
# Payload generators
# --------------------------------------------------------------------------- #
def payload(rng, users=8, history="explicit"):
    row = {"static_indices": [int(rng.integers(0, 10)), int(rng.integers(10, 40))],
           "object_id": int(rng.integers(0, 100))}
    user = int(rng.integers(-1, users))
    if user >= 0 or rng.random() < 0.5:
        row["user_id"] = user
    if history == "explicit":
        row["history"] = [int(item) for item in rng.integers(1, 30, rng.integers(0, 2 * N))]
    elif history == "null":
        row["history"] = None
    return row


def mixed_line(size, seed, users=8):
    rng = np.random.default_rng(seed)
    kinds = ("explicit", "explicit", "explicit", "stored", "null")
    return [payload(rng, users, kinds[int(rng.integers(0, len(kinds)))])
            for _ in range(size)]


#: Each malformed (or merely non-canonical) payload kind, by name.
ODD_PAYLOADS = {
    "bool_index": {"static_indices": [True, 12], "user_id": 1},
    "bool_user": {"static_indices": [1, 12], "user_id": False},
    "fractional_index": {"static_indices": [3.9, 12], "user_id": 1},
    "fractional_history": {"static_indices": [1, 12], "history": [2.5], "user_id": 1},
    "fractional_user": {"static_indices": [1, 12], "user_id": 5.7},
    "integral_float": {"static_indices": [2.0, 12], "history": [3.0], "user_id": 1.0},
    "numeric_string": {"static_indices": ["3", 12], "history": ["4"], "user_id": "2"},
    "string_history": {"static_indices": [1, 12], "history": "12", "user_id": 1},
    "nested_list": {"static_indices": [[1], 12], "user_id": 1},
    "missing_static": {"history": [1, 2], "user_id": 1},
    "non_dict": [1, 12],
    "ragged_width": {"static_indices": [1, 12, 13], "history": [1], "user_id": 2},
    "static_out_of_range": {"static_indices": [999, 12], "history": [1], "user_id": 3},
    "history_out_of_range": {"static_indices": [1, 12], "history": [99], "user_id": 4},
    "anonymous_out_of_range": {"static_indices": [1, 12], "history": [99]},
}


# --------------------------------------------------------------------------- #
# Parity
# --------------------------------------------------------------------------- #
KINDS = ("none", "memory", "wal")


class TestColumnarParity:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("size", [1, 255, 256, 257, 600])
    def test_batch_sizes_around_the_chunk_boundary(self, engine, kind, size):
        results = assert_parity(engine, mixed_line(size, seed=size), kind=kind,
                                capacity=12, warmup=[mixed_line(40, seed=1)])
        assert results[-1][0] == "ok" and results[-1][1].shape == (size,)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", sorted(ODD_PAYLOADS))
    def test_odd_payload_mid_line(self, engine, kind, name):
        """One odd payload in the second of three chunks of a 600-row line."""
        line = mixed_line(600, seed=7)
        line[300] = ODD_PAYLOADS[name]
        assert_parity(engine, line, kind=kind, capacity=12)

    @pytest.mark.parametrize("stored_history", [True, False])
    def test_omitted_history_follows_the_defaults(self, engine, stored_history):
        warmup = [[{"static_indices": [1, 12], "history": [4, 5], "user_id": 3}]]
        line = [{"static_indices": [1, 12], "user_id": 3},
                {"static_indices": [1, 12], "user_id": 5}]
        assert_parity(engine, line, stored_history=stored_history, warmup=warmup)

    def test_long_histories_hit_on_their_visible_suffix(self, engine):
        base = list(range(1, 3 * N))
        line = [{"static_indices": [1, 12], "history": [29] + base, "user_id": 1},
                {"static_indices": [1, 12], "history": base, "user_id": 1}]
        (_, scores), = assert_parity(engine, line)
        assert scores[0] == scores[1]

    def test_ttl_expiry_and_eviction(self, engine):
        lines = [mixed_line(30, seed=seed, users=20) for seed in range(4)]
        assert_parity(engine, lines[-1], kind="wal", ttl=25.0, capacity=5,
                      max_batch_size=7, warmup=lines[:-1])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_lines(self, engine, data):
        kind = data.draw(st.sampled_from(KINDS))
        seeds = data.draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=3))
        sizes = data.draw(st.lists(st.integers(0, 25), min_size=len(seeds),
                                   max_size=len(seeds)))
        lines = [mixed_line(size, seed, users=data.draw(st.integers(1, 12)))
                 for size, seed in zip(sizes, seeds)]
        for line in lines:
            for _ in range(data.draw(st.integers(0, 2))):
                if line:
                    position = data.draw(st.integers(0, len(line) - 1))
                    line[position] = ODD_PAYLOADS[data.draw(st.sampled_from(
                        sorted(ODD_PAYLOADS)))]
        assert_parity(engine, lines[-1], kind=kind,
                      stored_history=data.draw(st.booleans()),
                      max_batch_size=data.draw(st.integers(1, 8)),
                      ttl=data.draw(st.sampled_from([None, 15.0, 60.0])),
                      capacity=data.draw(st.integers(1, 10)), warmup=lines[:-1])


class TestScoreColumns:
    def test_canonical_payloads_are_taken_as_is(self):
        line = [{"static_indices": [1, 12], "history": [3, 4], "user_id": 2,
                 "object_id": 9},
                {"static_indices": [2, 13]}]
        columns = default_heads().get("score").parse_all(line, ServeDefaults())
        assert columns.static_rows[0] is line[0]["static_indices"]
        assert columns.histories[0] is line[0]["history"]
        assert list(columns.histories[1]) == []
        assert columns.user_ids == (2, -1) and columns.object_ids == (9, -1)

    def test_non_canonical_payloads_are_coerced_by_parse(self):
        columns = default_heads().get("score").parse_all(
            [ODD_PAYLOADS["integral_float"], ODD_PAYLOADS["numeric_string"]],
            ServeDefaults(stored_history=True))
        assert columns.static_rows == ([2, 12], [3, 12])
        assert columns.histories == ([3], [4])
        assert columns.user_ids == (1, 2)
        assert all(type(value) is int
                   for row in columns.static_rows + columns.histories for value in row)

    def test_requests_convert_to_exact_ints(self, engine):
        request = ScoreRequest(static_indices=np.array([1, 12]),
                               history=np.array([3, 4]), user_id=np.int64(2))
        columns = ScoreColumns.of([request])
        assert columns.histories == [[3, 4]] and type(columns.user_ids[0]) is int
        store = UserSequenceStore(N)
        records = []
        store.set_journal(records.append)
        MicroBatcher(engine.score, max_seq_len=N, sequence_store=store).score_all([request])
        assert json.loads(json.dumps(records)) == [
            {"op": "put", "user": 2, "fp": [3, 4], "stamp": records[0]["stamp"]}]

    def test_empty_line_is_empty_columns(self, engine):
        columns = default_heads().get("score").parse_all([], ServeDefaults())
        assert len(columns) == 0 and columns == ScoreColumns()
        assert MicroBatcher(engine.score, max_seq_len=N).score_all(columns).shape == (0,)

    def test_rows_slices_every_column(self):
        columns = ScoreColumns([[1], [2], [3]], [None, [4], []], [0, 1, 2], [5, 6, 7])
        tail = columns.rows(1, 3)
        assert len(tail) == 2
        assert (tail.static_rows, tail.histories, tail.user_ids, tail.object_ids) == \
            ([[2], [3]], [[4], []], [1, 2], [6, 7])

    def test_ragged_check_precedes_any_store_call(self, engine):
        store = UserSequenceStore(N)
        records = []
        store.set_journal(records.append)
        batcher = MicroBatcher(engine.score, max_seq_len=N, sequence_store=store)
        with pytest.raises(ValueError, match="same static feature count"):
            batcher.score_all(ScoreColumns([[1, 2], [1, 2, 3]], [[1], [2]], [1, 2], [0, 0]))
        assert records == [] and len(store) == 0 and store.stats.requests == 0


class TestEncodeRows:
    def test_matches_one_row_calls(self):
        rows_store = UserSequenceStore(N, capacity=3, ttl=6.0, clock=tick_clock())
        single_store = UserSequenceStore(N, capacity=3, ttl=6.0, clock=tick_clock())
        user_ids = [1, 2, 1, -1, 3, 4, 1, 2, 7]
        histories = [[1, 2], None, [1, 2], [5], None, list(range(1, 12)), [9], [3], None]
        indices, mask = rows_store.encode_rows(user_ids, histories)
        for row, (user_id, history) in enumerate(zip(user_ids, histories)):
            if user_id < 0:
                expected = pad_sequences([history], N)
                expected = expected[0][0], expected[1][0]
            elif history is None:
                expected = single_store.encode_stored(user_id)
            else:
                expected = single_store.encode(user_id, history)
            np.testing.assert_array_equal(indices[row], expected[0])
            np.testing.assert_array_equal(mask[row], expected[1])
        assert rows_store.snapshot() == single_store.snapshot()
        assert rows_store.stats == single_store.stats

    def test_anonymous_rows_leave_the_store_alone(self):
        store = UserSequenceStore(N)
        records = []
        store.set_journal(records.append)
        indices, mask = store.encode_rows([-1, -5], [[1, 2], None])
        np.testing.assert_array_equal(indices[0], [0, 0, 0, 0, 1, 2])
        assert mask.sum() == 2.0 and records == [] and store.stats.requests == 0

    def test_durable_store_passes_through(self, tmp_path):
        store = DurableSequenceStore(tmp_path, N)
        indices, _ = store.encode_rows([4], [[7, 8]])
        assert store.history(4) == (7, 8)
        np.testing.assert_array_equal(indices[0, -2:], [7, 8])
        store.close()


# --------------------------------------------------------------------------- #
# Integer fields: fractional floats rejected, every head, every field
# --------------------------------------------------------------------------- #
VALID = {
    "score": {"static_indices": [1, 20], "history": [1, 2], "user_id": 1, "object_id": 3},
    "rank-topk": {"static_indices": [1, 20], "candidates": [20, 21], "history": [1, 2],
                  "user_id": 1, "k": 2},
    "recommend": {"static_indices": [1, 20], "history": [1, 2], "user_id": 1, "k": 2,
                  "n_retrieve": 4},
    "update": {"user_id": 1, "events": [3, 4]},
}
FIELDS = [(head, key) for head, payload in VALID.items() for key in payload]


@pytest.fixture(scope="module")
def registry() -> ModelRegistry:
    registry = ModelRegistry()
    model = SeqFM(CONFIG)
    registry.register("m", model)
    registry.build_index("m", list(range(10, 40)), n_retrieve=30)
    return registry


def with_value(head, key, value):
    payload = json.loads(json.dumps(VALID[head]))
    if isinstance(payload[key], list):
        payload[key][0] = value
    else:
        payload[key] = value
    return payload


class TestIntegerFields:
    @pytest.mark.parametrize("head,key", FIELDS)
    def test_fractional_float_is_rejected_naming_the_key(self, registry, head, key):
        payload = with_value(head, key, 5.7)
        with pytest.raises(ProtocolError) as raised:
            registry.serve("m", [payload], head=head)
        assert raised.value.code == ERR_BAD_REQUEST
        assert str(raised.value) == f"{key!r} must be an integer, got 5.7"

    @pytest.mark.parametrize("head,key", FIELDS)
    def test_integral_float_and_numeric_string_still_serve(self, head, key):
        # Each side gets its own registry: update responses depend on the state.
        served = []
        for value in (None, 2.0, "2"):
            registry = ModelRegistry()
            registry.register("m", SeqFM(CONFIG))
            registry.build_index("m", list(range(10, 40)), n_retrieve=30)
            payload = with_value(head, key, 2 if value is None else value)
            served.append(registry.serve("m", [payload], head=head))
        assert served[1] == served[0] and served[2] == served[0]

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), -0.5, 1e-9])
    def test_non_integral_floats(self, value):
        with pytest.raises(ProtocolError, match="'k' must be an integer, got"):
            parse_int(value, "k")

    def test_integral_floats_become_exact_ints(self):
        assert parse_int(-3.0, "k") == -3 and type(parse_int(4.0, "k")) is int
        assert parse_int_list([1.0, "2", 3], "events") == [1, 2, 3]

    def test_one_pass_list_returns_a_copy(self):
        value = [1, 2, 3]
        parsed = parse_int_list(value, "candidates")
        assert parsed == value and parsed is not value
        assert parse_int_list((4, 5), "candidates") == [4, 5]

    @pytest.mark.parametrize("value", [[True, 1], [1, [2]], [1, None], "12", 3, {"a": 1}])
    def test_list_errors_are_unchanged(self, value):
        with pytest.raises(ProtocolError) as raised:
            parse_int_list(value, "events")
        assert raised.value.code == ERR_BAD_REQUEST
        assert "'events' must be" in str(raised.value)
