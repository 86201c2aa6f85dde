"""Tests for the serving runtime around the engine: micro-batcher invariants,
LRU caching, the model registry and the JSONL service front-end."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.core.config import SeqFMConfig
from repro.core.model import SeqFM
from repro.data.batching import pad_sequences
from repro.data.features import FeatureBatch, FeatureEncoder, PADDING_INDEX
from repro.serving import (
    InferenceEngine,
    LRUCache,
    MicroBatcher,
    ModelRegistry,
    ScoreRequest,
    UserSequenceStore,
    serve_jsonl,
)

CONFIG = SeqFMConfig(static_vocab_size=40, dynamic_vocab_size=30, max_seq_len=6,
                     embed_dim=8, dropout=0.0, seed=5)


@pytest.fixture
def model() -> SeqFM:
    model = SeqFM(CONFIG)
    rng = np.random.default_rng(2)
    for parameter in model.parameters():
        parameter.data += rng.normal(0.0, 0.2, parameter.data.shape)
    model.dynamic_embedding.reset_padding()
    return model


@pytest.fixture
def engine(model: SeqFM) -> InferenceEngine:
    return InferenceEngine(model)


def make_requests(count: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    requests = []
    for index in range(count):
        length = int(rng.integers(0, 10))  # some longer than max_seq_len
        requests.append(ScoreRequest(
            static_indices=[int(rng.integers(0, 40)), int(rng.integers(0, 40))],
            history=[int(item) for item in rng.integers(1, 30, length)],
            user_id=index % 7,
            object_id=index,
        ))
    return requests


# --------------------------------------------------------------------------- #
# pad_sequences collation
# --------------------------------------------------------------------------- #
class TestPadSequences:
    def test_matches_feature_encoder_layout(self, tiny_log):
        encoder = FeatureEncoder(tiny_log, max_seq_len=4)
        user_id = 0
        events = tiny_log.by_user()[user_id]
        history, candidate = events[:-1], events[-1]
        example = encoder.encode(user_id, candidate.object_id, history)
        raw = [int(encoder.dynamic_object_index(event.object_id)) for event in history]
        indices, mask = pad_sequences([raw], max_seq_len=4)
        np.testing.assert_array_equal(indices[0], example.dynamic_indices)
        np.testing.assert_array_equal(mask[0], example.dynamic_mask)

    def test_left_padding_and_truncation(self):
        indices, mask = pad_sequences([[1, 2], [], [5, 6, 7, 8, 9]], max_seq_len=3)
        np.testing.assert_array_equal(indices[0], [PADDING_INDEX, 1, 2])
        np.testing.assert_array_equal(mask[0], [0.0, 1.0, 1.0])
        np.testing.assert_array_equal(indices[1], [PADDING_INDEX] * 3)
        np.testing.assert_array_equal(mask[1], [0.0, 0.0, 0.0])
        # truncation keeps the most recent events
        np.testing.assert_array_equal(indices[2], [7, 8, 9])
        np.testing.assert_array_equal(mask[2], [1.0, 1.0, 1.0])

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            pad_sequences([[1]], max_seq_len=0)


# --------------------------------------------------------------------------- #
# Micro-batcher
# --------------------------------------------------------------------------- #
class TestMicroBatcher:
    def test_results_in_submission_order(self, engine):
        requests = make_requests(23, seed=1)
        batcher = MicroBatcher(engine.score, max_batch_size=5, max_seq_len=CONFIG.max_seq_len)
        scores = batcher.score_all(requests)
        # reference: score each request alone (batch of one)
        singles = np.array([
            float(engine.score(batcher.collate([request]))[0]) for request in requests
        ])
        np.testing.assert_allclose(scores, singles, atol=1e-9)
        assert batcher.stats.batches >= 5  # 23 requests / max 5 per flush

    def test_chunks_at_max_batch_size(self, engine):
        """11 rows at max 4 are three engine calls, each scoring its chunk."""
        calls = []

        def score_fn(batch):
            calls.append(len(batch))
            return engine.score(batch)

        batcher = MicroBatcher(score_fn, max_batch_size=4, max_seq_len=CONFIG.max_seq_len)
        requests = make_requests(11, seed=2)
        scores = batcher.score_all(requests)
        assert calls == [4, 4, 3]
        chunks = [requests[start:start + 4] for start in range(0, 11, 4)]
        expected = np.concatenate([engine.score(batcher.collate(chunk)) for chunk in chunks])
        np.testing.assert_array_equal(scores, expected)
        assert (batcher.stats.requests, batcher.stats.batches,
                batcher.stats.rows_scored) == (11, 3, 11)

    def test_exact_multiple_makes_no_empty_chunk(self, engine):
        batcher = MicroBatcher(engine.score, max_batch_size=4, max_seq_len=CONFIG.max_seq_len)
        assert batcher.score_all(make_requests(8)).shape == (8,)
        assert batcher.stats.batches == 2 and batcher.stats.mean_batch_size == 4.0

    def test_failing_chunk_raises_its_first_error_after_every_chunk(self, engine):
        """A poison row fails its chunk; later chunks still run, and the first
        chunk's error is the one raised."""
        store = UserSequenceStore(CONFIG.max_seq_len, capacity=64)
        batcher = MicroBatcher(engine.score, max_batch_size=2, max_seq_len=CONFIG.max_seq_len,
                               sequence_store=store)
        good = make_requests(3, seed=5)
        poison = [ScoreRequest(static_indices=[999999, 0], user_id=20),
                  ScoreRequest(static_indices=[0, 1], history=[CONFIG.dynamic_vocab_size],
                               user_id=21)]
        requests = [good[0], poison[0], good[1], good[2], poison[1], good[0]]
        with pytest.raises(IndexError, match="^static feature index out of range"):
            batcher.score_all(requests)
        assert (batcher.stats.requests, batcher.stats.batches,
                batcher.stats.rows_scored) == (6, 1, 2)
        assert 21 in store          # the failing last chunk still encoded its rows
        # the batcher is not wedged: the good rows score on their own
        np.testing.assert_array_equal(batcher.score_all(good[1:3]),
                                      engine.score(batcher.collate(good[1:3])))

    def test_empty_input_scores_nothing(self, engine):
        calls = []
        batcher = MicroBatcher(lambda batch: calls.append(batch), max_batch_size=4,
                               max_seq_len=CONFIG.max_seq_len)
        scores = batcher.score_all([])
        assert scores.shape == (0,) and scores.dtype == np.float64
        assert calls == [] and batcher.stats.batches == 0
        with pytest.raises(ValueError, match="zero requests"):
            batcher.collate([])

    def test_wrong_score_shape_is_an_error(self, engine):
        batcher = MicroBatcher(lambda batch: np.zeros(len(batch) + 1),
                               max_seq_len=CONFIG.max_seq_len)
        with pytest.raises(ValueError, match="expected \\(3,\\)"):
            batcher.score_all(make_requests(3))
        assert batcher.stats.batches == 0

    def test_collate_padding_invariants(self, engine):
        batcher = MicroBatcher(engine.score, max_batch_size=8, max_seq_len=CONFIG.max_seq_len)
        requests = make_requests(8, seed=3)
        batch = batcher.collate(requests)
        assert isinstance(batch, FeatureBatch)
        assert batch.dynamic_indices.shape == (8, CONFIG.max_seq_len)
        # mask marks exactly the non-padding slots, padding slots hold index 0
        np.testing.assert_array_equal(batch.dynamic_mask > 0, batch.dynamic_indices != 0)
        for row, request in enumerate(requests):
            expected, _ = pad_sequences([request.history], CONFIG.max_seq_len)
            np.testing.assert_array_equal(batch.dynamic_indices[row], expected[0])

    def test_rejects_ragged_static_features(self, engine):
        batcher = MicroBatcher(engine.score, max_batch_size=4, max_seq_len=CONFIG.max_seq_len)
        with pytest.raises(ValueError):
            batcher.collate([ScoreRequest(static_indices=[1, 2]),
                             ScoreRequest(static_indices=[1, 2, 3])])

    def test_sequence_store_does_not_change_scores(self, engine):
        requests = make_requests(30, seed=4)
        plain = MicroBatcher(engine.score, max_batch_size=10,
                             max_seq_len=CONFIG.max_seq_len)
        cached = MicroBatcher(engine.score, max_batch_size=10,
                              max_seq_len=CONFIG.max_seq_len,
                              sequence_store=UserSequenceStore(CONFIG.max_seq_len, capacity=64))
        np.testing.assert_array_equal(plain.score_all(requests), cached.score_all(requests))

    def test_store_seq_len_mismatch_rejected(self, engine):
        with pytest.raises(ValueError):
            MicroBatcher(engine.score, max_seq_len=CONFIG.max_seq_len,
                         sequence_store=UserSequenceStore(CONFIG.max_seq_len + 1))


# --------------------------------------------------------------------------- #
# LRU cache + user-sequence store
# --------------------------------------------------------------------------- #
class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1       # refreshes "a"
        cache.put("c", 3)                # evicts "b", the LRU entry
        assert "b" not in cache
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_put_updates_existing_without_eviction(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("a", 10)
        cache.put("b", 2)
        assert len(cache) == 2 and cache.stats.evictions == 0
        assert cache.get("a") == 10

    def test_stats_and_capacity_validation(self):
        cache = LRUCache(capacity=1)
        cache.get("missing")
        cache.put("x", 1)
        cache.get("x")
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5
        with pytest.raises(ValueError):
            LRUCache(capacity=0)

    def test_hit_rate_of_empty_cache_is_zero(self):
        assert LRUCache(capacity=4).stats.hit_rate == 0.0

    def test_overwrite_at_capacity_does_not_evict(self):
        """Updating the key that fills the cache must not count an eviction."""
        cache = LRUCache(capacity=1)
        cache.put("a", 1)
        cache.put("a", 2)
        cache.put("a", 3)
        assert len(cache) == 1 and cache.stats.evictions == 0
        assert cache.get("a") == 3

    def test_overwrite_refreshes_recency(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)       # "a" becomes MRU
        cache.put("c", 3)        # evicts "b", not "a"
        assert "a" in cache and "b" not in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_pop_and_clear_leave_stats_untouched(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        assert cache.pop("a") == 1
        assert cache.pop("a") is None      # popping a missing key is not a miss
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.requests == 0 and cache.stats.evictions == 0

    def test_capacity_one_churn_counts_every_eviction(self):
        cache = LRUCache(capacity=1)
        for index in range(5):
            cache.put(index, index)
        assert cache.stats.evictions == 4
        assert cache.keys() == [4]


class TestUserSequenceStore:
    def test_hit_on_repeat_history(self):
        store = UserSequenceStore(max_seq_len=4, capacity=8)
        first_i, first_m = store.encode(1, [3, 4, 5])
        second_i, second_m = store.encode(1, [3, 4, 5])
        assert store.stats.hits == 1 and store.stats.misses == 1
        assert second_i is first_i and second_m is first_m  # no re-encoding

    def test_changed_history_is_reencoded(self):
        store = UserSequenceStore(max_seq_len=4, capacity=8)
        store.encode(1, [3, 4, 5])
        indices, mask = store.encode(1, [3, 4, 5, 6])
        assert store.stats.misses == 2 and store.stats.hits == 0
        expected, _ = pad_sequences([[3, 4, 5, 6]], 4)
        np.testing.assert_array_equal(indices, expected[0])

    def test_only_visible_suffix_matters(self):
        """Prefix events beyond max_seq_len do not invalidate the cache."""
        store = UserSequenceStore(max_seq_len=3, capacity=8)
        store.encode(1, [9, 1, 2, 3])
        store.encode(1, [8, 8, 1, 2, 3])  # same last-3 suffix
        assert store.stats.hits == 1

    def test_lru_eviction_of_users(self):
        store = UserSequenceStore(max_seq_len=3, capacity=2)
        store.encode(1, [1])
        store.encode(2, [2])
        store.encode(3, [3])  # evicts user 1
        assert 1 not in store and 2 in store and 3 in store
        assert store.stats.evictions == 1

    def test_append_event_keeps_entry_fresh(self):
        store = UserSequenceStore(max_seq_len=3, capacity=8)
        store.encode(7, [1, 2, 3])
        store.append_event(7, 4)
        indices, _ = store.encode(7, [1, 2, 3, 4])  # matches appended state
        assert store.stats.hits == 1
        np.testing.assert_array_equal(indices, [2, 3, 4])

    def test_invalidate(self):
        store = UserSequenceStore(max_seq_len=3, capacity=8)
        store.encode(7, [1])
        store.invalidate(7)
        assert 7 not in store

    def test_hit_rate_with_zero_requests_is_zero(self):
        """The zero-request edge: hit_rate must not divide by zero."""
        store = UserSequenceStore(max_seq_len=3, capacity=8)
        assert store.stats.requests == 0
        assert store.stats.hit_rate == 0.0
        store.encode(1, [1, 2])
        assert store.stats.hit_rate == 0.0  # one miss, still well-defined
        store.encode(1, [1, 2])
        assert store.stats.hit_rate == 0.5

    def test_record_creates_cold_users_and_extends_warm_ones(self):
        store = UserSequenceStore(max_seq_len=4, capacity=8)
        entry = store.record(3, [1, 2])
        assert entry.fingerprint == (1, 2) and store.history(3) == (1, 2)
        store.record(3, [3, 4, 5])
        assert store.history(3) == (2, 3, 4, 5)   # visible suffix only
        indices, mask = store.encode_stored(3)
        expected_indices, expected_mask = pad_sequences([[2, 3, 4, 5]], 4)
        np.testing.assert_array_equal(indices, expected_indices[0])
        np.testing.assert_array_equal(mask, expected_mask[0])

    def test_append_event_ignores_cold_users(self):
        store = UserSequenceStore(max_seq_len=4, capacity=8)
        store.append_event(9, 1)
        assert 9 not in store and len(store) == 0

    def test_append_event_refreshes_the_ttl_stamp(self):
        clock = {"now": 0.0}
        store = UserSequenceStore(max_seq_len=6, capacity=8, ttl=10.0,
                                  clock=lambda: clock["now"])
        store.record(1, [1, 2])
        store.record(2, [3])
        clock["now"] = 5.0
        store.append_event(2, 4)
        clock["now"] = 11.0
        # User 1's entry (stamp 0.0) has expired, user 2's (stamp 5.0) lives.
        assert store.history(1) is None
        assert store.history(2) == (3, 4)
        clock["now"] = 20.0
        assert store.history(2) is None
        assert store.stats.evictions == 2   # expiries count as evictions

    def test_snapshot_round_trips_contents_and_recency(self):
        store = UserSequenceStore(max_seq_len=6, capacity=3)
        store.record(1, [1])
        store.record(2, [2, 3])
        store.record(3, [4])
        store.history(1)                    # 2 is now the LRU victim
        snapshot = store.snapshot()
        assert [entry[0] for entry in snapshot["entries"]] == [2, 3, 1]
        clone = UserSequenceStore(max_seq_len=6, capacity=3)
        clone.restore(snapshot)
        assert clone.snapshot() == snapshot
        clone.record(4, [5])                # evicts 2, as the original would
        assert 2 not in clone and 1 in clone and 3 in clone

    def test_snapshot_carries_the_store_geometry(self):
        snapshot = UserSequenceStore(max_seq_len=5, capacity=7, ttl=2.5).snapshot()
        assert snapshot == {"max_seq_len": 5, "capacity": 7, "ttl": 2.5,
                            "entries": []}

    def test_restore_rejects_a_different_max_seq_len(self):
        store = UserSequenceStore(max_seq_len=6)
        store.record(1, [1, 2])
        other = UserSequenceStore(max_seq_len=8)
        other.record(5, [5])
        with pytest.raises(ValueError, match="max_seq_len"):
            other.restore(store.snapshot())
        assert other.history(5) == (5,)     # refused before touching state

    def test_journal_sees_each_mutation_before_it_lands(self):
        store = UserSequenceStore(max_seq_len=4, capacity=8)
        seen = []

        def journal(record):
            resident = [entry[1] for entry in store.snapshot()["entries"]]
            seen.append((record["op"], record["fp"], resident))

        store.record(1, [1])
        store.set_journal(journal)
        store.record(1, [2])
        # The record names the new suffix while the old one is still resident.
        assert seen == [("record", [1, 2], [[1]])]
        store.set_journal(None)
        assert store.history(1) == (1, 2)

    def test_raising_journal_aborts_the_mutation(self):
        store = UserSequenceStore(max_seq_len=4, capacity=8)
        store.record(1, [1, 2])
        before = store.snapshot()

        def refuse(record):
            raise OSError("disk full")

        store.set_journal(refuse)
        for mutate in (lambda: store.record(1, [3]),
                       lambda: store.record(2, [3]),
                       lambda: store.encode(1, [7, 8]),
                       lambda: store.append_event(1, 9),
                       lambda: store.invalidate(1),
                       store.clear):
            with pytest.raises(OSError):
                mutate()
            assert store.snapshot() == before

    def test_put_at_capacity_journals_the_eviction_victim(self):
        store = UserSequenceStore(max_seq_len=4, capacity=2)
        records = []
        store.set_journal(records.append)
        store.record(1, [1])
        store.record(2, [2])
        store.record(3, [3])
        assert [(r["op"], r.get("user")) for r in records] == [
            ("record", 1), ("record", 2), ("record", 3), ("evict", 1)]
        assert records[2]["events"] == [3] and records[2]["fp"] == [3]

    def test_replaying_the_journal_twice_is_idempotent(self):
        store = UserSequenceStore(max_seq_len=4, capacity=3)
        records = []
        store.set_journal(records.append)
        for user, events in [(1, [1, 2]), (2, [3]), (1, [4]), (3, [5]), (4, [6])]:
            store.record(user, events)
        store.encode(2, [9, 9])
        store.invalidate(3)
        replica = UserSequenceStore(max_seq_len=4, capacity=3)
        for record in records + records:
            replica.apply_journal(record)
        assert replica.snapshot() == store.snapshot()

    def test_invalidating_a_cold_user_journals_nothing(self):
        store = UserSequenceStore(max_seq_len=4, capacity=8)
        records = []
        store.set_journal(records.append)
        store.invalidate(42)
        assert records == []

    def test_interleaved_users_keep_their_own_suffix(self):
        """Six clients' writes and reads interleave on one store: every read
        sees exactly its own user's last events, and every read is a hit."""
        store = UserSequenceStore(max_seq_len=6, capacity=256)
        per_user_events = {}
        rngs = [np.random.default_rng(worker) for worker in range(6)]
        for _ in range(300):
            for worker, rng in enumerate(rngs):
                user_id = worker * 4 + int(rng.integers(0, 4))
                event = int(rng.integers(1, 29))
                store.record(user_id, [event])
                per_user_events.setdefault(user_id, []).append(event)
                expected = tuple(per_user_events[user_id][-6:])
                assert store.history(user_id) == expected
                indices, _ = store.encode_stored(user_id)
                assert tuple(int(i) for i in indices[-len(expected):]) == expected
        assert len(store) == 24
        for user_id, events in per_user_events.items():
            assert store.history(user_id) == tuple(events[-6:])
        assert store.stats.hits == 6 * 300   # every encode_stored was a hit


# --------------------------------------------------------------------------- #
# Registry + service
# --------------------------------------------------------------------------- #
class TestModelRegistry:
    def test_checkpoint_round_trip_preserves_scores(self, model, engine, tmp_path):
        batch = MicroBatcher(engine.score, max_seq_len=CONFIG.max_seq_len).collate(
            make_requests(6)
        )
        expected = model.score(batch)

        registry = ModelRegistry()
        registry.register("seqfm", model)
        path = registry.save("seqfm", tmp_path / "seqfm.npz")

        fresh = ModelRegistry()
        entry = fresh.load("seqfm", path)
        assert entry.model.config == model.config
        np.testing.assert_allclose(fresh.rank("seqfm", batch), expected,
                                   rtol=0.0, atol=1e-10)

    def test_hot_reload_keeps_engine(self, model, tmp_path):
        registry = ModelRegistry()
        entry = registry.register("seqfm", model)
        registry.save("seqfm", tmp_path / "v1.npz")
        model.projection.data[...] += 0.5
        registry.save("seqfm", tmp_path / "v2.npz")
        reloaded = registry.load("seqfm", tmp_path / "v1.npz")
        assert reloaded is entry  # same holder: weights swapped in place
        assert reloaded.engine is entry.engine

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_register_refuses_a_non_finite_parameter(self, model, bad):
        model.projection.data[3] = bad
        registry = ModelRegistry()
        with pytest.raises(ValueError, match="'projection'"):
            registry.register("m", model)
        assert "m" not in registry

    def test_load_refuses_a_checkpoint_with_a_nan_array(self, model, tmp_path):
        """The hot-swap path the online promotion takes: a NaN array in the
        checkpoint leaves the served weights as they were."""
        registry = ModelRegistry()
        entry = registry.register("seqfm", model)
        path = registry.save("seqfm", tmp_path / "seqfm.npz")
        with np.load(path) as archive:
            arrays = dict(archive)
        name = next(key for key in arrays if key.startswith("static_embedding"))
        arrays[name] = np.full_like(arrays[name], np.nan)
        np.savez(path, **arrays)
        before = model.state_dict()

        with pytest.raises(ValueError, match=repr(name)):
            registry.load("seqfm", path)
        with pytest.raises(ValueError, match=repr(name)):
            ModelRegistry().load("seqfm", path)
        assert registry.get("seqfm") is entry
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[key])

    def test_endpoints_mirror_task_heads(self, model):
        registry = ModelRegistry()
        registry.register("m", model)
        batch = MicroBatcher(InferenceEngine(model).score,
                             max_seq_len=CONFIG.max_seq_len).collate(make_requests(5))
        scores = registry.rank("m", batch)
        probabilities = registry.classify("m", batch)
        np.testing.assert_allclose(
            probabilities, 1.0 / (1.0 + np.exp(-np.clip(scores, -60, 60))), atol=1e-12
        )
        np.testing.assert_array_equal(registry.regress("m", batch), scores)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            ModelRegistry().get("nope")

    def test_names_and_membership(self, model):
        registry = ModelRegistry()
        registry.register("b", model)
        registry.register("a", model)
        assert registry.names() == ["a", "b"]
        assert "a" in registry and len(registry) == 2
        registry.unregister("a")
        assert "a" not in registry

    def test_store_follows_the_registry_geometry(self, model):
        registry = ModelRegistry(cache_capacity=17, cache_ttl=3.0)
        store = registry.register("m", model).sequence_store
        assert type(store) is UserSequenceStore
        assert store.capacity == 17 and store.ttl == 3.0
        assert store.max_seq_len == CONFIG.max_seq_len

    def test_overwriting_a_registration_starts_an_empty_store(self, model):
        registry = ModelRegistry()
        registry.register("m", model).sequence_store.record(1, [2, 3])
        with pytest.raises(ValueError, match="already registered"):
            registry.register("m", model)
        assert registry.get("m").sequence_store.history(1) == (2, 3)
        store = registry.register("m", model, overwrite=True).sequence_store
        assert len(store) == 0 and store.history(1) is None

    def test_enable_durability_keeps_geometry_and_recovers(self, model, tmp_path):
        registry = ModelRegistry(cache_capacity=5, cache_ttl=60.0)
        registry.register("m", model)
        durable = registry.enable_durability("m", tmp_path / "state")
        assert registry.get("m").sequence_store is durable
        assert durable.capacity == 5 and durable.ttl == 60.0
        registry.serve("m", [{"user_id": 2, "events": [4, 5]}], head="update")
        durable.close()

        fresh = ModelRegistry(cache_capacity=5, cache_ttl=60.0)
        fresh.register("m", model)
        recovered = fresh.enable_durability("m", tmp_path / "state")
        assert recovered.history(2) == (4, 5)
        recovered.close()


class TestService:
    def payloads(self, count=5):
        return [
            {"static_indices": [index, 20 + index], "history": [1 + index, 2 + index],
             "user_id": index, "object_id": index}
            for index in range(count)
        ]

    def test_serve_payload(self, model):
        registry = ModelRegistry()
        registry.register("m", model)
        response = registry.serve("m", self.payloads(), head="classify",
                                  max_batch_size=2)
        assert response["model"] == "m" and response["head"] == "classify"
        assert len(response["scores"]) == 5
        assert all(0.0 < score < 1.0 for score in response["scores"])
        assert response["stats"]["batches"] >= 3  # 5 requests, flush at 2

    def test_serve_rejects_empty_and_bad_head(self, model):
        registry = ModelRegistry()
        registry.register("m", model)
        with pytest.raises(ValueError):
            registry.serve("m", [])
        with pytest.raises(ValueError):
            registry.serve("m", self.payloads(), head="frobnicate")

    def test_engine_rejects_out_of_range_indices(self, engine):
        batcher = MicroBatcher(engine.score, max_seq_len=CONFIG.max_seq_len)
        with pytest.raises(IndexError):
            engine.score(batcher.collate([ScoreRequest(static_indices=[999999, 0])]))
        with pytest.raises(IndexError):
            engine.score(batcher.collate([ScoreRequest(static_indices=[0, 1],
                                                       history=[CONFIG.dynamic_vocab_size])]))

    def test_serve_jsonl_survives_bad_request(self, model):
        """An out-of-range index must error that line, not kill the loop."""
        registry = ModelRegistry()
        registry.register("m", model)
        bad = {"static_indices": [999999, 0], "history": []}
        lines = [json.dumps(bad), json.dumps(self.payloads(1)[0])]
        output = io.StringIO()
        summary = serve_jsonl(registry, "m", io.StringIO("\n".join(lines) + "\n"), output)
        responses = [json.loads(line) for line in output.getvalue().splitlines()]
        assert summary.rows == 1
        assert summary.errors == 1
        assert summary.error_codes == {"execution_error": 1}
        error = responses[0]["error"]
        assert error["code"] == "execution_error"
        assert error["line"] == 1
        assert "out of range" in error["message"]
        assert len(responses[1]["scores"]) == 1

    def test_serve_jsonl_round_trip(self, model):
        registry = ModelRegistry()
        registry.register("m", model)
        lines = [json.dumps(self.payloads(1)[0]), "", json.dumps(self.payloads(3)),
                 "this is not json"]
        output = io.StringIO()
        summary = serve_jsonl(registry, "m", io.StringIO("\n".join(lines) + "\n"), output)
        responses = [json.loads(line) for line in output.getvalue().splitlines()]
        assert summary.rows == 4  # 1 + 3 scored rows; blank skipped, bad line errored
        assert summary.lines == 3  # blank line not counted
        assert summary.errors == 1 and summary.served == 2
        assert len(responses) == 3
        assert len(responses[0]["scores"]) == 1
        assert len(responses[1]["scores"]) == 3
        assert "error" in responses[2]
