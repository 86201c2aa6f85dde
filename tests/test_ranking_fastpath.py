"""Tests for the candidate-ranking fast path: decomposed attention kernels,
``InferenceEngine.rank_candidates``/``RankingPlan``, the candidate-expansion
helpers, the batcher/registry rank heads and the ``rank-topk`` service head.

The acceptance bar (ISSUE 3): ``rank_candidates`` matches a per-candidate
``engine.score`` loop to 1e-10 for every view-ablation configuration.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.core.config import SeqFMConfig
from repro.core.model import SeqFM
from repro.data.features import FeatureBatch, FeatureEncoder, pad_sequences
from repro.nn import kernels
from repro.serving import (
    InferenceEngine,
    MicroBatcher,
    ModelRegistry,
    RankRequest,
    UserSequenceStore,
    execute_batch,
    serve_jsonl,
)

ATOL = 1e-10

BASE = dict(static_vocab_size=40, dynamic_vocab_size=30, max_seq_len=8,
            embed_dim=8, dropout=0.4, seed=3)

#: Every view ablation the engine parity suite covers — the ranking fast path
#: must hold on all of them, including single-view models and last-pooling.
ABLATIONS = [
    {},
    {"ffn_layers": 3},
    {"pooling": "last"},
    {"share_ffn": False},
    {"use_layer_norm": False},
    {"use_residual": False},
    {"use_static_view": False},
    {"use_dynamic_view": False},
    {"use_cross_view": False},
    {"use_static_view": False, "use_cross_view": False},
    {"use_static_view": False, "use_dynamic_view": False},
    {"use_dynamic_view": False, "use_cross_view": False},
]


def trained_like(config: SeqFMConfig, seed: int = 11) -> SeqFM:
    model = SeqFM(config)
    rng = np.random.default_rng(seed)
    for parameter in model.parameters():
        parameter.data += rng.normal(0.0, 0.2, parameter.data.shape)
    model.dynamic_embedding.reset_padding()
    return model


def naive_scores(engine: InferenceEngine, profile, candidates, history) -> np.ndarray:
    """The reference: one single-row engine.score call per candidate."""
    dynamic, mask = pad_sequences([list(history)], engine.config.max_seq_len)
    batch = FeatureBatch.for_candidates(profile, candidates, dynamic[0], mask[0])
    return np.concatenate([
        engine.score(FeatureBatch(
            static_indices=batch.static_indices[row:row + 1],
            dynamic_indices=batch.dynamic_indices[row:row + 1],
            dynamic_mask=batch.dynamic_mask[row:row + 1],
            labels=batch.labels[row:row + 1],
            user_ids=batch.user_ids[row:row + 1],
            object_ids=batch.object_ids[row:row + 1],
        ))
        for row in range(len(batch))
    ])


# --------------------------------------------------------------------------- #
# Decomposed attention kernels
# --------------------------------------------------------------------------- #
class TestDecomposedKernels:
    def test_split_matches_fused_attention(self, rng):
        features = rng.normal(size=(3, 5, 4))
        w_q, w_k, w_v = (rng.normal(size=(4, 4)) for _ in range(3))
        mask = np.where(rng.random((3, 5, 5)) > 0.3, 0.0, -1e9)
        queries, keys, values = kernels.project_qkv(features, w_q, w_k, w_v)
        np.testing.assert_array_equal(queries, features @ w_q)
        fused = kernels.scaled_dot_product_attention(
            features @ w_q, features @ w_k, features @ w_v, mask=mask)
        split = kernels.attend_with_cached_kv(queries, keys, values, mask=mask)
        np.testing.assert_allclose(split, fused, rtol=0.0, atol=1e-15)

    def test_cached_kv_broadcasts_over_candidates(self, rng):
        """One (n, d) history K/V serves a (C, n, d) query stack."""
        history_kv = rng.normal(size=(6, 4))
        queries = rng.normal(size=(5, 6, 4))
        out = kernels.attend_with_cached_kv(queries, history_kv, history_kv)
        per_row = np.stack([
            kernels.attend_with_cached_kv(queries[row], history_kv, history_kv)
            for row in range(5)
        ])
        np.testing.assert_allclose(out, per_row, rtol=0.0, atol=1e-15)

    def test_top_k_matches_stable_argsort(self, rng):
        scores = rng.normal(size=50)
        for k in (1, 7, 50, 80):
            expected = np.argsort(-scores, kind="stable")[:k]
            np.testing.assert_array_equal(kernels.top_k(scores, k), expected)

    def test_top_k_breaks_ties_by_index(self):
        scores = np.array([1.0, 3.0, 3.0, 0.5, 3.0])
        np.testing.assert_array_equal(kernels.top_k(scores, 3), [1, 2, 4])

    def test_top_k_ties_straddling_partition_boundary(self, rng):
        """Heavily tied scores must still match a stable full sort exactly —
        argpartition alone is not tie-stable at the selection boundary."""
        for trial in range(200):
            scores = rng.integers(0, 4, size=rng.integers(1, 60)).astype(np.float64)
            k = int(rng.integers(1, scores.size + 1))
            np.testing.assert_array_equal(
                kernels.top_k(scores, k),
                np.argsort(-scores, kind="stable")[:k],
                err_msg=f"trial={trial} k={k} scores={scores.tolist()}",
            )

    def test_top_k_mask_excludes_candidates(self):
        scores = np.array([5.0, 4.0, 3.0, 2.0])
        mask = np.array([0.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(kernels.top_k(scores, 2, mask=mask), [1, 2])
        # fewer eligible than k: shrink, don't pad
        np.testing.assert_array_equal(
            kernels.top_k(scores, 3, mask=np.array([0.0, 0.0, 0.0, 1.0])), [3])
        assert kernels.top_k(scores, 2, mask=np.zeros(4)).size == 0

    def test_top_k_rejects_bad_input(self):
        with pytest.raises(ValueError):
            kernels.top_k(np.zeros((2, 2)), 1)
        with pytest.raises(ValueError):
            kernels.top_k(np.zeros(4), 0)
        with pytest.raises(ValueError):
            kernels.top_k(np.zeros(4), 1, mask=np.zeros(3))


# --------------------------------------------------------------------------- #
# Engine fast path: parity with the per-candidate loop on every ablation
# --------------------------------------------------------------------------- #
class TestRankCandidatesParity:
    @pytest.mark.parametrize("overrides", ABLATIONS)
    def test_matches_per_candidate_score_loop(self, overrides):
        config = SeqFMConfig(**{**BASE, **overrides})
        model = trained_like(config)
        engine = InferenceEngine(model)
        rng = np.random.default_rng(5)
        profile = np.array([3, 0], dtype=np.int64)
        history = [int(item) for item in rng.integers(1, config.dynamic_vocab_size, 5)]
        candidates = rng.integers(0, config.static_vocab_size, 23, dtype=np.int64)
        expected = naive_scores(engine, profile, candidates, history)
        actual = engine.rank_candidates(profile, candidates, history)
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=ATOL)

    @pytest.mark.parametrize("overrides", ABLATIONS)
    def test_matches_model_score_on_expanded_batch(self, overrides):
        """Engine-vs-model parity: the fast path against SeqFM.score itself."""
        config = SeqFMConfig(**{**BASE, **overrides})
        model = trained_like(config)
        engine = InferenceEngine(model)
        rng = np.random.default_rng(6)
        profile = np.array([1, 0], dtype=np.int64)
        history = [int(item) for item in rng.integers(1, config.dynamic_vocab_size, 7)]
        candidates = rng.integers(0, config.static_vocab_size, 17, dtype=np.int64)
        dynamic, mask = pad_sequences([history], config.max_seq_len)
        batch = FeatureBatch.for_candidates(profile, candidates, dynamic[0], mask[0])
        np.testing.assert_allclose(
            engine.rank_candidates(profile, candidates, history),
            model.score(batch),
            rtol=0.0, atol=ATOL,
        )

    def test_empty_history_and_all_padding(self):
        config = SeqFMConfig(**BASE)
        engine = InferenceEngine(trained_like(config))
        profile = np.array([2, 0], dtype=np.int64)
        candidates = np.arange(10, dtype=np.int64)
        scores = engine.rank_candidates(profile, candidates, [])
        assert np.isfinite(scores).all()
        np.testing.assert_allclose(
            scores, naive_scores(engine, profile, candidates, []), rtol=0.0, atol=ATOL)

    def test_history_longer_than_max_seq_len_is_truncated(self):
        config = SeqFMConfig(**BASE)
        engine = InferenceEngine(trained_like(config))
        profile = np.array([2, 0], dtype=np.int64)
        candidates = np.arange(5, dtype=np.int64)
        long_history = [1 + (i % 20) for i in range(3 * config.max_seq_len)]
        np.testing.assert_allclose(
            engine.rank_candidates(profile, candidates, long_history),
            engine.rank_candidates(profile, candidates,
                                   long_history[-config.max_seq_len:]),
            rtol=0.0, atol=0.0,
        )
        # Only the visible suffix is validated: a stale out-of-range event in
        # the truncated-away prefix must not fail the request (the cached
        # sequence-store path truncates before the engine sees indices).
        stale = [999999] + long_history
        np.testing.assert_allclose(
            engine.rank_candidates(profile, candidates, stale),
            engine.rank_candidates(profile, candidates,
                                   long_history[-config.max_seq_len:]),
            rtol=0.0, atol=0.0,
        )

    def test_empty_candidates(self):
        engine = InferenceEngine(trained_like(SeqFMConfig(**BASE)))
        scores = engine.rank_candidates(np.array([1, 0]), [], [1, 2])
        assert scores.shape == (0,)

    def test_plan_reuse_is_identical(self):
        """One plan, many candidate sets: bitwise-equal to per-call plans."""
        config = SeqFMConfig(**BASE)
        engine = InferenceEngine(trained_like(config))
        profile = np.array([4, 0], dtype=np.int64)
        history = [3, 1, 4, 1, 5]
        plan = engine.prepare_ranking(profile, history)
        rng = np.random.default_rng(9)
        for _ in range(3):
            candidates = rng.integers(0, config.static_vocab_size, 11, dtype=np.int64)
            np.testing.assert_array_equal(
                engine.rank_candidates(profile, candidates, history, plan=plan),
                engine.rank_candidates(profile, candidates, history),
            )

    def test_fresh_call_sees_weight_updates(self):
        """Without an explicit plan, the fast path reads current weights."""
        config = SeqFMConfig(**BASE)
        model = trained_like(config)
        engine = InferenceEngine(model)
        profile = np.array([4, 0], dtype=np.int64)
        candidates = np.arange(8, dtype=np.int64)
        before = engine.rank_candidates(profile, candidates, [1, 2])
        model.projection.data[...] += 1.0
        after = engine.rank_candidates(profile, candidates, [1, 2])
        assert not np.allclose(before, after)
        np.testing.assert_allclose(
            after, naive_scores(engine, profile, candidates, [1, 2]),
            rtol=0.0, atol=ATOL)

    def test_rank_topk_orders_best_first(self):
        config = SeqFMConfig(**BASE)
        engine = InferenceEngine(trained_like(config))
        profile = np.array([0, 0], dtype=np.int64)
        candidates = np.arange(10, 34, dtype=np.int64)
        top, top_scores = engine.rank_topk(profile, candidates, 5, [2, 3])
        scores = engine.rank_candidates(profile, candidates, [2, 3])
        expected = np.argsort(-scores, kind="stable")[:5]
        np.testing.assert_array_equal(top, candidates[expected])
        np.testing.assert_array_equal(top_scores, scores[expected])

    def test_prepare_ranking_validates_input(self):
        engine = InferenceEngine(trained_like(SeqFMConfig(**BASE)))
        with pytest.raises(ValueError):
            engine.prepare_ranking(np.array([1, 0]), [], candidate_slot=7)
        with pytest.raises(IndexError):
            engine.prepare_ranking(np.array([999999, 0]), [])
        with pytest.raises(IndexError):
            engine.prepare_ranking(np.array([1, 0]), [999999])
        with pytest.raises(IndexError):
            engine.rank_candidates(np.array([1, 0]), [999999], [])


# --------------------------------------------------------------------------- #
# Index-dtype validation (engine satellite)
# --------------------------------------------------------------------------- #
class TestIndexDtypeValidation:
    def batch(self, **overrides):
        base = dict(
            static_indices=np.array([[1, 2]], dtype=np.int64),
            dynamic_indices=np.array([[0, 0, 1, 2, 3, 4]], dtype=np.int64),
            dynamic_mask=np.array([[0.0, 0.0, 1.0, 1.0, 1.0, 1.0]]),
            labels=np.zeros(1), user_ids=np.zeros(1, dtype=np.int64),
            object_ids=np.zeros(1, dtype=np.int64),
        )
        base.update(overrides)
        return FeatureBatch(**base)

    def test_float_static_indices_rejected(self):
        engine = InferenceEngine(trained_like(SeqFMConfig(**BASE)))
        batch = self.batch(static_indices=np.array([[1.0, 2.0]]))
        with pytest.raises(TypeError, match="integer dtype"):
            engine.score(batch)

    def test_float_dynamic_indices_rejected(self):
        engine = InferenceEngine(trained_like(SeqFMConfig(**BASE)))
        batch = self.batch(dynamic_indices=np.array([[0.0, 0.0, 1.0, 2.0, 3.0, 4.0]]))
        with pytest.raises(TypeError, match="integer dtype"):
            engine.score(batch)

    def test_bool_indices_rejected(self):
        """Bool arrays would silently *mask* rows instead of indexing them."""
        engine = InferenceEngine(trained_like(SeqFMConfig(**BASE)))
        batch = self.batch(static_indices=np.array([[True, False]]))
        with pytest.raises(TypeError, match="integer dtype"):
            engine.score(batch)

    def test_float_candidates_and_history_rejected(self):
        engine = InferenceEngine(trained_like(SeqFMConfig(**BASE)))
        with pytest.raises(TypeError, match="integer dtype"):
            engine.rank_candidates(np.array([1, 0]), np.array([1.0, 2.0]), [1])
        with pytest.raises(TypeError, match="integer dtype"):
            engine.prepare_ranking(np.array([1.5, 0.5]), [1])

    def test_integer_dtypes_still_accepted(self):
        engine = InferenceEngine(trained_like(SeqFMConfig(**BASE)))
        for dtype in (np.int32, np.int64, np.uint8):
            batch = self.batch(static_indices=np.array([[1, 2]], dtype=dtype))
            assert np.isfinite(engine.score(batch)).all()


# --------------------------------------------------------------------------- #
# Candidate-expansion helpers (repro.data.features)
# --------------------------------------------------------------------------- #
class TestCandidateExpansion:
    def test_for_candidates_layout(self):
        profile = np.array([7, 99], dtype=np.int64)
        candidates = np.array([11, 12, 13], dtype=np.int64)
        dynamic, mask = pad_sequences([[1, 2]], 4)
        batch = FeatureBatch.for_candidates(profile, candidates, dynamic[0], mask[0],
                                            user_id=7)
        assert len(batch) == 3
        np.testing.assert_array_equal(batch.static_indices[:, 0], [7, 7, 7])
        np.testing.assert_array_equal(batch.static_indices[:, 1], candidates)
        np.testing.assert_array_equal(batch.dynamic_indices,
                                      np.tile(dynamic, (3, 1)))
        np.testing.assert_array_equal(batch.object_ids, candidates)
        np.testing.assert_array_equal(batch.user_ids, [7, 7, 7])
        assert batch.dynamic_tile == 3  # rows share one history group

    def test_for_candidates_validation(self):
        dynamic, mask = pad_sequences([[1]], 4)
        with pytest.raises(ValueError):
            FeatureBatch.for_candidates(np.array([1, 2]), np.array([], dtype=np.int64),
                                        dynamic[0], mask[0])
        with pytest.raises(ValueError):
            FeatureBatch.for_candidates(np.array([1, 2]), np.array([3]),
                                        dynamic[0], mask[0], candidate_slot=5)

    def test_encode_candidates_matches_encode(self, tiny_log):
        encoder = FeatureEncoder(tiny_log, max_seq_len=4)
        history = tiny_log.by_user()[0][:-1]
        candidate_objects = encoder.known_objects()[:4]
        profile, candidates, dyn_history = encoder.encode_candidates(
            0, candidate_objects, history)
        assert candidates.shape == (4,)
        for position, obj in enumerate(candidate_objects):
            example = encoder.encode(0, obj, history)
            assert candidates[position] == example.static_indices[1]
            assert profile[0] == example.static_indices[0]
            padded, _ = pad_sequences([dyn_history], encoder.max_seq_len)
            np.testing.assert_array_equal(padded[0], example.dynamic_indices)

    def test_encode_candidates_rejects_unknown(self, tiny_log):
        encoder = FeatureEncoder(tiny_log, max_seq_len=4)
        with pytest.raises(KeyError):
            encoder.encode_candidates(999, [10], [])
        with pytest.raises(KeyError):
            encoder.encode_candidates(0, [999], [])
        with pytest.raises(ValueError):
            encoder.encode_candidates(0, [], [])


# --------------------------------------------------------------------------- #
# Batcher rank head, registry endpoint, service head
# --------------------------------------------------------------------------- #
CONFIG = SeqFMConfig(static_vocab_size=40, dynamic_vocab_size=30, max_seq_len=6,
                     embed_dim=8, dropout=0.0, seed=5)


@pytest.fixture
def model() -> SeqFM:
    return trained_like(CONFIG, seed=2)


@pytest.fixture
def engine(model: SeqFM) -> InferenceEngine:
    return InferenceEngine(model)


class TestRankHead:
    def test_rank_head_matches_engine(self, engine):
        store = UserSequenceStore(CONFIG.max_seq_len, capacity=4)
        batcher = MicroBatcher(engine.score, max_seq_len=CONFIG.max_seq_len,
                               sequence_store=store, rank_fn=engine.rank_topk)
        request = RankRequest(static_indices=[2, 0], candidates=list(range(10, 30)),
                              history=[1, 2, 3], user_id=5)
        result = batcher.rank(request, k=4)
        scores = engine.rank_candidates([2, 0], list(range(10, 30)), [1, 2, 3])
        order = np.argsort(-scores, kind="stable")[:4]
        np.testing.assert_array_equal(result.candidates,
                                      np.arange(10, 30, dtype=np.int64)[order])
        np.testing.assert_allclose(result.scores, scores[order], rtol=0.0, atol=ATOL)
        assert len(result) == 4
        # repeat request hits the sequence store
        batcher.rank(request, k=4)
        assert store.stats.hits == 1
        assert batcher.stats.rows_scored == 40

    def test_rank_head_without_store(self, engine):
        batcher = MicroBatcher(engine.score, max_seq_len=CONFIG.max_seq_len,
                               rank_fn=engine.rank_topk)
        request = RankRequest(static_indices=[2, 0], candidates=[10, 11], history=[1])
        result = batcher.rank(request)  # no k: every candidate, ranked
        assert len(result) == 2
        assert result.scores[0] >= result.scores[1]

    def test_request_k_is_default_cut(self, engine):
        batcher = MicroBatcher(engine.score, max_seq_len=CONFIG.max_seq_len,
                               rank_fn=engine.rank_topk)
        request = RankRequest(static_indices=[2, 0], candidates=[10, 11, 12], k=2)
        assert len(batcher.rank(request)) == 2
        assert len(batcher.rank(request, k=1)) == 1  # explicit k wins

    def test_empty_candidates(self, engine):
        batcher = MicroBatcher(engine.score, max_seq_len=CONFIG.max_seq_len,
                               rank_fn=engine.rank_topk)
        result = batcher.rank(RankRequest(static_indices=[2, 0], candidates=[]))
        assert len(result) == 0

    def test_missing_rank_fn_raises(self, engine):
        batcher = MicroBatcher(engine.score, max_seq_len=CONFIG.max_seq_len)
        with pytest.raises(RuntimeError):
            batcher.rank(RankRequest(static_indices=[2, 0], candidates=[1]))

    def test_registry_rank_topk(self, model):
        registry = ModelRegistry()
        registry.register("m", model)
        result = registry.rank_topk("m", [2, 0], list(range(10, 25)), 3,
                                    history=[1, 2], user_id=4)
        engine = registry.get("m").engine
        scores = engine.rank_candidates([2, 0], list(range(10, 25)), [1, 2])
        order = np.argsort(-scores, kind="stable")[:3]
        np.testing.assert_array_equal(result.candidates,
                                      np.arange(10, 25, dtype=np.int64)[order])
        # the shared sequence store caches across calls
        registry.rank_topk("m", [2, 0], list(range(10, 25)), 3,
                           history=[1, 2], user_id=4)
        assert registry.get("m").sequence_store.stats.hits == 1

    def test_registry_batcher_rejects_unknown_head(self, model):
        registry = ModelRegistry()
        registry.register("m", model)
        with pytest.raises(ValueError):
            registry.get("m").batcher(head="frobnicate")


class TestRankTopkService:
    def payloads(self):
        return [
            {"static_indices": [2, 0], "candidates": [10, 11, 12, 13],
             "history": [1, 2], "user_id": 1, "k": 2},
            {"static_indices": [3, 0], "candidates": [20, 21]},
        ]

    def test_rank_topk_serve_payload(self, model):
        registry = ModelRegistry()
        registry.register("m", model)
        response = registry.serve("m", self.payloads(), head="rank-topk")
        assert response["head"] == "rank-topk"
        assert len(response["results"]) == 2
        assert len(response["results"][0]["candidates"]) == 2  # per-request k
        assert len(response["results"][1]["candidates"]) == 2  # no k: all ranked
        stats = response["stats"]
        assert stats["requests"] == 2 and stats["candidates_ranked"] == 6
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0

    def test_default_k_applies_to_bare_requests(self, model):
        registry = ModelRegistry()
        registry.register("m", model)
        response = registry.serve("m", self.payloads(), head="rank-topk", k=1)
        assert len(response["results"][0]["candidates"]) == 2  # request k wins
        assert len(response["results"][1]["candidates"]) == 1  # default applied

    def test_execute_batch_delegates_rank_topk_head(self, model):
        registry = ModelRegistry()
        registry.register("m", model)
        response = execute_batch(registry, "m", self.payloads(), head="rank-topk")
        assert response["head"] == "rank-topk" and "results" in response

    def test_serve_stats_carry_hit_rate(self, model):
        registry = ModelRegistry()
        registry.register("m", model)
        payloads = [{"static_indices": [1, 2], "history": [1], "user_id": 3}] * 2
        response = registry.serve("m", payloads)
        assert response["stats"]["cache_hits"] == 1
        assert response["stats"]["cache_hit_rate"] == 0.5

    def test_rank_topk_serve_rejects_empty(self, model):
        registry = ModelRegistry()
        registry.register("m", model)
        with pytest.raises(ValueError):
            registry.serve("m", [], head="rank-topk")

    def test_serve_jsonl_rank_topk_head(self, model):
        registry = ModelRegistry()
        registry.register("m", model)
        lines = [json.dumps(self.payloads()[0]),        # dict → bare result
                 json.dumps(self.payloads()),           # list → {"results": [...]}
                 json.dumps({"candidates": [1]})]       # missing static_indices
        output = io.StringIO()
        summary = serve_jsonl(registry, "m", io.StringIO("\n".join(lines) + "\n"),
                              output, head="rank-topk")
        responses = [json.loads(line) for line in output.getvalue().splitlines()]
        # rows = returned items: line 1 cuts 4 candidates to k=2, line 2
        # returns 2 (k=2) + 2 (no k → all candidates).
        assert summary.rows == 2 + 4
        assert summary.lines == 3 and summary.errors == 1 and summary.served == 2
        assert responses[0]["candidates"] == responses[1]["results"][0]["candidates"]
        assert len(responses[1]["results"]) == 2
        assert "error" in responses[2]

    def test_serve_jsonl_rank_topk_default_k(self, model):
        registry = ModelRegistry()
        registry.register("m", model)
        line = json.dumps({"static_indices": [2, 0], "candidates": [10, 11, 12]})
        output = io.StringIO()
        serve_jsonl(registry, "m", io.StringIO(line + "\n"), output,
                    head="rank-topk", k=2)
        response = json.loads(output.getvalue())
        assert len(response["candidates"]) == 2
