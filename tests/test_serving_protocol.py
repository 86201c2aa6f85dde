"""Tests for the serving protocol: envelopes, the head registry, structured
errors, the stateful update head, per-request model routing, the
golden-file wire-format contract and the serve loop's summary counters."""

from __future__ import annotations

import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import SeqFMConfig
from repro.core.model import SeqFM
from repro.data.features import FeatureBatch, FeatureEncoder, pad_sequences
from repro.serving import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    HeadRegistry,
    ModelRegistry,
    ProtocolError,
    ServeDefaults,
    ServingRouter,
    UserSequenceStore,
    default_heads,
    parse_envelope,
    serve_jsonl,
)
from repro.serving.protocol import (
    ERR_BAD_ENVELOPE,
    ERR_BAD_JSON,
    ERR_BAD_REQUEST,
    ERR_UNKNOWN_HEAD,
    ERR_UNKNOWN_MODEL,
    ERR_UNSUPPORTED_VERSION,
    ScoringHead,
)

CONFIG = SeqFMConfig(static_vocab_size=40, dynamic_vocab_size=30, max_seq_len=6,
                     embed_dim=8, dropout=0.0, seed=5)

#: Static-vocabulary catalog the recommend head serves (users are 0..9).
CATALOG = list(range(10, 40))

DATA_DIR = Path(__file__).resolve().parent / "data"
GOLDEN_INPUT = DATA_DIR / "serve_golden.jsonl"
GOLDEN_EXPECTED = DATA_DIR / "serve_golden.expected.jsonl"


def make_model(seed: int) -> SeqFM:
    model = SeqFM(CONFIG)
    rng = np.random.default_rng(seed)
    for parameter in model.parameters():
        parameter.data += rng.normal(0.0, 0.2, parameter.data.shape)
    model.dynamic_embedding.reset_padding()
    return model


def make_registry(cache_capacity: int = 4096) -> ModelRegistry:
    """Two deterministic models; 'golden' carries an item index."""
    registry = ModelRegistry(cache_capacity=cache_capacity)
    registry.register("golden", make_model(2))
    registry.register("alt", make_model(3))
    registry.build_index("golden", CATALOG, n_retrieve=len(CATALOG))
    return registry


@pytest.fixture
def registry() -> ModelRegistry:
    return make_registry()


def serve_lines(registry, lines, head="score", model="golden", **kwargs):
    """Run serve_jsonl over ``lines``; returns (summary, parsed responses)."""
    output = io.StringIO()
    summary = serve_jsonl(registry, model, io.StringIO("\n".join(lines) + "\n"),
                          output, head=head, **kwargs)
    return summary, [json.loads(line) for line in output.getvalue().splitlines()]


SCORE_PAYLOAD = {"static_indices": [1, 20], "history": [1, 2], "user_id": 1}


def autograd_scores(model, profile, history, candidates=None):
    """``SeqFM.score`` — the autograd forward, a path the server never takes —
    of one profile and history over ``candidates`` (default: the profile's
    own object)."""
    dynamic, mask = pad_sequences([history], CONFIG.max_seq_len)
    if candidates is None:
        candidates = [profile[FeatureEncoder.candidate_slot]]
    return model.score(FeatureBatch.for_candidates(profile, candidates,
                                                   dynamic[0], mask[0]))


def ranked_by_oracle(model, payload, pool):
    """What a ranked-list head must answer: ``pool`` by descending autograd
    score, cut at the payload's ``k``."""
    scores = autograd_scores(model, payload["static_indices"],
                             payload["history"], pool)
    order = np.argsort(-scores, kind="stable")[: payload["k"]]
    return [pool[i] for i in order], scores[order]


# --------------------------------------------------------------------------- #
# Envelope parsing
# --------------------------------------------------------------------------- #
class TestEnvelope:
    def test_bare_dict_auto_upgrades(self):
        envelope = parse_envelope(SCORE_PAYLOAD, default_head="classify",
                                  default_model="m")
        assert envelope.legacy and not envelope.batched
        assert envelope.head == "classify" and envelope.model == "m"
        assert envelope.payloads == (SCORE_PAYLOAD,)

    def test_bare_list_auto_upgrades_batched(self):
        envelope = parse_envelope([SCORE_PAYLOAD, SCORE_PAYLOAD],
                                  default_head="score")
        assert envelope.legacy and envelope.batched
        assert len(envelope.payloads) == 2

    def test_v1_single_payload(self):
        envelope = parse_envelope(
            {"v": 1, "head": "rank-topk", "model": "b", "id": 7,
             "payload": SCORE_PAYLOAD},
            default_head="score", default_model="a")
        assert not envelope.legacy and not envelope.batched
        assert envelope.head == "rank-topk" and envelope.model == "b"
        assert envelope.request_id == 7
        assert envelope.v == PROTOCOL_VERSION

    def test_v1_defaults_apply(self):
        envelope = parse_envelope({"v": 1, "payload": SCORE_PAYLOAD},
                                  default_head="regress", default_model="m")
        assert envelope.head == "regress" and envelope.model == "m"

    def test_v1_list_payload(self):
        envelope = parse_envelope({"v": 1, "payload": [SCORE_PAYLOAD]},
                                  default_head="score")
        assert envelope.batched and len(envelope.payloads) == 1

    @pytest.mark.parametrize("version", [0, 2, "1", 1.5, True])
    def test_unknown_versions_rejected(self, version):
        with pytest.raises(ProtocolError) as excinfo:
            parse_envelope({"v": version, "payload": SCORE_PAYLOAD})
        assert excinfo.value.code == ERR_UNSUPPORTED_VERSION

    @pytest.mark.parametrize("document, code", [
        ("not an object", ERR_BAD_ENVELOPE),
        (17, ERR_BAD_ENVELOPE),
        ({"v": 1}, ERR_BAD_ENVELOPE),                        # missing payload
        ({"v": 1, "payload": 3}, ERR_BAD_ENVELOPE),          # scalar payload
        ({"v": 1, "head": 9, "payload": {}}, ERR_BAD_ENVELOPE),
        ({"v": 1, "model": 9, "payload": {}}, ERR_BAD_ENVELOPE),
        ({"v": 1, "haed": "score", "payload": {}}, ERR_BAD_ENVELOPE),  # typo field
        ({"v": 1, "payload": [{}, 3]}, ERR_BAD_REQUEST),     # non-object element
        ([{"static_indices": [1]}, "x"], ERR_BAD_REQUEST),
        # routing keys without 'payload' are an envelope attempt, never a
        # silent legacy mis-route to the default head
        ({"head": "classify", "static_indices": [1, 2]}, ERR_BAD_ENVELOPE),
        ({"model": "other", "static_indices": [1, 2]}, ERR_BAD_ENVELOPE),
    ])
    def test_malformed_envelopes(self, document, code):
        with pytest.raises(ProtocolError) as excinfo:
            parse_envelope(document)
        assert excinfo.value.code == code

    def test_v0_payload_with_extra_id_key_still_serves(self):
        """'id' was plausible client metadata on v0 payloads (unknown keys
        were always ignored), so it must not trip envelope detection."""
        envelope = parse_envelope({"id": 7, **SCORE_PAYLOAD}, "score", "m")
        assert envelope.legacy and envelope.payloads[0]["id"] == 7

    def test_error_codes_are_stable(self):
        assert ERROR_CODES == ("bad_json", "bad_envelope", "unsupported_version",
                               "unknown_head", "unknown_model", "bad_request",
                               "execution_error")


# --------------------------------------------------------------------------- #
# Head registry
# --------------------------------------------------------------------------- #
class TestHeadRegistry:
    def test_default_heads(self):
        names = default_heads().names()
        assert names == ("score", "rank", "classify", "regress", "rank-topk",
                         "recommend", "update", "status")

    def test_unknown_head_has_stable_code(self):
        with pytest.raises(ProtocolError) as excinfo:
            default_heads().get("frobnicate")
        assert excinfo.value.code == ERR_UNKNOWN_HEAD

    def test_duplicate_registration_guard(self):
        heads = HeadRegistry([ScoringHead("score", "score")])
        with pytest.raises(ValueError, match="already registered"):
            heads.register(ScoringHead("score", "classify"))
        heads.register(ScoringHead("score", "classify"), overwrite=True)
        assert len(heads) == 1

    def test_custom_head_serves_through_every_front_end(self, registry):
        """A new head is one registration — no front-end surgery."""

        class NegateHead(ScoringHead):
            def execute(self, batcher, requests):
                return [-float(s) for s in batcher.score_all(requests)]

        heads = HeadRegistry([ScoringHead("score", "score"),
                              NegateHead("negate", "score")])
        plain = registry.get("golden").batcher(heads=heads)
        base = float(plain.score_all(
            [default_heads().get("score").parse(SCORE_PAYLOAD, ServeDefaults())])[0])
        output = io.StringIO()
        line = json.dumps({"v": 1, "head": "negate", "payload": SCORE_PAYLOAD})
        serve_jsonl(registry, "golden", io.StringIO(line + "\n"), output,
                    heads=heads)
        response = json.loads(output.getvalue())
        assert response["head"] == "negate"
        assert response["result"]["score"] == pytest.approx(-base)


# --------------------------------------------------------------------------- #
# Malformed requests, one parametrized sweep over every registered head
# --------------------------------------------------------------------------- #
#: Per-head payloads that must fail validation with ``bad_request``.
MALFORMED_PAYLOADS = {
    "score": [{}, {"static_indices": 3}, {"static_indices": [1, "x"]},
              {"static_indices": [1, 2], "user_id": []},
              {"static_indices": [1, 2], "history": 7}],
    "rank": [{}, {"static_indices": "nope"}],
    "classify": [{}, {"static_indices": {"a": 1}}],
    "regress": [{}, {"static_indices": [1, 2], "object_id": [3]}],
    "rank-topk": [{}, {"static_indices": [1, 0]},                  # no candidates
                  {"candidates": [10]},                            # no profile
                  {"static_indices": [1, 0], "candidates": []},    # empty list
                  {"static_indices": [1, 0], "candidates": [10], "k": 0},
                  {"static_indices": [1, 0], "candidates": [10], "k": "many"}],
    "recommend": [{}, {"history": [1, 2]},
                  {"static_indices": [1, 0], "k": 0},
                  {"static_indices": [1, 0], "n_retrieve": 0}],
    "update": [{}, {"user_id": 4}, {"events": [3]},
               {"user_id": -1, "events": [3]},
               {"user_id": 4, "events": []},
               {"user_id": 4, "events": 3}],
}


class TestMalformedRequests:
    @pytest.mark.parametrize("head", list(MALFORMED_PAYLOADS))
    def test_bad_payloads_get_structured_errors(self, registry, head):
        assert head in default_heads()
        lines = [json.dumps({"v": 1, "head": head, "payload": payload})
                 for payload in MALFORMED_PAYLOADS[head]]
        summary, responses = serve_lines(registry, lines)
        assert summary.errors == len(lines) == summary.lines
        assert summary.error_codes == {ERR_BAD_REQUEST: len(lines)}
        for number, response in enumerate(responses, start=1):
            assert response["error"]["code"] == ERR_BAD_REQUEST
            assert response["error"]["line"] == number

    def test_unknown_head_and_model_per_line(self, registry):
        lines = [
            json.dumps({"v": 1, "head": "frobnicate", "payload": SCORE_PAYLOAD}),
            json.dumps({"v": 1, "model": "missing", "payload": SCORE_PAYLOAD}),
            json.dumps(SCORE_PAYLOAD),   # the stream keeps serving afterwards
        ]
        summary, responses = serve_lines(registry, lines)
        assert responses[0]["error"]["code"] == ERR_UNKNOWN_HEAD
        assert responses[1]["error"]["code"] == ERR_UNKNOWN_MODEL
        assert "scores" in responses[2]
        assert summary.errors == 2 and summary.served == 1

    def test_error_lines_echo_the_request_id(self, registry):
        line = json.dumps({"v": 1, "id": "req-9", "head": "rank-topk",
                           "payload": {"static_indices": [1], "candidates": [],
                                       "k": 1}})
        _, responses = serve_lines(registry, [line])
        assert responses[0]["error"]["id"] == "req-9"
        assert responses[0]["error"]["line"] == 1

    def test_line_numbers_count_physical_lines(self, registry):
        lines = [json.dumps(SCORE_PAYLOAD), "", "   ", "broken json"]
        summary, responses = serve_lines(registry, lines)
        assert summary.lines == 2          # blanks ignored...
        assert responses[1]["error"]["line"] == 4   # ...but still numbered
        assert responses[1]["error"]["code"] == ERR_BAD_JSON
        assert summary.error_codes == {ERR_BAD_JSON: 1}


# --------------------------------------------------------------------------- #
# v0 → v1 auto-upgrade and response shapes
# --------------------------------------------------------------------------- #
class TestAutoUpgrade:
    def test_v0_and_v1_score_identically(self, registry):
        v0 = json.dumps(SCORE_PAYLOAD)
        v1 = json.dumps({"v": 1, "payload": SCORE_PAYLOAD})
        _, responses = serve_lines(registry, [v0, v1])
        legacy, enveloped = responses
        assert legacy == {"scores": [enveloped["result"]["score"]]}
        assert enveloped["v"] == 1 and enveloped["head"] == "score"
        assert enveloped["model"] == "golden"
        assert "id" not in enveloped

    def test_v0_list_and_v1_batched_payload(self, registry):
        payloads = [SCORE_PAYLOAD, {"static_indices": [2, 21]}]
        _, responses = serve_lines(registry, [
            json.dumps(payloads),
            json.dumps({"v": 1, "id": 3, "payload": payloads}),
        ])
        legacy, enveloped = responses
        assert enveloped["id"] == 3
        assert legacy["scores"] == [r["score"] for r in enveloped["results"]]

    def test_v0_rank_topk_shapes_preserved(self, registry):
        request = {"static_indices": [1, 0], "candidates": [10, 11, 12], "k": 2}
        summary, responses = serve_lines(registry, [
            json.dumps(request), json.dumps([request])], head="rank-topk")
        assert set(responses[0]) == {"candidates", "scores"}
        assert responses[1] == {"results": [responses[0]]}
        assert summary.rows == 4

    def test_explicit_null_history_reads_stored_sequence_in_v0(self, registry):
        store = registry.get("golden").sequence_store
        store.record(8, [4, 5])
        explicit = {"static_indices": [8, 20], "history": [4, 5], "user_id": 8}
        stored = {"static_indices": [8, 20], "history": None, "user_id": 8}
        _, responses = serve_lines(registry, [json.dumps(explicit),
                                              json.dumps(stored)])
        assert responses[0]["scores"] == responses[1]["scores"]

    def test_v0_missing_history_still_means_empty(self, registry):
        """Auto-upgrade must not change what pre-envelope clients get back."""
        store = registry.get("golden").sequence_store
        store.record(8, [4, 5])
        bare = {"static_indices": [8, 20], "user_id": 8}
        empty = {"static_indices": [8, 20], "history": [], "user_id": 8}
        _, responses = serve_lines(registry, [json.dumps(bare), json.dumps(empty)])
        assert responses[0]["scores"] == responses[1]["scores"]


# --------------------------------------------------------------------------- #
# The stateful update head
# --------------------------------------------------------------------------- #
class TestUpdateHead:
    def recommend_line(self, user_id, history="omitted"):
        payload = {"static_indices": [user_id, 0], "user_id": user_id, "k": 3}
        if history != "omitted":
            payload["history"] = history
        return json.dumps({"v": 1, "head": "recommend", "payload": payload})

    def update_line(self, user_id, events):
        return json.dumps({"v": 1, "head": "update",
                           "payload": {"user_id": user_id, "events": events}})

    def test_online_loop_recommend_update_recommend(self, registry):
        """recommend → the user clicks → update → the next recommend that
        omits its history is answered against the updated sequence."""
        _, responses = serve_lines(registry, [
            self.recommend_line(4, history=[1, 2]),
            self.update_line(4, [7]),
            self.recommend_line(4),                       # stored: [1, 2, 7]
            self.recommend_line(4, history=[1, 2, 7]),    # explicit oracle
        ])
        assert responses[1]["result"] == {"user_id": 4, "appended": 1,
                                          "history_len": 3}
        assert responses[2]["result"] == responses[3]["result"]
        # and the updated sequence actually changes the answer state
        assert registry.get("golden").sequence_store.history(4) == (1, 2, 7)

    def test_update_creates_state_for_cold_users(self, registry):
        summary, responses = serve_lines(registry, [self.update_line(9, [3, 4, 5])])
        assert responses[0]["result"]["history_len"] == 3
        assert summary.rows == 3   # one row per appended event
        assert registry.get("golden").sequence_store.history(9) == (3, 4, 5)

    def test_update_truncates_to_visible_suffix(self, registry):
        events = list(range(1, 10))   # longer than max_seq_len=6
        _, responses = serve_lines(registry, [self.update_line(2, events)])
        assert responses[0]["result"]["history_len"] == CONFIG.max_seq_len
        assert registry.get("golden").sequence_store.history(2) == \
            tuple(events[-CONFIG.max_seq_len:])

    def test_eviction_clears_server_side_state(self):
        registry = make_registry(cache_capacity=1)
        store = registry.get("golden").sequence_store
        serve_lines(registry, [self.update_line(1, [5])])
        store.encode(2, [8])                 # capacity 1: evicts user 1
        assert store.history(1) is None
        _, responses = serve_lines(registry, [
            self.recommend_line(1),                 # cold again: empty history
            self.recommend_line(1, history=[]),
        ])
        assert responses[0]["result"] == responses[1]["result"]

    def test_cold_stored_reads_do_not_seed_or_evict(self):
        """A sweep of history-omitting reads for unseen users must not push
        warm users' accumulated update-head state out of the LRU store."""
        registry = make_registry(cache_capacity=2)
        store = registry.get("golden").sequence_store
        serve_lines(registry, [self.update_line(1, [5])])
        serve_lines(registry, [self.recommend_line(user) for user in range(2, 8)])
        assert store.history(1) == (5,)                  # still resident
        assert all(user not in store for user in range(2, 8))

    def test_ttl_expires_stored_sequences(self):
        clock = {"now": 0.0}
        store = UserSequenceStore(max_seq_len=4, capacity=8, ttl=10.0,
                                  clock=lambda: clock["now"])
        store.record(1, [3, 4])
        assert store.history(1) == (3, 4)
        clock["now"] = 9.0
        assert store.history(1) == (3, 4)     # still fresh
        clock["now"] = 20.1
        assert store.history(1) is None       # expired
        assert 1 not in store
        assert store.stats.evictions == 1

    def test_record_refreshes_ttl(self):
        clock = {"now": 0.0}
        store = UserSequenceStore(max_seq_len=4, capacity=8, ttl=10.0,
                                  clock=lambda: clock["now"])
        store.record(1, [3])
        clock["now"] = 8.0
        store.record(1, [4])                  # re-stamps the entry
        clock["now"] = 17.0
        assert store.history(1) == (3, 4)     # 9s since last write
        with pytest.raises(ValueError):
            UserSequenceStore(max_seq_len=4, ttl=0.0)

    def test_registry_cache_ttl_reaches_the_store(self):
        clock = {"now": 0.0}
        registry = ModelRegistry(cache_ttl=10.0)
        registry.register("m", make_model(2))
        store = registry.get("m").sequence_store
        assert store.ttl == 10.0
        store._clock = lambda: clock["now"]    # pin time for determinism
        registry.serve("m", [{"user_id": 1, "events": [3]}], head="update")
        clock["now"] = 20.1
        assert store.history(1) is None        # expired server-side state

    def test_update_batch_endpoint_and_stats(self, registry):
        response = registry.serve("golden", [
            {"user_id": 1, "events": [2, 3]},
            {"user_id": 2, "events": [4]},
        ], head="update")
        assert response["head"] == "update"
        assert response["stats"]["events_appended"] == 3
        assert response["stats"]["requests"] == 2
        assert response["stats"]["users_resident"] >= 2


# --------------------------------------------------------------------------- #
# Per-request model routing
# --------------------------------------------------------------------------- #
class TestModelRouting:
    def test_mixed_stream_routes_per_model(self, registry):
        line_a = json.dumps({"v": 1, "model": "golden", "payload": SCORE_PAYLOAD})
        line_b = json.dumps({"v": 1, "model": "alt", "payload": SCORE_PAYLOAD})
        _, responses = serve_lines(registry, [line_a, line_b, line_a])
        score_a = registry.serve("golden", [SCORE_PAYLOAD])["scores"][0]
        score_b = registry.serve("alt", [SCORE_PAYLOAD])["scores"][0]
        assert responses[0]["result"]["score"] == score_a
        assert responses[1]["result"]["score"] == score_b
        assert responses[2]["result"]["score"] == score_a
        assert score_a != score_b            # genuinely different models
        assert responses[0]["model"] == "golden" and responses[1]["model"] == "alt"

    def test_router_reuses_one_batcher_per_group(self, registry):
        router = ServingRouter(registry, default_model="golden")
        for envelope in [
            parse_envelope({"v": 1, "payload": SCORE_PAYLOAD}, "score", "golden"),
            parse_envelope({"v": 1, "model": "alt", "payload": SCORE_PAYLOAD},
                           "score", "golden"),
            parse_envelope({"v": 1, "head": "classify", "payload": SCORE_PAYLOAD},
                           "score", "golden"),
            parse_envelope({"v": 1, "payload": SCORE_PAYLOAD}, "score", "golden"),
        ]:
            router.execute(envelope)
        assert set(router._batchers) == {("golden", "score"), ("alt", "score"),
                                         ("golden", "classify")}
        _, first = router.batcher_for("golden", "score")
        _, again = router.batcher_for("golden", "score")
        assert first is again
        assert first.stats.requests == 2     # both default-route envelopes

    def test_router_drops_stale_batchers_on_model_replacement(self, registry):
        router = ServingRouter(registry, default_model="golden")
        envelope = parse_envelope({"v": 1, "payload": SCORE_PAYLOAD},
                                  "score", "golden")
        before, _, _ = router.execute(envelope)
        _, old_batcher = router.batcher_for("golden", "score")
        registry.register("golden", make_model(3), overwrite=True)  # == "alt"
        after, _, _ = router.execute(envelope)
        _, new_batcher = router.batcher_for("golden", "score")
        assert new_batcher is not old_batcher
        oracle = make_registry().serve("alt", [SCORE_PAYLOAD])["scores"][0]
        assert after["result"]["score"] == oracle
        assert before["result"]["score"] != after["result"]["score"]

    def test_router_rebuilds_when_retriever_swapped(self, registry):
        router = ServingRouter(registry, default_model="golden")
        _, old_batcher = router.batcher_for("golden", "recommend")
        registry.build_index("golden", CATALOG[:10], n_retrieve=10)  # new index
        entry, new_batcher = router.batcher_for("golden", "recommend")
        assert new_batcher is not old_batcher
        assert new_batcher.recommend_fn == entry.retriever.retrieve_then_rank

    def test_mixed_heads_in_one_stream(self, registry):
        lines = [
            json.dumps({"v": 1, "head": "classify", "payload": SCORE_PAYLOAD}),
            json.dumps({"v": 1, "head": "rank-topk",
                        "payload": {"static_indices": [1, 0],
                                    "candidates": [10, 11], "k": 1}}),
            json.dumps({"v": 1, "head": "recommend",
                        "payload": {"static_indices": [1, 0], "k": 2,
                                    "history": [1]}}),
        ]
        summary, responses = serve_lines(registry, lines)
        assert 0.0 < responses[0]["result"]["score"] < 1.0
        assert len(responses[1]["result"]["candidates"]) == 1
        assert len(responses[2]["result"]["candidates"]) == 2
        assert summary.errors == 0 and summary.rows == 1 + 1 + 2


# --------------------------------------------------------------------------- #
# Edge inputs through every head that runs the model
# --------------------------------------------------------------------------- #
#: One payload per model head; the edge cases below vary its history or cut.
MODEL_HEAD_PAYLOADS = {
    "score": {"static_indices": [1, 20], "user_id": 1},
    "rank": {"static_indices": [2, 21], "user_id": 2},
    "classify": {"static_indices": [3, 22], "user_id": 3},
    "regress": {"static_indices": [4, 23], "user_id": 4},
    "rank-topk": {"static_indices": [5, 0], "candidates": [10, 11, 12, 13],
                  "k": 3, "user_id": 5},
    "recommend": {"static_indices": [6, 0], "k": 3, "user_id": 6},
}


def serve_one(registry, head, payload, model="golden"):
    """One v1 envelope through ``serve_jsonl``; returns its ``result``."""
    summary, responses = serve_lines(
        registry, [json.dumps({"v": 1, "head": head, "payload": payload})],
        model=model)
    assert summary.errors == 0, responses
    return responses[0]["result"]


class TestEdgeInputs:
    @pytest.mark.parametrize("history", [[], [0, 0]],
                             ids=["empty", "all-padding"])
    @pytest.mark.parametrize("head", list(MODEL_HEAD_PAYLOADS))
    def test_eventless_history_scores_like_the_autograd_oracle(
            self, registry, head, history):
        """An explicit empty history, and one of padding ids only, are served
        like any other and score as ``SeqFM.score`` scores them."""
        payload = {**MODEL_HEAD_PAYLOADS[head], "history": history}
        result = serve_one(registry, head, payload)
        model = make_model(2)
        if head in ("rank-topk", "recommend"):
            candidates, expected = ranked_by_oracle(
                model, payload, payload.get("candidates", CATALOG))
            assert result["candidates"] == candidates
            served = result["scores"]
        else:
            expected = autograd_scores(model, payload["static_indices"], history)
            if head == "classify":
                expected = 1.0 / (1.0 + np.exp(-expected))
            served = [result["score"]]
        np.testing.assert_allclose(served, expected, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("k", [5, 50])
    def test_rank_topk_k_above_the_candidates_returns_all_sorted(self, registry, k):
        payload = {"static_indices": [1, 0], "candidates": [12, 10, 13, 11],
                   "history": [1, 2], "k": k}
        result = serve_one(registry, "rank-topk", payload)
        candidates, expected = ranked_by_oracle(make_model(2), payload,
                                                payload["candidates"])
        assert sorted(result["candidates"]) == [10, 11, 12, 13]
        assert result["candidates"] == candidates
        np.testing.assert_allclose(result["scores"], expected, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("size", [1, 2, 20])
    @pytest.mark.parametrize("backend", ["exact", "ivf"])
    def test_recommend_k_above_the_catalog_and_n_retrieve(self, backend, size):
        """``k`` above both the catalog and ``n_retrieve``: either backend
        answers the whole catalog, best first."""
        catalog = CATALOG[:size]
        registry = ModelRegistry()
        registry.register("m", make_model(2))
        registry.build_index("m", catalog, backend=backend)
        payload = {"static_indices": [1, 0], "history": [1, 2], "k": 50,
                   "n_retrieve": 30}
        result = serve_one(registry, "recommend", payload, model="m")
        candidates, expected = ranked_by_oracle(make_model(2), payload, catalog)
        assert result["candidates"] == candidates
        np.testing.assert_allclose(result["scores"], expected, rtol=0.0, atol=1e-10)


# --------------------------------------------------------------------------- #
# Golden wire-format file
# --------------------------------------------------------------------------- #
class TestGoldenWireFormat:
    def test_serve_golden_file_byte_stable(self):
        """The full protocol surface — v0/v1, every head, every error code —
        served against a deterministic registry must reproduce the committed
        response file byte for byte.  Regenerate deliberately with
        ``REPRO_REGEN_GOLDEN=1`` after an intentional wire-format change."""
        registry = make_registry()
        output = io.StringIO()
        with GOLDEN_INPUT.open() as input_stream:
            summary = serve_jsonl(registry, "golden", input_stream, output,
                                  head="score", k=3)
        actual = output.getvalue()
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_EXPECTED.write_text(actual)
        assert actual == GOLDEN_EXPECTED.read_text(), (
            "wire-format drift: serve_jsonl output no longer matches "
            f"{GOLDEN_EXPECTED.name}; if the change is intentional, "
            "regenerate with REPRO_REGEN_GOLDEN=1"
        )
        assert summary.errors == sum(summary.error_codes.values()) > 0
        assert summary.served > 0

    def test_golden_scores_match_autograd_oracle(self):
        """Every score in the committed response file, re-derived through
        ``SeqFM.score`` — the autograd forward, a path the server never takes
        — at 1e-10.  The byte test above pins the wire format; this one pins
        the numbers to the oracle rather than to whatever the engine last
        printed, so a regenerated file cannot silently bless a wrong score."""
        models = {"golden": make_model(2), "alt": make_model(3)}
        stored = {name: {} for name in models}   # model -> user -> history
        checked = 0

        def oracle(model, payload, candidates=None):
            history = payload.get("history")
            if history is None:
                history = stored[model].get(payload.get("user_id"), [])
            elif "user_id" in payload:
                stored[model][payload["user_id"]] = list(history)
            return autograd_scores(models[model], payload["static_indices"],
                                   history, candidates)

        lines = zip(GOLDEN_INPUT.read_text().splitlines(),
                    GOLDEN_EXPECTED.read_text().splitlines())
        for raw_request, raw_response in lines:
            response = json.loads(raw_response)
            if "error" in response:
                continue
            request = json.loads(raw_request)
            versioned = isinstance(request, dict) and "v" in request
            head = request.get("head", "score") if versioned else "score"
            model = request.get("model", "golden") if versioned else "golden"
            payload = request["payload"] if versioned else request
            if head == "update":
                stored[model].setdefault(payload["user_id"], []).extend(payload["events"])
                continue
            if head in ("rank-topk", "recommend"):
                result = response["result"]
                pool = payload.get("candidates", CATALOG)
                scores = oracle(model, payload, pool)
                order = np.argsort(-scores, kind="stable")[: payload.get("k", 3)]
                assert result["candidates"] == [pool[i] for i in order]
                served, expected = result["scores"], scores[order]
            else:
                payloads = payload if isinstance(payload, list) else [payload]
                expected = np.concatenate([oracle(model, row) for row in payloads])
                if head == "classify":
                    expected = 1.0 / (1.0 + np.exp(-expected))
                if not versioned:
                    served = response["scores"]
                elif isinstance(payload, list):
                    served = [row["score"] for row in response["results"]]
                else:
                    served = [response["result"]["score"]]
            np.testing.assert_allclose(served, expected, rtol=0.0, atol=1e-10)
            checked += len(served)
        assert checked == 22   # every float in the expected file


# --------------------------------------------------------------------------- #
# ServeSummary counters over a stream
# --------------------------------------------------------------------------- #
class TestServeSummary:
    def test_counts_sum_exactly_over_a_serial_stream(self, registry):
        """Each line kind lands in exactly one counter; 30 rounds sum exactly."""
        kinds = [
            (json.dumps(SCORE_PAYLOAD), 1, None),
            (json.dumps([SCORE_PAYLOAD] * 3), 3, None),
            ("{not json", 0, ERR_BAD_JSON),
            (json.dumps({"v": 1, "payload": {}}), 0, ERR_BAD_REQUEST),
            (json.dumps({"v": 1, "head": "frobnicate", "payload": {}}), 0,
             ERR_UNKNOWN_HEAD),
        ]
        rounds = 30
        summary, responses = serve_lines(
            registry, [line for _ in range(rounds) for line, _, _ in kinds])
        codes = [code for _, _, code in kinds if code is not None]
        assert summary.counts() == {
            "lines": rounds * len(kinds),
            "rows": rounds * sum(rows for _, rows, _ in kinds),
            "errors": rounds * len(codes),
            "error_codes": {code: rounds for code in codes},
        }
        assert summary.served == rounds * (len(kinds) - len(codes))
        assert sum("error" in response for response in responses) == summary.errors
