"""The single serving loop: stream-order state, replay, failure isolation.

:func:`~repro.serving.service.serve_jsonl` answers a stream one line at a
time through one :class:`~repro.serving.protocol.ServingRouter`.  These tests
pin what that loop promises beyond the wire format:

* the same stream against the same models answers byte-identically, every
  time;
* every stored-history read sees exactly the explicit histories and
  ``update`` events that precede it in the stream, per model, checked against
  a pure-Python reference of the store's last-writer-wins semantics;
* a head that raises fails only its own line, and a batched line is parsed
  whole before anything executes, so a bad element never half-applies;
* the ``status`` head reports the loop's live counters and every model's
  store, and a WAL-backed store restarts into the state the stream left.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.core.config import SeqFMConfig
from repro.core.model import SeqFM
from repro.serving import (
    HeadRegistry,
    ModelRegistry,
    ProtocolError,
    ServingRouter,
    default_heads,
    execute_batch,
    parse_envelope,
    serve_jsonl,
)
from repro.serving.faults import FaultInjector
from repro.serving.protocol import (
    ERR_BAD_REQUEST,
    ERR_EXECUTION,
    ERR_UNKNOWN_HEAD,
    ERR_UNKNOWN_MODEL,
    ScoringHead,
)

CONFIG = SeqFMConfig(static_vocab_size=40, dynamic_vocab_size=30, max_seq_len=6,
                     embed_dim=8, dropout=0.0, seed=5)

#: Static-vocabulary catalog the recommend head serves (users are 0..9).
CATALOG = list(range(10, 40))


def make_model(seed: int) -> SeqFM:
    model = SeqFM(CONFIG)
    rng = np.random.default_rng(seed)
    for parameter in model.parameters():
        parameter.data += rng.normal(0.0, 0.2, parameter.data.shape)
    model.dynamic_embedding.reset_padding()
    return model


def make_registry() -> ModelRegistry:
    """Two deterministic models; 'golden' carries an item index."""
    registry = ModelRegistry()
    registry.register("golden", make_model(2))
    registry.register("alt", make_model(3))
    registry.build_index("golden", CATALOG, n_retrieve=len(CATALOG))
    return registry


def mixed_stream(num_lines: int = 100, seed: int = 7) -> list:
    """A deterministic multi-model stream interleaving every model head.

    Stateless scoring/ranking/recommendation against two models, stateful
    ``update`` writes, and stored-history reads that must observe those
    writes in stream order.
    """
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(num_lines):
        kind = i % 5
        user_id = int(rng.integers(0, 8))
        history = [int(item) for item in rng.integers(0, 30, size=4)]
        if kind == 0:
            lines.append({"v": 1, "head": "score", "id": f"s{i}", "model": "alt",
                          "payload": {"static_indices": [1, 20],
                                      "history": history, "user_id": user_id}})
        elif kind == 1:
            lines.append({"v": 1, "head": "rank-topk", "id": f"r{i}",
                          "payload": {"static_indices": [3, 10],
                                      "candidates": [14, 15, 16, 17],
                                      "history": history, "k": 2,
                                      "user_id": user_id}})
        elif kind == 2:
            lines.append({"v": 1, "head": "update", "id": f"u{i}",
                          "payload": {"user_id": user_id,
                                      "events": [int(rng.integers(0, 30))]}})
        elif kind == 3:
            lines.append({"v": 1, "head": "recommend", "id": f"c{i}",
                          "payload": {"static_indices": [2, 11],
                                      "history": history, "k": 3,
                                      "n_retrieve": 8, "user_id": user_id}})
        else:
            lines.append({"v": 1, "head": "score", "id": f"q{i}",
                          "payload": {"static_indices": [1, 20],
                                      "user_id": user_id}})
    return [json.dumps(line) for line in lines]


def run(lines, registry=None, **kwargs):
    """Serve ``lines``; returns (summary, raw output lines, registry)."""
    registry = registry if registry is not None else make_registry()
    output = io.StringIO()
    summary = serve_jsonl(registry, "golden",
                          io.StringIO("\n".join(lines) + "\n"), output, **kwargs)
    return summary, output.getvalue().splitlines(), registry


def reference_histories(lines, max_seq_len=CONFIG.max_seq_len):
    """The stored suffix per (model, user) after each line, in pure Python.

    An explicit history replaces the user's suffix (last writer wins), an
    ``update`` appends its events, and a stored read changes nothing.
    Returns the per-line view *before* the line applies and the final state.
    """
    state = {}
    before = []
    for line in lines:
        document = json.loads(line)
        before.append(dict(state))
        payload = document["payload"]
        model = document.get("model", "golden")
        key = (model, payload.get("user_id", -1))
        if document["head"] == "update":
            suffix = state.get(key, ()) + tuple(payload["events"])
            state[key] = suffix[-max_seq_len:]
        elif "history" in payload and key[1] >= 0:
            state[key] = tuple(payload["history"])[-max_seq_len:]
    return before, state


def explicit_score(user_id, history):
    """A stored read's score recomputed from an explicit history (fresh state)."""
    line = json.dumps({"v": 1, "head": "score",
                       "payload": {"static_indices": [1, 20],
                                   "history": list(history), "user_id": user_id}})
    _, output, _ = run([line])
    return json.loads(output[0])["result"]["score"]


# --------------------------------------------------------------------------- #
# Stream order
# --------------------------------------------------------------------------- #
class TestStreamOrder:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_stream_answers_byte_identically(self, seed):
        lines = mixed_stream(80, seed=seed)
        first_summary, first, _ = run(lines)
        second_summary, second, _ = run(lines)
        assert first_summary.errors == 0
        assert first == second
        assert first_summary.counts() == second_summary.counts()

    def test_stored_reads_answer_the_reference_sequence(self):
        lines = mixed_stream(60)
        _, output, _ = run(lines)
        before, _ = reference_histories(lines)
        checked = 0
        for line, response, state in zip(lines, output, before):
            document = json.loads(line)
            if not document["id"].startswith("q"):
                continue
            user_id = document["payload"]["user_id"]
            expected = explicit_score(user_id, state.get(("golden", user_id), ()))
            assert json.loads(response)["result"]["score"] == expected, document["id"]
            checked += 1
        assert checked == 12

    def test_final_store_state_matches_the_reference(self):
        lines = mixed_stream(100)
        _, _, registry = run(lines)
        _, final = reference_histories(lines)
        for model in ("golden", "alt"):
            store = registry.get(model).sequence_store
            for user_id in range(8):
                assert store.history(user_id) == final.get((model, user_id)), \
                    (model, user_id)

    def test_update_then_stored_read_sees_stream_order(self):
        """Dense stateful traffic on one user: every update's reported
        length and every stored read follow the lines before it."""
        lines = []
        for i in range(30):
            if i % 3 == 0:
                lines.append(json.dumps({"v": 1, "head": "update", "id": f"u{i}",
                                         "payload": {"user_id": 1, "events": [i % 29]}}))
            elif i % 3 == 1:
                lines.append(json.dumps({"v": 1, "head": "score", "id": f"w{i}",
                                         "payload": {"static_indices": [1, 20],
                                                     "history": [i % 29, 5],
                                                     "user_id": 1}}))
            else:
                lines.append(json.dumps({"v": 1, "head": "score", "id": f"q{i}",
                                         "payload": {"static_indices": [1, 20],
                                                     "user_id": 1}}))
        _, output, registry = run(lines)
        before, final = reference_histories(lines)
        for line, response, state in zip(lines, output, before):
            document = json.loads(line)
            answer = json.loads(response)
            stored = state.get(("golden", 1), ())
            if document["head"] == "update":
                assert answer["result"]["history_len"] == min(
                    len(stored) + 1, CONFIG.max_seq_len)
            elif document["id"].startswith("q"):
                assert answer["result"]["score"] == explicit_score(1, stored)
        assert registry.get("golden").sequence_store.history(1) == final[("golden", 1)]

    def test_each_model_keeps_its_own_sequences(self):
        lines = [
            json.dumps({"v": 1, "head": "update", "model": "alt",
                        "payload": {"user_id": 4, "events": [7, 8]}}),
            json.dumps({"v": 1, "head": "score", "model": "golden",
                        "payload": {"static_indices": [1, 20],
                                    "history": [2], "user_id": 4}}),
        ]
        _, _, registry = run(lines)
        assert registry.get("alt").sequence_store.history(4) == (7, 8)
        assert registry.get("golden").sequence_store.history(4) == (2,)


# --------------------------------------------------------------------------- #
# Failure isolation
# --------------------------------------------------------------------------- #
class PoisonableScoringHead(ScoringHead):
    """Raises mid-batch whenever a request carries the poisoned user id."""

    POISONED_USER = 99

    def __init__(self):
        super().__init__("score", "score")

    def execute(self, batcher, requests):
        if self.POISONED_USER in requests.user_ids:
            raise RuntimeError("poisoned request reached the engine")
        return super().execute(batcher, requests)


def heads_with(head) -> HeadRegistry:
    registry = HeadRegistry(list(default_heads()))
    registry.register(head, overwrite=True)
    return registry


def score_lines(count, user_id=lambda i: i % 4):
    return [json.dumps({"v": 1, "head": "score", "id": f"s{i}",
                        "payload": {"static_indices": [1, 20], "history": [1, 2],
                                    "user_id": user_id(i)}})
            for i in range(count)]


class TestFailureIsolation:
    def test_raising_head_poisons_only_its_line(self):
        poisoned = PoisonableScoringHead.POISONED_USER
        lines = score_lines(12, user_id=lambda i: poisoned if i == 5 else i % 3)
        summary, output, _ = run(lines, heads=heads_with(PoisonableScoringHead()))
        responses = [json.loads(line) for line in output]
        assert len(responses) == 12
        errors = [r["error"] for r in responses if "error" in r]
        assert [(e["id"], e["line"], e["code"]) for e in errors] == \
            [("s5", 6, ERR_EXECUTION)]
        assert summary.error_codes == {ERR_EXECUTION: 1}
        assert summary.rows == 11
        _, clean, _ = run(score_lines(12, user_id=lambda i: i % 3))
        for number, (line, response) in enumerate(zip(output, clean)):
            if number != 5:
                assert line == response

    def test_raising_request_fails_its_whole_batched_line(self):
        poisoned = PoisonableScoringHead.POISONED_USER
        batch = [{"static_indices": [1, 20], "history": [1], "user_id": user}
                 for user in (0, poisoned, 2)]
        lines = [json.dumps({"v": 1, "id": "batch", "payload": batch}),
                 score_lines(1)[0]]
        summary, output, _ = run(lines, heads=heads_with(PoisonableScoringHead()))
        first, second = (json.loads(line) for line in output)
        assert first["error"]["code"] == ERR_EXECUTION
        assert first["error"]["id"] == "batch"
        assert "result" in second
        assert summary.rows == 1 and summary.errors == 1

    def test_batched_update_is_parsed_whole_before_any_write(self):
        good = {"user_id": 3, "events": [5]}
        bad = {"user_id": 3, "events": []}
        lines = [json.dumps({"v": 1, "head": "update", "payload": [good, bad]})]
        summary, output, registry = run(lines)
        assert json.loads(output[0])["error"]["code"] == ERR_BAD_REQUEST
        assert summary.rows == 0
        assert registry.get("golden").sequence_store.history(3) is None

    def test_router_execute_raises_unknown_model(self):
        router = ServingRouter(make_registry(), default_model="golden")
        envelope = parse_envelope(
            {"v": 1, "head": "score", "model": "ghost",
             "payload": {"static_indices": [1, 20]}},
            default_head="score", default_model="golden")
        with pytest.raises(ProtocolError) as excinfo:
            router.execute(envelope)
        assert excinfo.value.code == ERR_UNKNOWN_MODEL

    def test_router_without_default_model_needs_a_routed_envelope(self):
        router = ServingRouter(make_registry())
        unrouted = parse_envelope({"v": 1, "payload": {"static_indices": [1, 20]}})
        with pytest.raises(ProtocolError) as excinfo:
            router.execute(unrouted)
        assert excinfo.value.code == ERR_UNKNOWN_MODEL
        routed = parse_envelope({"v": 1, "model": "alt",
                                 "payload": {"static_indices": [1, 20]}})
        body, rows, _ = router.execute(routed)
        assert rows == 1 and body["model"] == "alt"

    @pytest.mark.parametrize("model, head, error, code", [
        ("ghost", "score", KeyError, None),
        ("golden", "frobnicate", ProtocolError, ERR_UNKNOWN_HEAD),
        ("alt", "recommend", ProtocolError, ERR_BAD_REQUEST),   # no item index
    ])
    def test_unservable_default_route_fails_before_reading(self, model, head,
                                                           error, code):
        source = io.StringIO(score_lines(1)[0] + "\n")
        output = io.StringIO()
        with pytest.raises(error) as excinfo:
            serve_jsonl(make_registry(), model, source, output, head=head)
        if code is not None:
            assert excinfo.value.code == code
        assert output.getvalue() == ""
        assert source.tell() == 0


# --------------------------------------------------------------------------- #
# The status head
# --------------------------------------------------------------------------- #
STATUS_LINE = json.dumps({"v": 1, "head": "status", "id": "st", "payload": {}})


class TestStatusHead:
    def test_reports_the_stream_counters_so_far(self):
        lines = score_lines(3) + ["{broken", STATUS_LINE]
        summary, output, _ = run(lines)
        status = json.loads(output[-1])
        assert status["id"] == "st" and status["head"] == "status"
        assert status["result"]["stream"] == {
            "lines": 5, "rows": 3, "errors": 1, "error_codes": {"bad_json": 1}}
        assert summary.rows == 3 and summary.lines == 5

    def test_reports_every_models_store_and_index(self):
        lines = [json.dumps({"v": 1, "head": "update",
                             "payload": {"user_id": 1, "events": [4]}}),
                 STATUS_LINE]
        _, output, _ = run(lines)
        models = json.loads(output[-1])["result"]["models"]
        assert set(models) == {"golden", "alt"}
        assert set(models["golden"]) == {"users_resident", "cache", "index"}
        assert set(models["alt"]) == {"users_resident", "cache"}
        assert models["golden"]["users_resident"] == 1
        assert models["alt"]["users_resident"] == 0
        assert set(models["golden"]["cache"]) == {"hits", "misses", "evictions"}

    def test_a_durable_store_adds_its_wal_block(self, tmp_path):
        registry = make_registry()
        durable = registry.enable_durability("alt", tmp_path / "alt")
        try:
            payload = ServingRouter(registry, default_model="golden").status_payload()
        finally:
            durable.close()
        assert "wal" not in payload["models"]["golden"]
        wal = payload["models"]["alt"]["wal"]
        assert wal["last_seq"] == 0 and wal["broken"] is False
        assert wal["recovered_replayed"] == 0

    def test_has_no_one_shot_batch_form(self):
        with pytest.raises(ProtocolError) as excinfo:
            execute_batch(make_registry(), "golden", [{}], head="status")
        assert excinfo.value.code == ERR_BAD_REQUEST


# --------------------------------------------------------------------------- #
# A WAL-backed store under the stream
# --------------------------------------------------------------------------- #
class TestDurableStream:
    def stored_reads(self, registry):
        reads = [json.dumps({"v": 1, "head": "score", "id": f"q{user}",
                             "payload": {"static_indices": [1, 20], "user_id": user}})
                 for user in range(8)]
        _, output, _ = run(reads, registry=registry)
        return output

    def test_restart_answers_stored_reads_as_before(self, tmp_path):
        lines = mixed_stream(60)
        registry = make_registry()
        durable = registry.enable_durability("golden", tmp_path / "state",
                                             fsync_every=1)
        run(lines, registry=registry)
        expected = self.stored_reads(registry)
        expected_state = durable.snapshot()
        durable._wal.close()   # a crash after the stream: no checkpoint, WAL only

        restarted = make_registry()
        recovered = restarted.enable_durability("golden", tmp_path / "state")
        try:
            assert recovered.recovery.snapshot_seq == 0
            assert recovered.recovery.replayed > 0
            assert recovered.snapshot() == expected_state
            assert self.stored_reads(restarted) == expected
        finally:
            recovered.close()

    def test_failed_store_write_errors_its_line_and_leaves_state(self, tmp_path):
        injector = FaultInjector(seed=3)
        injector.arm("store.record", match="5", times=1)
        registry = make_registry()
        durable = registry.enable_durability("golden", tmp_path / "state",
                                             fsync_every=1, injector=injector)
        lines = [json.dumps({"v": 1, "head": "update", "id": f"u{user}",
                             "payload": {"user_id": user, "events": [user]}})
                 for user in (4, 5, 6)]
        summary, output, _ = run(lines, registry=registry)
        responses = [json.loads(line) for line in output]
        assert responses[1]["error"]["code"] == ERR_EXECUTION
        assert responses[1]["error"]["id"] == "u5"
        assert summary.rows == 2
        assert durable.history(5) is None
        assert durable.history(4) == (4,) and durable.history(6) == (6,)
        expected = durable.snapshot()
        durable.close()

        reopened = make_registry().enable_durability("golden", tmp_path / "state")
        try:
            assert reopened.snapshot() == expected
        finally:
            reopened.close()
