"""The workloads of record: sizes, seeded load generators, state builders.

One dict, :data:`WORKLOADS`, is the whole registry (the single-dict idiom of
``SNIPPETS.md`` 1-2): ``bench.run`` iterates it, ``BENCHMARK.json`` names its
keys, and a later ``benchmark`` issue adds a workload by adding one entry.

Every workload is a *stream* (what the load generator sends; made from the
seed alone, never timed) and a *state* (what the program under test is built
from; building it is the set-up time).  The program only ever sees the
generated inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.config import SeqFMConfig
from repro.core.model import SeqFM
from repro.core.tasks import SeqFMRanker
from repro.core.trainer import Trainer, TrainerConfig
from repro.data.features import FeatureEncoder
from repro.data.sampling import NegativeSampler
from repro.data.synthetic import SyntheticConfig, generate_poi_checkins
from repro.serving import ModelRegistry

#: Name every serving workload registers its model under.
MODEL_NAME = "seqfm"

#: The checkpoint is a fixture, not traffic: every seed serves (and trains
#: from) the same initial weights and ``--seed`` varies only what the load
#: generator sends.  Measured reason: ``serve_recommend``'s shortlist recall
#: depends on the weights drawn — 1.000 on twelve stream seeds against this
#: checkpoint, but 0.625-0.70 against the checkpoint of seed 200 — and a
#: workload must not fail on an unseen seed.
MODEL_SEED = 0

EMBED_DIM = 32
#: Spread of the popularity bias on catalog items' linear weights.
ITEM_POPULARITY_STD = 0.3
#: Longest explicit history a request carries (the server keeps the last n˙).
MAX_SENT_HISTORY = 24
#: On average one explicit-history request in this many carries a history
#: that moved on by one event since the user's previous request, so the
#: sequence store sees fingerprint misses (re-encode + put) beside hits.
DRIFT_EVERY = 8
#: ``serve_stateful``: one line in this many is a stored-history read.
READ_EVERY = 8

Sizes = Mapping[str, int]


# --------------------------------------------------------------------------- #
# Streams and states
# --------------------------------------------------------------------------- #
@dataclass
class ServeStream:
    """What the closed-loop client sends in one pass, line by line."""

    lines: List[str]
    #: Every head an envelope of the stream routes to.
    heads: Tuple[str, ...]
    #: ``serve_stateful`` only: line index of each stored-history read → the
    #: history the store must hold for that user at that moment.
    stored_history: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    #: ``serve_stateful`` only: user → the suffix the store must hold when the
    #: pass ends.
    final_store: Dict[int, Tuple[int, ...]] = field(default_factory=dict)


@dataclass
class ServeState:
    """The program under test for a serving workload."""

    registry: ModelRegistry
    model: SeqFM
    #: Directory of the durable store (``serve_stateful`` only).
    wal_directory: Optional[Path] = None

    @property
    def entry(self):
        return self.registry.get(MODEL_NAME)


@dataclass
class TrainState:
    """The encoded dataset plus a factory for fresh (model, sampler, trainer)."""

    log: object
    encoder: FeatureEncoder
    examples: list
    sizes: Sizes
    seed: int

    def new_trainer(self) -> Trainer:
        """A fresh model, sampler and trainer: every pass starts from scratch."""
        config = SeqFMConfig(
            static_vocab_size=self.encoder.static_vocab_size,
            dynamic_vocab_size=self.encoder.dynamic_vocab_size,
            max_seq_len=self.encoder.max_seq_len,
            embed_dim=EMBED_DIM,
            dropout=0.0,
            seed=MODEL_SEED,
        )
        return Trainer(
            SeqFMRanker(config), self.encoder,
            NegativeSampler(self.log, seed=self.seed),
            TrainerConfig(
                epochs=1,
                batch_size=self.sizes["batch_size"],
                negatives_per_positive=self.sizes["negatives"],
                fused_negatives=True,
                seed=self.seed,
            ),
        )


@dataclass(frozen=True)
class Workload:
    """One entry of the registry.

    ``generate(sizes, seed)`` makes the stream; ``build(sizes, seed, stream,
    workdir)`` makes the state.  ``fresh_state_per_pass`` rebuilds the state
    before every pass (the stateful workload must start each pass empty).
    """

    name: str
    why: str
    kind: str                      # "serve" | "train"
    head: str
    sizes: Mapping[str, Sizes]     # {"full": ..., "smoke": ...}
    generate: Callable
    build: Callable
    fresh_state_per_pass: bool = False


# --------------------------------------------------------------------------- #
# The model every serving workload loads
# --------------------------------------------------------------------------- #
def build_model(num_users: int, num_items: int, max_seq_len: int) -> SeqFM:
    """A stand-in for a trained checkpoint (always the same one: ``MODEL_SEED``).

    Fresh initialisation leaves linear weights at zero and layer-norm scales
    at one; every parameter is perturbed so no term of the score is
    degenerate, and the catalog's embeddings are drawn from a mixture of
    Gaussians — the shape trained embedding tables take and the one the IVF
    partitioning of ``serve_recommend`` is built for (the recipe of
    ``benchmarks/test_retrieval_throughput.py``).  Catalog items also get a
    popularity bias on their linear weight, as any trained recommender has;
    without it the top of the ranking is decided by the attention response
    alone and a 100-item shortlist recalls 0.75-0.86 of the exact top-10
    (measured over five seeds) instead of >= 0.96.
    """
    config = SeqFMConfig(
        static_vocab_size=num_users + num_items,
        dynamic_vocab_size=num_items + 1,
        max_seq_len=max_seq_len,
        embed_dim=EMBED_DIM,
        dropout=0.0,
        seed=MODEL_SEED,
    )
    model = SeqFM(config)
    rng = np.random.default_rng([MODEL_SEED, 1])
    for parameter in model.parameters():
        parameter.data += rng.normal(0.0, 0.1, parameter.data.shape)
    model.dynamic_embedding.reset_padding()
    clusters = max(4, int(np.sqrt(num_items)) // 2)
    centers = rng.normal(0.0, 0.5, (clusters, EMBED_DIM))
    members = rng.integers(0, clusters, num_items)
    model.static_embedding.weight.data[num_users:] = (
        centers[members] + rng.normal(0.0, 0.08, (num_items, EMBED_DIM))
    )
    model.static_linear.data[num_users:] += rng.normal(0.0, ITEM_POPULARITY_STD, num_items)
    model.eval()
    return model


def _build_registry(sizes: Sizes, seed: int, stream, workdir: Path) -> ServeState:
    model = build_model(sizes["users"], sizes["items"], sizes["max_seq_len"])
    registry = ModelRegistry()
    registry.register(MODEL_NAME, model)
    return ServeState(registry=registry, model=model)


def _build_recommend(sizes: Sizes, seed: int, stream, workdir: Path) -> ServeState:
    state = _build_registry(sizes, seed, stream, workdir)
    catalog = np.arange(sizes["users"], sizes["users"] + sizes["items"], dtype=np.int64)
    state.registry.build_index(MODEL_NAME, catalog, seed=MODEL_SEED, backend="ivf",
                               n_retrieve=sizes["n_retrieve"])
    return state


def _build_stateful(sizes: Sizes, seed: int, stream, workdir: Path) -> ServeState:
    state = _build_registry(sizes, seed, stream, workdir)
    state.wal_directory = Path(workdir)
    state.registry.enable_durability(MODEL_NAME, workdir,
                                     fsync_every=sizes["fsync_every"])
    return state


def _build_train(sizes: Sizes, seed: int, stream, workdir: Path) -> TrainState:
    encoder = FeatureEncoder(stream, max_seq_len=sizes["max_seq_len"])
    return TrainState(log=stream, encoder=encoder,
                      examples=encoder.encode_training_instances(stream),
                      sizes=sizes, seed=seed)


# --------------------------------------------------------------------------- #
# Load generators
# --------------------------------------------------------------------------- #
class _Population:
    """Users with explicit histories that slowly move on.

    Users are visited in one shuffled order, over and over, so every seed
    gives every user the same number of requests: throughput must not depend
    on which users a seed happened to draw.
    """

    def __init__(self, rng: np.random.Generator, sizes: Sizes):
        self._rng = rng
        self._users = sizes["users"]
        self._items = sizes["items"]
        self._order = rng.permutation(self._users)
        self._histories = [
            [int(item) for item in rng.integers(1, self._items + 1, rng.integers(5, 25))]
            for _ in range(self._users)
        ]
        self._requests = 0

    def next_payload(self) -> dict:
        """The next user's scoring payload (candidate drawn from the catalog)."""
        rng = self._rng
        user = int(self._order[self._requests % self._users])
        self._requests += 1
        history = self._histories[user]
        if rng.random() < 1.0 / DRIFT_EVERY:
            history.append(int(rng.integers(1, self._items + 1)))
        return {
            "static_indices": [user, self._users + int(rng.integers(self._items))],
            "history": history[-MAX_SENT_HISTORY:],
            "user_id": user,
        }


def _envelope(head: str, line: int, payload) -> str:
    return json.dumps({"v": 1, "head": head, "id": line, "payload": payload})


def _stream_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(name.encode())])


def _generate_score(sizes: Sizes, seed: int) -> ServeStream:
    rng = _stream_rng(seed, "score")
    population = _Population(rng, sizes)
    rows = sizes["rows_per_line"]
    lines = []
    for line in range(sizes["lines"]):
        if rows == 1:
            payload = population.next_payload()
        else:
            payload = [population.next_payload() for _ in range(rows)]
        lines.append(_envelope("score", line, payload))
    return ServeStream(lines, heads=("score",))


def _generate_rank(sizes: Sizes, seed: int) -> ServeStream:
    rng = _stream_rng(seed, "rank")
    population = _Population(rng, sizes)
    lines = []
    for line in range(sizes["lines"]):
        payload = population.next_payload()
        candidates = rng.choice(sizes["items"], sizes["candidates"], replace=False)
        payload["candidates"] = [sizes["users"] + int(item) for item in candidates]
        payload["k"] = sizes["k"]
        lines.append(_envelope("rank-topk", line, payload))
    return ServeStream(lines, heads=("rank-topk",))


def _generate_recommend(sizes: Sizes, seed: int) -> ServeStream:
    rng = _stream_rng(seed, "recommend")
    population = _Population(rng, sizes)
    lines = []
    for line in range(sizes["lines"]):
        payload = population.next_payload()
        payload["static_indices"][1] = sizes["users"]  # placeholder candidate
        payload["k"] = sizes["k"]
        lines.append(_envelope("recommend", line, payload))
    return ServeStream(lines, heads=("recommend",))


def _generate_stateful(sizes: Sizes, seed: int) -> ServeStream:
    rng = _stream_rng(seed, "stateful")
    users, items, keep = sizes["users"], sizes["items"], sizes["max_seq_len"]
    order = rng.permutation(users)
    stored: Dict[int, List[int]] = {}
    updated: List[int] = []
    lines: List[str] = []
    stored_history: Dict[int, Tuple[int, ...]] = {}
    updates = 0
    for line in range(sizes["lines"]):
        if line % READ_EVERY == READ_EVERY - 1:
            user = updated[int(rng.integers(len(updated)))]
            stored_history[line] = tuple(stored[user][-keep:])
            payload = {"static_indices": [user, users + int(rng.integers(items))],
                       "user_id": user}
            lines.append(_envelope("score", line, payload))
            continue
        user = int(order[updates % users])
        updates += 1
        events = [int(item) for item in rng.integers(1, items + 1, rng.integers(1, 4))]
        if user not in stored:
            stored[user] = []
            updated.append(user)
        stored[user].extend(events)
        lines.append(_envelope("update", line, {"user_id": user, "events": events}))
    final_store = {user: tuple(events[-keep:]) for user, events in stored.items()}
    return ServeStream(lines, heads=("update", "score"),
                       stored_history=stored_history, final_store=final_store)


def _generate_train(sizes: Sizes, seed: int):
    return generate_poi_checkins(SyntheticConfig(
        num_users=sizes["users"], num_objects=sizes["items"],
        interactions_per_user=sizes["interactions_per_user"], seed=seed,
    ))


# --------------------------------------------------------------------------- #
# The registry
# --------------------------------------------------------------------------- #
# Full sizes are frozen: every pass lasts about 1.6 s on the 2-core reference
# box (bench.session.NOMINAL_PASS_SECONDS), so six fit in the 10 s of
# BENCHMARK.json's run_seconds.  Smoke sizes are for bench/test_bench_smoke.py.
_SERVE_SMOKE = {"users": 32, "items": 300, "max_seq_len": 20, "oracle_stride": 16}

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="serve_score",
            why="one B=1 forward per line: fixed per-line cost (JSON, envelope, "
                "routing, collate, engine.score call overhead) is all there is",
            kind="serve", head="score",
            sizes={
                "full": {"users": 2048, "items": 5000, "max_seq_len": 20,
                         "lines": 4096, "rows_per_line": 1, "oracle_stride": 64},
                "smoke": {**_SERVE_SMOKE, "lines": 128, "rows_per_line": 1},
            },
            generate=_generate_score, build=_build_registry,
        ),
        Workload(
            name="serve_score_batch",
            why="32 payloads per line: per-row parse, collate and the batched "
                "engine.score dominate while per-line cost is amortised 32x",
            kind="serve", head="score",
            sizes={
                "full": {"users": 2048, "items": 5000, "max_seq_len": 20,
                         "lines": 768, "rows_per_line": 32, "oracle_stride": 64},
                "smoke": {**_SERVE_SMOKE, "lines": 64, "rows_per_line": 8},
            },
            generate=_generate_score, build=_build_registry,
        ),
        Workload(
            name="serve_rank",
            why="200 candidates per line: the RankingPlan fast path and nn.kernels "
                "dominate, JSON and protocol are noise; protocol work must not show here",
            kind="serve", head="rank-topk",
            sizes={
                "full": {"users": 512, "items": 5000, "max_seq_len": 20,
                         "lines": 512, "candidates": 200, "k": 10,
                         "oracle_stride": 64},
                "smoke": {**_SERVE_SMOKE, "lines": 64, "candidates": 40, "k": 5},
            },
            generate=_generate_rank, build=_build_registry,
        ),
        Workload(
            name="serve_recommend",
            why="candidate-free top-10 from a 20000-item IVF index: the only workload "
                "that runs repro.retrieval (query encode, index search, exact re-rank)",
            kind="serve", head="recommend",
            sizes={
                "full": {"users": 512, "items": 20000, "max_seq_len": 20,
                         "lines": 256, "n_retrieve": 100, "k": 10,
                         "oracle_stride": 64},
                "smoke": {**_SERVE_SMOKE, "items": 600, "lines": 64,
                          "n_retrieve": 100, "k": 5},
            },
            generate=_generate_recommend, build=_build_recommend,
        ),
        Workload(
            name="serve_stateful",
            why="7 update lines per stored-history read on a WAL-backed store: the only "
                "workload that writes (store mutation, journaling, batched fsync) beside reads",
            kind="serve", head="score",
            sizes={
                "full": {"users": 2048, "items": 5000, "max_seq_len": 50,
                         "lines": 12288, "fsync_every": 256, "oracle_stride": 64},
                "smoke": {**_SERVE_SMOKE, "max_seq_len": 50, "lines": 256,
                          "fsync_every": 32},
            },
            generate=_generate_stateful, build=_build_stateful,
            fresh_state_per_pass=True,
        ),
        Workload(
            name="train_fused",
            why="one fused-negatives epoch of Trainer.fit: the training step end to "
                "end (sample, collate, forward, backward, optimizer)",
            kind="train", head="",
            sizes={
                "full": {"users": 200, "items": 300, "interactions_per_user": 12,
                         "max_seq_len": 20, "batch_size": 128, "negatives": 5},
                "smoke": {"users": 24, "items": 60, "interactions_per_user": 6,
                          "max_seq_len": 20, "batch_size": 32, "negatives": 5},
            },
            generate=_generate_train, build=_build_train,
        ),
    )
}
