"""Batched inference runtime for trained SeqFM models.

Training needs the autograd graph; serving does not.  This package is the
production-facing inference layer of the reproduction:

* :class:`~repro.serving.engine.InferenceEngine` — graph-free, vectorised
  forward pass on the model's weight arrays.  No ``Tensor`` allocation, no
  backward bookkeeping; mask/attention/pooling math is shared with
  :mod:`repro.core` and :mod:`repro.nn.kernels`, and output matches
  ``SeqFM.score`` to 1e-10 (enforced by tests).
* :class:`~repro.serving.batcher.MicroBatcher` — a line is the batch: its
  payloads (one :class:`~repro.serving.batcher.ScoreColumns`) become one
  ``FeatureBatch`` and one engine call per ``max_batch_size`` chunk.
* :class:`~repro.serving.cache.UserSequenceStore` — LRU cache of padded user
  histories with exact fingerprint checks, encoded one batch per lock.
* :class:`~repro.serving.registry.ModelRegistry` — named checkpoint-backed
  models with ``rank`` / ``classify`` / ``regress`` / ``rank_topk``
  endpoints mirroring the task heads of :mod:`repro.core.tasks`, plus the
  generic ``serve`` endpoint dispatching through the head registry.
* :mod:`repro.serving.protocol` — the wire contract every front-end speaks:
  a versioned request/response **envelope** (with pre-envelope payloads
  auto-upgraded), a declarative :class:`~repro.serving.protocol.Head` /
  :class:`~repro.serving.protocol.HeadRegistry` abstraction (new heads are
  one registration), structured errors with stable codes, per-request
  model routing via :class:`~repro.serving.protocol.ServingRouter`, and
  the stateful ``update`` head that closes the online
  recommend → click → update → recommend loop.
* :mod:`repro.serving.durability` — durable state:
  :class:`~repro.serving.durability.DurableSequenceStore` write-ahead-logs
  every store mutation (fsync-batched, CRC-framed, torn-tail healing) with
  periodic snapshot + log compaction, recovering byte-identically on
  restart, observable live through the ``status`` head;
  :mod:`repro.serving.faults` provides the seeded deterministic
  :class:`~repro.serving.faults.FaultInjector` its crash tests drive.

The engine additionally exposes the **candidate ranking fast path**
(:meth:`~repro.serving.engine.InferenceEngine.rank_candidates`): C candidates
sharing one user history are scored with every candidate-independent quantity
— the dynamic view, the dynamic linear sum, the cross-view history
projections — computed once per user (:class:`~repro.serving.engine.RankingPlan`)
instead of once per candidate, with 1e-10 parity to the per-candidate loop.

On top of ranking sits **two-stage retrieval** (:mod:`repro.retrieval`):
an :class:`~repro.retrieval.index.ItemIndex` snapshot of the catalog answers
candidate-*free* requests — index sweep to an ``n_retrieve`` shortlist, exact
fast-path re-rank to top-K — via ``RetrievePipeline.retrieve_then_rank``, the
``MicroBatcher`` recommend head, ``ModelRegistry.build_index``/``recommend``
and the ``recommend`` service head / CLI subcommand.

Usage
-----
Load a checkpoint and score a batch of requests::

    from repro.serving import ModelRegistry, ScoreRequest

    registry = ModelRegistry()
    registry.load("seqfm", "checkpoints/seqfm.npz")

    # Static indices come from FeatureEncoder (user feature, candidate
    # feature); the history is the user's dynamic-vocabulary event sequence.
    requests = [
        ScoreRequest(static_indices=[user_index, candidate_index],
                     history=[3, 7, 12], user_id=42, object_id=7)
        for candidate_index in candidate_indices
    ]
    scores = registry.rank_requests("seqfm", requests)   # request order

Or drive the engine directly on prepared :class:`FeatureBatch` objects::

    from repro.serving import InferenceEngine

    engine = InferenceEngine(trained_model)       # any SeqFM instance
    scores = engine.score(batch)                  # == trained_model.score(batch)
    probabilities = engine.classify(batch)        # CTR head

The ``serve_score`` and ``serve_score_batch`` workloads of the benchmark of
record (``bench/README.md``) measure one-payload and 32-payload lines through
this runtime; the CLI exposes the same runtime as ``predict-batch`` and ``serve``
subcommands of :mod:`repro.experiments.cli`.
"""

from repro.serving.batcher import (
    BatcherStats,
    MicroBatcher,
    RankedCandidates,
    RankRequest,
    RecommendRequest,
    ScoreColumns,
    ScoreRequest,
)
from repro.serving.cache import CacheStats, LRUCache, UserSequenceStore
from repro.serving.durability import (
    WAL_OPS,
    DurableSequenceStore,
    RecoveryReport,
    WriteAheadLog,
    inspect_durability,
    read_wal,
)
from repro.serving.engine import InferenceEngine, RankingPlan
from repro.serving.faults import NULL_INJECTOR, FaultInjector, FaultSpec, InjectedFault
from repro.serving.protocol import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    Envelope,
    Head,
    HeadRegistry,
    ProtocolError,
    ServeDefaults,
    ServingRouter,
    StatusHead,
    UpdateRequest,
    default_heads,
    error_response,
    parse_envelope,
)
from repro.serving.registry import (
    ModelRegistry,
    OrphanedIndexWarning,
    RegisteredModel,
)
from repro.serving.service import ServeSummary, execute_batch, serve_jsonl

__all__ = [
    "BatcherStats",
    "CacheStats",
    "DurableSequenceStore",
    "ERROR_CODES",
    "Envelope",
    "FaultInjector",
    "FaultSpec",
    "Head",
    "HeadRegistry",
    "InferenceEngine",
    "InjectedFault",
    "LRUCache",
    "MicroBatcher",
    "ModelRegistry",
    "OrphanedIndexWarning",
    "NULL_INJECTOR",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RankedCandidates",
    "RankingPlan",
    "RankRequest",
    "RecommendRequest",
    "RecoveryReport",
    "RegisteredModel",
    "ScoreColumns",
    "ScoreRequest",
    "ServeDefaults",
    "ServeSummary",
    "ServingRouter",
    "StatusHead",
    "UpdateRequest",
    "UserSequenceStore",
    "WAL_OPS",
    "WriteAheadLog",
    "default_heads",
    "error_response",
    "execute_batch",
    "inspect_durability",
    "parse_envelope",
    "read_wal",
    "serve_jsonl",
]
