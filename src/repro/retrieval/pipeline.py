"""Two-stage retrieve → rank serving pipeline.

The production-recommender shape: a cheap index sweep narrows the catalog to
``n_retrieve`` candidates, then the exact model re-ranks the shortlist.  One
:class:`~repro.serving.engine.RankingPlan` is prepared per request and shared
by *both* stages — the query encoder fits its linear surrogate from it and
the re-ranker broadcasts it across the shortlist — so the model's per-user
work (the n˙²-cost dynamic view, the history K/V) is paid exactly once.

Complexity per request, catalog size N, shortlist C, probes p, partitions
k ≈ √N:

* retrieval — ``O(p + k)`` exact candidate scores (the query fit and the
  per-partition calibration) + one ``O(N · d)`` index sweep (IVF prunes this
  to the probed partitions);
* re-rank — ``O(C)`` exact candidate scores through the fast path.

versus ``O(N)`` exact candidate scores for single-stage ranking; the
``serve_recommend`` workload of ``bench/README.md`` times the pipeline.  With an
:class:`~repro.retrieval.index.ExactIndex` backend and ``n_retrieve ≥ N`` the
pipeline degenerates to exact full-catalog ranking (the 1e-10 parity oracle
in the tests); narrowing ``n_retrieve`` trades that guarantee for speed,
with the shortfall measured as recall, never silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.retrieval.index import ExactIndex, IVFIndex, ItemIndex
from repro.retrieval.query import EncodedQuery, QueryEncoder
from repro.serving.batcher import RankedCandidates, RecommendRequest
from repro.serving.engine import InferenceEngine
from repro.serving.protocol import (
    ERR_BAD_REQUEST,
    ProtocolError,
    RankedListHead,
    ServeDefaults,
    cache_stats_payload,
    cache_summary,
    parse_history,
    parse_int,
    parse_int_list,
    parse_positive_int,
    parse_topk_cut,
    require_mapping,
)

#: Search backends the pipeline can fan retrieval through.
Searcher = Union[ExactIndex, IVFIndex]

#: Default shortlist size handed to the re-ranker.
DEFAULT_N_RETRIEVE = 500


@dataclass
class RetrievalResult:
    """Stage-one output: the shortlist, before exact re-ranking.

    ``scores`` are *surrogate* scores (the linear fit of
    :class:`~repro.retrieval.query.QueryEncoder`), comparable within one
    query only; ``query`` carries the plan the re-rank stage reuses.
    """

    candidates: np.ndarray
    scores: np.ndarray
    query: EncodedQuery

    def __len__(self) -> int:
        return self.candidates.shape[0]


class RetrievePipeline:
    """Candidate generation fanned into the exact top-K re-ranker.

    Parameters
    ----------
    engine:
        Serving engine of the model the index was built from.
    searcher:
        An :class:`ExactIndex` or :class:`IVFIndex` over that model's catalog
        snapshot.
    n_retrieve:
        Default shortlist size (per-request overridable).
    """

    def __init__(
        self,
        engine: InferenceEngine,
        searcher: Searcher,
        n_retrieve: int = DEFAULT_N_RETRIEVE,
    ):
        if n_retrieve < 1:
            raise ValueError("n_retrieve must be at least 1")
        self.engine = engine
        self.searcher = searcher
        self.n_retrieve = n_retrieve
        self.encoder = QueryEncoder(engine, searcher.index)

    @property
    def index(self) -> ItemIndex:
        return self.searcher.index

    # ------------------------------------------------------------------ #
    # Stages
    # ------------------------------------------------------------------ #
    def retrieve(
        self,
        static_profile: Sequence[int],
        history: Sequence[int] = (),
        n: Optional[int] = None,
        history_mask: Optional[np.ndarray] = None,
        plan=None,
    ) -> RetrievalResult:
        """Stage one: encode the user's query and sweep the index."""
        n = self.n_retrieve if n is None else int(n)
        if n < 1:
            raise ValueError("n must be at least 1")
        query = self.encoder.encode(
            static_profile, history, history_mask=history_mask, plan=plan
        )
        candidates, scores = self.searcher.search(
            query.vector, n, partition_offsets=query.partition_offsets
        )
        return RetrievalResult(candidates=candidates, scores=scores, query=query)

    def retrieve_then_rank(
        self,
        static_profile: Sequence[int],
        k: int,
        history: Sequence[int] = (),
        n_retrieve: Optional[int] = None,
        history_mask: Optional[np.ndarray] = None,
    ) -> RankedCandidates:
        """Both stages: shortlist via the index, exact top-``k`` via the model.

        The plan prepared for the query encoder is handed straight to
        :meth:`~repro.serving.engine.InferenceEngine.rank_topk`, so the
        per-user model work is computed once for the whole request.  Returns
        the same :class:`~repro.serving.batcher.RankedCandidates` shape as the
        single-stage rank head — candidates (static-vocabulary ids) and exact
        model scores, best first.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        plan = self.engine.prepare_ranking(static_profile, history, history_mask)
        shortlist = self.retrieve(
            static_profile, history, n=n_retrieve, history_mask=history_mask, plan=plan
        )
        if len(shortlist) == 0:
            return RankedCandidates(
                candidates=np.empty(0, dtype=np.int64),
                scores=np.empty(0, dtype=np.float64),
            )
        top, scores = self.engine.rank_topk(
            static_profile, shortlist.candidates, k, plan=plan
        )
        return RankedCandidates(candidates=top, scores=scores)

    def __repr__(self) -> str:
        return (
            f"RetrievePipeline({self.searcher!r}, n_retrieve={self.n_retrieve})"
        )


class RecommendHead(RankedListHead):
    """The candidate-free serving head over :class:`RetrievePipeline`.

    Declared next to the pipeline it drives and registered into the default
    :class:`~repro.serving.protocol.HeadRegistry` — the serving layer knows
    nothing recommend-specific beyond this object.
    """

    name = "recommend"

    def validate_entry(self, entry) -> None:
        if entry.retriever is None:
            raise ProtocolError(
                ERR_BAD_REQUEST,
                f"model {entry.name!r} has no item index attached; build or "
                "load one first (ModelRegistry.build_index / load_index)",
            )

    def parse(self, payload: dict, defaults: ServeDefaults) -> RecommendRequest:
        payload = require_mapping(payload, self.name)
        if "static_indices" not in payload:
            raise ProtocolError(ERR_BAD_REQUEST,
                                "recommendation request is missing 'static_indices'")
        return RecommendRequest(
            static_indices=parse_int_list(payload["static_indices"], "static_indices"),
            history=parse_history(payload, defaults),
            user_id=parse_int(payload.get("user_id", -1), "user_id"),
            k=parse_topk_cut(payload, defaults),
            n_retrieve=parse_positive_int(payload, "n_retrieve",
                                          defaults.n_retrieve),
        )

    def execute(self, batcher, requests) -> list:
        return batcher.recommend_all(requests)

    def batch_stats(self, batcher, entry, cache, results) -> dict:
        return {
            "requests": batcher.stats.requests,
            "items_recommended": batcher.stats.rows_scored,
            "catalog_size": entry.index.num_items if entry.index is not None else 0,
            **cache_stats_payload(cache),
        }

    def describe(self, response: dict) -> str:
        stats = response["stats"]
        return (f"recommended {stats['items_recommended']} items across "
                f"{stats['requests']} requests from a "
                f"{stats['catalog_size']}-item catalog ({cache_summary(stats)})")
