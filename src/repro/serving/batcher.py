"""Scoring heads over dense batches: a line is the batch.

The NumPy forward pass amortises its per-call overhead over the batch
dimension — scoring 256 rows costs barely more than scoring one.  A serve
line's scoring payloads arrive already together, so they are never queued:
the score head parses them into one :class:`ScoreColumns` (static rows,
histories, user and object ids), :meth:`MicroBatcher.collate` turns each
``max_batch_size`` chunk into one :class:`~repro.data.features.FeatureBatch`
— histories through one :meth:`~repro.serving.cache.UserSequenceStore.encode_rows`
call under one store lock, or the shared
:func:`repro.data.batching.pad_sequences` collation without a store — and
:meth:`MicroBatcher.score_all` makes one engine call per chunk, scores in
row order.  The rank and recommend heads are dense already (C candidates
against one history) and are evaluated per request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro.data.batching import pad_sequences
from repro.data.features import FeatureBatch
from repro.serving.cache import UserSequenceStore

#: Type of the scoring callable the batcher drives: FeatureBatch → (batch,) scores.
ScoreFn = Callable[[FeatureBatch], np.ndarray]

#: Type of the ranking callable the rank head drives — the signature of
#: :meth:`repro.serving.engine.InferenceEngine.rank_topk`:
#: (static_profile, candidates, k, history, history_mask) → (top ids, scores).
RankFn = Callable[..., "tuple[np.ndarray, np.ndarray]"]

#: Type of the recommendation callable the recommend head drives — the
#: signature of
#: :meth:`repro.retrieval.pipeline.RetrievePipeline.retrieve_then_rank`:
#: (static_profile, k, history, n_retrieve, history_mask) → RankedCandidates.
RecommendFn = Callable[..., "RankedCandidates"]

#: Top-K cut of the recommend head when neither the request nor the caller
#: specifies one (recommendation has no candidate list to default to).
DEFAULT_RECOMMEND_K = 10


@dataclass(frozen=True)
class RankRequest:
    """One ranking request: C candidate objects sharing a user and history.

    Attributes
    ----------
    static_indices:
        The user's static profile row (model vocabulary); the candidate slot
        holds a placeholder that is replaced by each candidate.
    candidates:
        Static-vocabulary indices of the candidate objects to rank.
    history:
        Chronological dynamic-vocabulary indices of the user's past events
        (most recent last, not padded).  ``None`` means "use the server-side
        sequence": the batcher substitutes the user's stored suffix from the
        sequence store (empty for cold users).
    user_id:
        Raw user identifier; enables the user-sequence cache when ≥ 0.
    k:
        Per-request top-K cut; ``None`` returns every candidate ranked.
    """

    static_indices: Sequence[int]
    candidates: Sequence[int]
    history: Optional[Sequence[int]] = ()
    user_id: int = -1
    k: Optional[int] = None


@dataclass(frozen=True)
class RecommendRequest:
    """One recommendation request: no candidates — the index finds them.

    Attributes
    ----------
    static_indices:
        The user's static profile row (model vocabulary); the candidate slot
        holds a placeholder that retrieval/re-ranking replace per item.
    history:
        Chronological dynamic-vocabulary indices of the user's past events
        (most recent last, not padded); ``None`` substitutes the user's
        stored server-side sequence.
    user_id:
        Raw user identifier; enables the user-sequence cache when ≥ 0.
    k:
        Per-request top-K cut; ``None`` falls back to the head default
        (:data:`DEFAULT_RECOMMEND_K`).
    n_retrieve:
        Per-request retrieval fan-out; ``None`` uses the pipeline default.
    """

    static_indices: Sequence[int]
    history: Optional[Sequence[int]] = ()
    user_id: int = -1
    k: Optional[int] = None
    n_retrieve: Optional[int] = None


@dataclass(frozen=True)
class RankedCandidates:
    """Result of a :class:`RankRequest`: candidates and scores, best first."""

    candidates: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return self.candidates.shape[0]


@dataclass(frozen=True)
class ScoreRequest:
    """One scoring request: a candidate's static features plus the history.

    Attributes
    ----------
    static_indices:
        Indices of the non-zero static features (user, candidate, side info),
        already mapped through the model's static vocabulary — the layout of
        :class:`~repro.data.features.EncodedExample.static_indices`.
    history:
        Chronological dynamic-vocabulary indices of the user's past events
        (most recent last, *not* padded; the batcher pads/truncates).
        ``None`` substitutes the user's stored server-side sequence.
    user_id:
        Raw user identifier; enables the user-sequence cache when ≥ 0.
    object_id:
        Raw candidate identifier, carried through for bookkeeping.
    """

    static_indices: Sequence[int]
    history: Optional[Sequence[int]] = ()
    user_id: int = -1
    object_id: int = -1


@dataclass(frozen=True)
class ScoreColumns:
    """A line of scoring requests, column by column — what :meth:`MicroBatcher.score_all`
    scores and :meth:`MicroBatcher.collate` pads.

    Row ``i`` is the request ``(static_rows[i], histories[i], user_ids[i],
    object_ids[i])`` with the field meanings of :class:`ScoreRequest`.  Every
    value is an already-validated exact ``int``; a history of ``None`` reads
    the user's stored server-side sequence.
    """

    static_rows: Sequence[Sequence[int]] = ()
    histories: Sequence[Optional[Sequence[int]]] = ()
    user_ids: Sequence[int] = ()
    object_ids: Sequence[int] = ()

    def __len__(self) -> int:
        return len(self.user_ids)

    def rows(self, start: int, stop: int) -> "ScoreColumns":
        """The columns of rows ``start:stop``."""
        return ScoreColumns(self.static_rows[start:stop], self.histories[start:stop],
                            self.user_ids[start:stop], self.object_ids[start:stop])

    @classmethod
    def of(cls, requests: Union["ScoreColumns", Sequence[ScoreRequest]]) -> "ScoreColumns":
        """``requests`` as columns: :class:`ScoreRequest` objects are converted
        once, their indices normalised to exact ``int``s."""
        if isinstance(requests, ScoreColumns):
            return requests
        return cls(
            static_rows=[list(request.static_indices) for request in requests],
            histories=[None if request.history is None
                       else [int(item) for item in request.history]
                       for request in requests],
            user_ids=[int(request.user_id) for request in requests],
            object_ids=[int(request.object_id) for request in requests],
        )


@dataclass
class BatcherStats:
    """Counters describing how requests were batched into engine calls."""

    requests: int = 0
    batches: int = 0
    rows_scored: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.rows_scored / self.batches if self.batches else 0.0


class MicroBatcher:
    """Score a line's requests in dense batches through one scoring function.

    Parameters
    ----------
    score_fn:
        Any callable mapping a :class:`FeatureBatch` to a score vector —
        typically :meth:`repro.serving.engine.InferenceEngine.score` (or
        ``.classify``/``.regress``).
    max_batch_size:
        Rows per engine call; :meth:`score_all` chunks longer inputs.
    max_seq_len:
        Pad/truncate request histories to this length; must match the model's
        configured n˙.
    sequence_store:
        Optional :class:`UserSequenceStore`; requests with ``user_id ≥ 0``
        reuse cached history encodings across requests.
    rank_fn:
        Optional ranking callable — typically
        :meth:`repro.serving.engine.InferenceEngine.rank_topk` — that powers
        the **rank head** (:meth:`rank`/:meth:`rank_all`): whole candidate
        lists evaluated through the candidate-deduplicated fast path instead
        of one scoring row per candidate.
    recommend_fn:
        Optional recommendation callable — typically
        :meth:`repro.retrieval.pipeline.RetrievePipeline.retrieve_then_rank`
        — that powers the **recommend head**
        (:meth:`recommend`/:meth:`recommend_all`): candidate-free requests
        answered by the two-stage retrieve → rank pipeline.
    """

    def __init__(
        self,
        score_fn: ScoreFn,
        max_batch_size: int = 256,
        max_seq_len: int = 20,
        sequence_store: Optional[UserSequenceStore] = None,
        rank_fn: Optional[RankFn] = None,
        recommend_fn: Optional[RecommendFn] = None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if max_seq_len < 1:
            raise ValueError("max_seq_len must be positive")
        if sequence_store is not None and sequence_store.max_seq_len != max_seq_len:
            raise ValueError(
                "sequence_store.max_seq_len must match the batcher's max_seq_len "
                f"({sequence_store.max_seq_len} != {max_seq_len})"
            )
        self.score_fn = score_fn
        self.rank_fn = rank_fn
        self.recommend_fn = recommend_fn
        self.max_batch_size = max_batch_size
        self.max_seq_len = max_seq_len
        self.sequence_store = sequence_store
        self.stats = BatcherStats()

    # ------------------------------------------------------------------ #
    # Score head
    # ------------------------------------------------------------------ #
    def score_all(self, requests: Union[ScoreColumns, Sequence[ScoreRequest]]) -> np.ndarray:
        """Score every row, one engine call per ``max_batch_size`` chunk, in order.

        A failing chunk does not abort the rest (their store updates still
        land); the first error is re-raised once every chunk has run.
        """
        columns = ScoreColumns.of(requests)
        self.stats.requests += len(columns)
        scores = np.empty(len(columns), dtype=np.float64)
        first_error: Optional[Exception] = None
        for start in range(0, len(columns), self.max_batch_size):
            chunk = columns.rows(start, start + self.max_batch_size)
            try:
                chunk_scores = np.asarray(self.score_fn(self.collate(chunk)), dtype=np.float64)
                if chunk_scores.shape != (len(chunk),):
                    raise ValueError(
                        f"score_fn returned shape {chunk_scores.shape}, expected ({len(chunk)},)"
                    )
            except Exception as error:
                if first_error is None:
                    first_error = error
                continue
            scores[start:start + len(chunk)] = chunk_scores
            self.stats.batches += 1
            self.stats.rows_scored += len(chunk)
        if first_error is not None:
            raise first_error
        return scores

    # ------------------------------------------------------------------ #
    # Rank head
    # ------------------------------------------------------------------ #
    def rank(self, request: RankRequest, k: Optional[int] = None) -> RankedCandidates:
        """Rank one request's candidate list through the fast path.

        A ranking request is already a dense batch — C candidates against one
        history — so it is evaluated on its own via ``rank_fn`` (one
        ``rank_candidates`` pass, with the history encoded through the
        sequence store when the request carries a ``user_id``).  ``k``
        defaults to the request's own ``k``, then to the full candidate list.
        """
        if self.rank_fn is None:
            raise RuntimeError("this batcher has no rank head (rank_fn not configured)")
        candidates = np.asarray(list(request.candidates), dtype=np.int64)
        self.stats.requests += 1
        if candidates.size == 0:
            return RankedCandidates(
                candidates=np.empty(0, dtype=np.int64),
                scores=np.empty(0, dtype=np.float64),
            )
        cut = k if k is not None else request.k
        if cut is None:
            cut = candidates.shape[0]
        if self.sequence_store is not None and request.user_id >= 0:
            indices, mask = self._encode_history(request)
            top, scores = self.rank_fn(
                request.static_indices, candidates, cut,
                indices[None, :], mask[None, :],
            )
        else:
            top, scores = self.rank_fn(request.static_indices, candidates, cut,
                                       self._resolve_history(request))
        self.stats.batches += 1
        self.stats.rows_scored += candidates.shape[0]
        return RankedCandidates(candidates=top, scores=scores)

    def rank_all(
        self, requests: Sequence[RankRequest], k: Optional[int] = None
    ) -> List[RankedCandidates]:
        """Rank many requests, results in request order."""
        return [self.rank(request, k) for request in requests]

    # ------------------------------------------------------------------ #
    # Recommend head
    # ------------------------------------------------------------------ #
    def recommend(
        self,
        request: RecommendRequest,
        k: Optional[int] = None,
        n_retrieve: Optional[int] = None,
    ) -> RankedCandidates:
        """Answer one candidate-free request through retrieve → rank.

        Like :meth:`rank`, a recommendation is already a dense unit of work
        (one index sweep + one shortlist re-rank), so it is evaluated
        immediately via ``recommend_fn``.  The history is encoded through the
        sequence store when the request carries a ``user_id``, exactly as the
        scoring and rank heads do.  The ``k`` argument overrides the
        request's own ``k`` (the same precedence as :meth:`rank`), falling
        back to :data:`DEFAULT_RECOMMEND_K`; ``n_retrieve`` likewise resolves
        call → request → pipeline default.
        """
        if self.recommend_fn is None:
            raise RuntimeError(
                "this batcher has no recommend head (recommend_fn not configured)"
            )
        cut = k if k is not None else request.k
        if cut is None:
            cut = DEFAULT_RECOMMEND_K
        fanout = n_retrieve if n_retrieve is not None else request.n_retrieve
        self.stats.requests += 1
        if self.sequence_store is not None and request.user_id >= 0:
            indices, mask = self._encode_history(request)
            result = self.recommend_fn(
                request.static_indices, cut,
                history=indices[None, :], n_retrieve=fanout,
                history_mask=mask[None, :],
            )
        else:
            result = self.recommend_fn(
                request.static_indices, cut,
                history=self._resolve_history(request), n_retrieve=fanout,
            )
        self.stats.batches += 1
        self.stats.rows_scored += len(result)
        return result

    def recommend_all(
        self,
        requests: Sequence[RecommendRequest],
        k: Optional[int] = None,
        n_retrieve: Optional[int] = None,
    ) -> List[RankedCandidates]:
        """Recommend for many requests, results in request order."""
        return [self.recommend(request, k, n_retrieve) for request in requests]

    # ------------------------------------------------------------------ #
    # Collation
    # ------------------------------------------------------------------ #
    def collate(self, requests: Union[ScoreColumns, Sequence[ScoreRequest]]) -> FeatureBatch:
        """Pad rows into one :class:`FeatureBatch`.

        Every row must carry the same number of static features (the model
        consumes a rectangular static index matrix); that is checked before
        the store is touched.  With a sequence store, all histories are
        encoded by one :meth:`UserSequenceStore.encode_rows` call.
        """
        columns = ScoreColumns.of(requests)
        if not len(columns):
            raise ValueError("cannot collate zero requests")
        widths = set(map(len, columns.static_rows))
        if len(widths) != 1:
            raise ValueError(
                f"all requests must have the same static feature count, got {sorted(widths)}"
            )
        static = np.asarray(columns.static_rows, dtype=np.int64)
        if self.sequence_store is None:
            dynamic, mask = pad_sequences(
                [() if history is None else history for history in columns.histories],
                self.max_seq_len,
            )
        else:
            dynamic, mask = self.sequence_store.encode_rows(columns.user_ids,
                                                            columns.histories)
        return FeatureBatch(
            static_indices=static,
            dynamic_indices=dynamic,
            dynamic_mask=mask,
            labels=np.zeros(len(columns), dtype=np.float64),
            user_ids=np.array(columns.user_ids, dtype=np.int64),
            object_ids=np.array(columns.object_ids, dtype=np.int64),
        )

    def _resolve_history(self, request) -> Sequence[int]:
        """The literal history of the store-less paths (``None`` → empty).

        ``history=None`` is the "server-side sequence" sentinel; without a
        sequence store (or for anonymous users) there is no server state, so
        it degrades to an empty history.
        """
        return request.history if request.history is not None else ()

    def _encode_history(self, request):
        """Padded ``(indices, mask)`` via the store (``user_id ≥ 0`` callers).

        Requests omitting their history read the stored encoding directly —
        one cache lookup, no guaranteed-hit re-fingerprinting.
        """
        if request.history is None:
            return self.sequence_store.encode_stored(request.user_id)
        return self.sequence_store.encode(request.user_id, request.history)
