"""User-query encoding: turn one user's state into an index-searchable vector.

The exact SeqFM score is *not* an inner product between a user vector and an
item vector — the candidate's embedding passes through softmax attention and
the FFN, so no static item matrix can reproduce it exactly.  Retrieval does
not need it to: candidate generation only has to put the true winners inside
a few-hundred-item shortlist that the exact model then re-ranks.

:class:`QueryEncoder` builds a *calibrated linear surrogate* of the model's
scoring function for one user, empirically rather than analytically:

1. reuse the user's :class:`~repro.serving.engine.RankingPlan` — the same
   candidate-independent pass (dynamic view, history K/V, linear sums) the
   re-ranker needs anyway, so retrieval adds no second per-user model pass;
2. score the index's **probe items** (a spread sample) *and* — when the index
   carries partitions — each partition's **representative item** exactly,
   through one ranking-fast-path call (a few hundred candidates, catalog
   untouched);
3. least-squares fit ``score(i) ≈ q · e_i + w_i + b`` over those exact
   scores, where ``e_i``/``w_i`` are the item's embedding row and linear
   weight already in the index;
4. calibrate a **per-partition offset** — the representative's exact score
   minus its surrogate score.  The global fit captures the model's average
   linear response; the offsets capture the cluster-level nonlinearity (the
   candidate's self-attention response is quadratic in its embedding, so
   whole regions of embedding space score systematically higher or lower
   than any single linear functional can express).

Searching the index with the augmented vector ``[q, 1]`` plus the offsets
ranks the whole catalog by ``q·e_i + w_i + b + offset(partition(i))`` in one
blocked (or IVF-pruned) sweep.  The per-query cost is one fast-path call over
``p + n_partitions`` candidates plus a ``(d + 1) × (p + n_partitions)``
matrix-vector product (the design matrix depends only on the index and is
pseudo-inverted once, at construction) — independent of catalog size.

The surrogate is a retrieval heuristic, never a scoring shortcut: the final
ranking always comes from the exact engine
(:meth:`~repro.serving.engine.InferenceEngine.rank_topk`), and end-to-end
exactness/recall are measured in ``tests/test_retrieval.py`` and by the
``serve_recommend`` workload of ``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.retrieval.index import ItemIndex
from repro.serving.engine import InferenceEngine, RankingPlan


@dataclass
class EncodedQuery:
    """One user's retrieval query plus the plan it shares with the re-ranker.

    Attributes
    ----------
    vector:
        The augmented ``(d + 1,)`` query ``[q, 1]``; inner products with
        :attr:`ItemIndex.vectors` rows yield surrogate scores (up to
        :attr:`bias`, which is user-constant and cannot change the ranking).
    bias:
        The fitted intercept ``b``; add it to index scores to approximate the
        model score's absolute value (diagnostics only).
    partition_offsets:
        ``(n_partitions,)`` per-partition calibration — pass to
        ``search(..., partition_offsets=...)``; ``None`` when the index has
        no partition block.
    plan:
        The per-user :class:`RankingPlan`, ready to be handed to
        ``rank_candidates``/``rank_topk`` so the re-rank stage skips its own
        ``prepare_ranking`` pass.
    fit_residual:
        RMS error of the calibrated fit over the exactly-scored items — a
        per-query health signal (large residuals mean the surrogate is a poor
        proxy for this user and retrieval fan-out should widen).
    """

    vector: np.ndarray
    bias: float
    partition_offsets: Optional[np.ndarray]
    plan: RankingPlan
    fit_residual: float

    @property
    def dim(self) -> int:
        return self.vector.shape[0] - 1


class QueryEncoder:
    """Fit per-user calibrated linear queries against one :class:`ItemIndex`.

    Parameters
    ----------
    engine:
        The serving engine of the *same* model the index was snapshotted
        from; probe/representative scoring runs through its ranking fast
        path.
    index:
        The item index to encode queries for (its probe items define the
        fitting set; its partition representatives, when present, define the
        calibration set).
    """

    def __init__(self, engine: InferenceEngine, index: ItemIndex):
        if index.dim != engine.config.embed_dim:
            raise ValueError(
                f"index embedding dim {index.dim} does not match the model's "
                f"embed_dim {engine.config.embed_dim}"
            )
        self.engine = engine
        self.index = index
        self._factor()

    def _factor(self) -> None:
        """Precompute what depends on the index alone (not on the user).

        The fitting set — probe items plus, when present, one representative
        per partition — and the pseudo-inverse of its ``[e, 1]`` design
        matrix, cut off where ``lstsq`` cuts off by default, so a request
        pays one ``(d + 1) × (p + k)`` product instead of a least-squares
        solve.
        """
        index = self.index
        # Identity of the partition block this factorisation was built for:
        # ``build_partitions`` replaces it in place (``encode`` re-factors).
        self._representatives = index.representative_positions
        self._num_probes = index.probe_positions.shape[0]
        if index.has_partitions:
            positions = np.concatenate(
                [index.probe_positions, index.representative_positions]
            )
            self._assignments = index.assignments[positions]
        else:
            positions = index.probe_positions
        self._item_ids = index.item_ids[positions]
        self._vectors = index.vectors[positions]
        self._weights = index.weights[positions]
        # Fit score ≈ q·e + w + b  ⇔  (score − w) ≈ [e, 1] @ [q; b]
        design = self._vectors.copy()
        design[:, -1] = 1.0
        self._design_pinv = np.linalg.pinv(
            design, rcond=np.finfo(np.float64).eps * max(design.shape)
        )

    def encode(
        self,
        static_profile: Sequence[int],
        history: Sequence[int] = (),
        history_mask: Optional[np.ndarray] = None,
        plan: Optional[RankingPlan] = None,
    ) -> EncodedQuery:
        """Build the user's query; reuses ``plan`` when the caller has one."""
        if self.index.representative_positions is not self._representatives:
            self._factor()
        if plan is None:
            plan = self.engine.prepare_ranking(static_profile, history, history_mask)
        exact_scores = self.engine.rank_candidates(
            plan.static_profile, self._item_ids, plan=plan
        )
        solution = self._design_pinv @ (exact_scores - self._weights)
        q, bias = solution[:-1], float(solution[-1])
        vector = np.concatenate([q, [1.0]])

        partition_offsets = None
        surrogate = self._vectors @ vector + bias
        if self._representatives is not None:
            # offset_p = exact(rep_p) − surrogate(rep_p): the cluster-level
            # correction the linear functional cannot express.
            rep_exact = exact_scores[self._num_probes:]
            rep_surrogate = surrogate[self._num_probes:]
            partition_offsets = rep_exact - rep_surrogate
            calibrated = surrogate + partition_offsets[self._assignments]
            residual = calibrated - exact_scores
        else:
            residual = surrogate - exact_scores
        fit_residual = float(np.sqrt(np.mean(residual**2)))
        return EncodedQuery(
            vector=vector,
            bias=bias,
            partition_offsets=partition_offsets,
            plan=plan,
            fit_residual=fit_residual,
        )

    def __repr__(self) -> str:
        return f"QueryEncoder({self.engine!r}, {self.index!r})"
