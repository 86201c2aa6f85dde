"""Graph-free batched inference over a trained SeqFM model.

Training evaluates the model through the autograd layer: every matmul
allocates a :class:`~repro.autograd.tensor.Tensor` node and registers a
backward closure, even under ``no_grad``.  Serving never needs gradients, so
:class:`InferenceEngine` re-runs the *same* forward math — Eq. 3-19 of the
paper — directly on the model's parameter arrays with the pure-NumPy kernels
in :mod:`repro.nn.kernels` and the mask builders in :mod:`repro.core.views`.
Nothing is duplicated: every view is one pooled-attention kernel call, the
same for per-row histories (``score``) and one user's history shared by C
candidates (``rank_candidates``), and the shared residual network is one pass
over all views' rows stacked, so engine output matches
:meth:`repro.core.model.SeqFM.score` to rounding (the test suite asserts
1e-10).

The engine reads parameters *by reference*: when a registry hot-reloads a
checkpoint into the same model object via ``load_state_dict``, the engine
picks up the new weights on the next call without being rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.masks import padding_key_row
from repro.core.model import SeqFM
from repro.core.views import (
    cross_static_mask,
    cross_valid_mask,
    dynamic_query_rows,
    mean_pool_weights,
)
from repro.data.features import FeatureBatch, FeatureEncoder, pad_sequences
from repro.nn import kernels
from repro.nn.attention import SelfAttention
from repro.nn.feedforward import ResidualFeedForward


@dataclass
class RankingPlan:
    """Per-user workspace of the candidate-ranking fast path.

    Everything in here depends only on the user — the static profile and the
    interaction history — never on the candidate, so it is computed **once**
    by :meth:`InferenceEngine.prepare_ranking` and reused across the C
    candidate rows of :meth:`InferenceEngine.rank_candidates`:

    * the padded history encoding and its dynamic linear-term sum;
    * the dynamic view evaluated end to end (attention + pooling + FFN) —
      the n˙²-cost block of the model;
    * the cross-view Q/K/V projections of the history rows, each one GEMM
      against all C candidates' static rows in
      :func:`repro.nn.kernels.pooled_cross_attention` (no history↔history block).

    A plan snapshots projections of the *current* weights; after a registry
    hot-reload build a fresh plan (``rank_candidates`` without an explicit
    ``plan`` argument always does).
    """

    static_profile: np.ndarray       # (n_static,) int64 template row
    candidate_slot: int              # profile slot the candidate index replaces
    dynamic_indices: np.ndarray      # (1, n) padded history
    dynamic_mask: np.ndarray         # (1, n) validity mask
    dynamic_linear_sum: float        # Σ w˙ over the valid history events
    dynamic_refined: Optional[np.ndarray]   # (1, d) post-FFN dynamic view
    cross_q_dyn: Optional[np.ndarray]       # (n, d) history queries
    cross_k_dyn: Optional[np.ndarray]       # (n, d) history keys
    cross_v_dyn: Optional[np.ndarray]       # (n, d) history values


class InferenceEngine:
    """Vectorised, allocation-lean forward pass for a trained SeqFM model.

    Parameters
    ----------
    model:
        A (typically trained) :class:`~repro.core.model.SeqFM` instance.  The
        engine holds a reference and reads the parameter arrays at call time;
        it never mutates the model.

    Examples
    --------
    >>> engine = InferenceEngine(model)
    >>> scores = engine.score(batch)           # == model.score(batch)
    >>> probs = engine.classify(batch)         # == SeqFMClassifier probabilities
    """

    def __init__(self, model: SeqFM):
        self._model = model
        self.config = model.config

    @property
    def model(self) -> SeqFM:
        return self._model

    # ------------------------------------------------------------------ #
    # Public endpoints
    # ------------------------------------------------------------------ #
    def score(self, batch: FeatureBatch) -> np.ndarray:
        """Raw scores ŷ for every instance — parity with ``SeqFM.score``."""
        self._validate_indices(batch)
        return self._linear_term(batch) + self._interaction_term(batch)

    def _validate_indices(self, batch: FeatureBatch) -> None:
        # The autograd path validates inside Embedding.forward; the engine
        # indexes the weight arrays directly, so re-check here — a bad request
        # must surface as a clean TypeError/IndexError, not corrupt (or worse,
        # silently succeed at) NumPy fancy-indexing.
        self._check_index_array("static", batch.static_indices, self.config.static_vocab_size)
        self._check_index_array("dynamic", batch.dynamic_indices, self.config.dynamic_vocab_size)

    @staticmethod
    def _check_index_array(name: str, indices: np.ndarray, vocab: int) -> None:
        indices = np.asarray(indices)
        if indices.dtype.kind not in "iu":
            # float/bool arrays fancy-index weight tables without error (bool
            # even changes meaning, selecting rows 0/1) — reject them outright.
            raise TypeError(
                f"{name} feature indices must have an integer dtype, got {indices.dtype}"
            )
        if indices.size and (indices.min() < 0 or indices.max() >= vocab):
            raise IndexError(
                f"{name} feature index out of range [0, {vocab}): "
                f"min={indices.min()}, max={indices.max()}"
            )

    def classify(self, batch: FeatureBatch) -> np.ndarray:
        """σ(ŷ) ∈ (0, 1) — parity with ``ClassificationTask.predict_probability``."""
        return kernels.sigmoid(self.score(batch))

    def regress(self, batch: FeatureBatch) -> np.ndarray:
        """Predicted ratings — the raw score, as in ``RegressionTask``."""
        return self.score(batch)

    # ------------------------------------------------------------------ #
    # Candidate ranking fast path
    # ------------------------------------------------------------------ #
    def prepare_ranking(
        self,
        static_profile: Sequence[int],
        history: Sequence[int],
        history_mask: Optional[np.ndarray] = None,
        candidate_slot: int = FeatureEncoder.candidate_slot,
    ) -> RankingPlan:
        """Build the per-user workspace of :meth:`rank_candidates`.

        ``static_profile`` is one row of static feature indices (the
        candidate slot's value is a placeholder — it is replaced per
        candidate).  ``history`` is the raw (unpadded) dynamic-vocabulary
        event sequence unless ``history_mask`` is given, in which case it is
        taken as an already padded length-n˙ row with its validity mask.

        All candidate-independent work happens here, once: the dynamic
        embeddings, the full dynamic view (attention + pooling + FFN), the
        dynamic linear sum, and the cross-view Q/K/V projections of the
        history rows.
        """
        model = self._model
        # asarray without a dtype so a float/bool input reaches the dtype
        # check un-cast instead of being silently truncated to integers
        profile = np.asarray(static_profile).reshape(-1)
        self._check_index_array("static", profile, self.config.static_vocab_size)
        profile = profile.astype(np.int64, copy=False)
        if not (0 <= candidate_slot < profile.shape[0]):
            raise ValueError(
                f"candidate_slot {candidate_slot} outside the static profile "
                f"of {profile.shape[0]} features"
            )

        if history_mask is None:
            # Validate only the visible suffix — pad_sequences truncates to
            # the last n˙ events, and the sequence-store path (which encodes
            # before the engine sees indices) truncates the same way.
            events = list(history)[-self.config.max_seq_len:]
            if events:
                self._check_index_array(
                    "dynamic", np.asarray(events), self.config.dynamic_vocab_size
                )
            dynamic, mask = pad_sequences([events], self.config.max_seq_len)
        else:
            dynamic = np.asarray(history).reshape(1, -1)
            self._check_index_array("dynamic", dynamic, self.config.dynamic_vocab_size)
            dynamic = dynamic.astype(np.int64, copy=False)
            mask = np.asarray(history_mask, dtype=np.float64).reshape(1, -1)
            if dynamic.shape != mask.shape or dynamic.shape[1] != self.config.max_seq_len:
                raise ValueError(
                    "padded history and mask must both have shape "
                    f"(1, {self.config.max_seq_len}), got {dynamic.shape} and {mask.shape}"
                )

        dynamic_linear_sum = float(
            (model.dynamic_linear.data[dynamic] * mask).sum()
        )

        dynamic_refined: Optional[np.ndarray] = None
        cross_q = cross_k = cross_v = None
        needs_dynamic_embeddings = (
            model.dynamic_view is not None or model.cross_view is not None
        )
        if needs_dynamic_embeddings:
            dynamic_embedded = model.dynamic_embedding.weight.data[dynamic]  # (1, n, d)

        if model.dynamic_view is not None:
            pooled = self._dynamic_view(dynamic_embedded, mask, padding_key_row(mask))
            view_index = 1 if model.static_view is not None else 0
            dynamic_refined = self._apply_ffn(pooled, view_index)

        if model.cross_view is not None:
            cross_q, cross_k, cross_v = self._project(
                model.cross_view.attention, dynamic_embedded[0]
            )  # each (n, d)

        return RankingPlan(
            static_profile=profile,
            candidate_slot=candidate_slot,
            dynamic_indices=dynamic,
            dynamic_mask=mask,
            dynamic_linear_sum=dynamic_linear_sum,
            dynamic_refined=dynamic_refined,
            cross_q_dyn=cross_q,
            cross_k_dyn=cross_k,
            cross_v_dyn=cross_v,
        )

    def rank_candidates(
        self,
        static_profile: Sequence[int],
        candidate_indices: Sequence[int],
        history: Sequence[int] = (),
        history_mask: Optional[np.ndarray] = None,
        plan: Optional[RankingPlan] = None,
        candidate_slot: int = FeatureEncoder.candidate_slot,
    ) -> np.ndarray:
        """Score C candidates that share one user profile and history.

        Parity-equivalent (1e-10) to scoring C single-row batches through
        :meth:`score` with the candidate slot swapped per row, but every
        candidate-independent quantity — the dynamic view, the dynamic linear
        sum, the cross-view history projections — is computed once via
        :class:`RankingPlan` and shared, leaving only the per-candidate
        static work: the static-view attention over n° rows and the
        cross-view projections and two score blocks of the candidate's
        static rows.

        Returns the raw scores, one per candidate, in candidate order.
        """
        if plan is None:
            plan = self.prepare_ranking(
                static_profile, history, history_mask, candidate_slot=candidate_slot
            )
        model = self._model
        candidates = np.asarray(candidate_indices).reshape(-1)
        if candidates.size == 0:
            return np.empty(0, dtype=np.float64)
        self._check_index_array("candidate", candidates, self.config.static_vocab_size)
        candidates = candidates.astype(np.int64, copy=False)

        num_candidates = candidates.shape[0]
        static_full = np.tile(plan.static_profile, (num_candidates, 1))
        static_full[:, plan.candidate_slot] = candidates

        # --- Linear term: only the static sum is candidate-dependent -----
        static_weights = model.static_linear.data[static_full].sum(axis=-1)
        linear = model.global_bias.data + static_weights + plan.dynamic_linear_sum

        # --- Interaction term --------------------------------------------
        # Only the static and cross views depend on the candidate; _refine
        # runs their C rows each through the shared network as one (2C, d) block.
        static_embedded = model.static_embedding.weight.data[static_full]  # (C, n°, d)
        pooled: List[np.ndarray] = []
        view_indices: List[int] = []
        if model.static_view is not None:
            pooled.append(self._static_view(static_embedded))
            view_indices.append(0)
        if model.cross_view is not None:
            pooled.append(self._cross_view(
                static_embedded,
                (plan.cross_q_dyn, plan.cross_k_dyn, plan.cross_v_dyn),
                plan.dynamic_mask,
                padding_key_row(plan.dynamic_mask),
            ))
            view_indices.append(self.config.num_views() - 1)
        refined = self._refine(pooled, view_indices)
        if model.dynamic_view is not None:
            # view order is static, dynamic, cross
            refined.insert(int(model.static_view is not None), np.broadcast_to(
                plan.dynamic_refined, (num_candidates, plan.dynamic_refined.shape[-1])
            ))

        aggregated = np.concatenate(refined, axis=-1)
        return linear + aggregated @ model.projection.data

    def rank_topk(
        self,
        static_profile: Sequence[int],
        candidate_indices: Sequence[int],
        k: int,
        history: Sequence[int] = (),
        history_mask: Optional[np.ndarray] = None,
        plan: Optional[RankingPlan] = None,
        candidate_slot: int = FeatureEncoder.candidate_slot,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-k of :meth:`rank_candidates`: ``(candidate_indices, scores)``.

        Both arrays are ordered best-first; the candidates are the *values*
        from ``candidate_indices``, not positions.  Selection is the
        :func:`repro.nn.kernels.top_k` partial sort.
        """
        candidates = np.asarray(candidate_indices).reshape(-1)
        scores = self.rank_candidates(
            static_profile, candidates, history, history_mask,
            plan=plan, candidate_slot=candidate_slot,
        )
        order = kernels.top_k(scores, k)
        return candidates[order].astype(np.int64, copy=False), scores[order]

    # ------------------------------------------------------------------ #
    # Forward components (mirror SeqFM._linear_term/_interaction_term)
    # ------------------------------------------------------------------ #
    def _linear_term(self, batch: FeatureBatch) -> np.ndarray:
        model = self._model
        static_weights = model.static_linear.data[batch.static_indices].sum(axis=-1)
        dynamic_weights = model.dynamic_linear.data[batch.dynamic_indices]
        dynamic_sum = (dynamic_weights * batch.dynamic_mask).sum(axis=-1)
        return model.global_bias.data + static_weights + dynamic_sum

    def _interaction_term(self, batch: FeatureBatch) -> np.ndarray:
        model = self._model
        static_embedded = model.static_embedding.weight.data[batch.static_indices]
        dynamic_embedded = model.dynamic_embedding.weight.data[batch.dynamic_indices]
        valid = batch.dynamic_mask
        key_row = padding_key_row(valid)

        pooled_views: List[np.ndarray] = []
        if model.static_view is not None:
            pooled_views.append(self._static_view(static_embedded))
        if model.dynamic_view is not None:
            pooled_views.append(self._dynamic_view(dynamic_embedded, valid, key_row))
        if model.cross_view is not None:
            history_qkv = self._project(model.cross_view.attention, dynamic_embedded)
            pooled_views.append(
                self._cross_view(static_embedded, history_qkv, valid, key_row)
            )

        refined = self._refine(pooled_views, range(len(pooled_views)))
        return np.concatenate(refined, axis=-1) @ model.projection.data

    @staticmethod
    def _project(attention: SelfAttention, features: np.ndarray) -> Tuple[np.ndarray, ...]:
        return kernels.project_qkv(
            features, attention.w_query.data, attention.w_key.data, attention.w_value.data
        )

    def _static_view(self, static_embedded: np.ndarray) -> np.ndarray:
        queries, keys, values = self._project(self._model.static_view.attention, static_embedded)
        row_weights = np.full(queries.shape[:-1], 1.0 / queries.shape[-2])
        return kernels.pooled_attention(queries, keys, values, row_weights)

    def _dynamic_view(
        self, dynamic_embedded: np.ndarray, valid_mask: np.ndarray, key_row: np.ndarray
    ) -> np.ndarray:
        view = self._model.dynamic_view
        queries, keys, values = self._project(view.attention, dynamic_embedded)
        queries, mask, row_weights = dynamic_query_rows(
            queries, valid_mask, key_row, view.pooling
        )
        return kernels.pooled_attention(queries, keys, values, row_weights, mask=mask)

    def _cross_view(
        self,
        static_embedded: np.ndarray,
        history_qkv: Tuple[np.ndarray, ...],
        valid_mask: np.ndarray,
        key_row: np.ndarray,
    ) -> np.ndarray:
        """``history_qkv``/``valid_mask``/``key_row`` are per row (:meth:`score`)
        or one user's ``(n, d)`` / ``(1, n)`` shared by the ``(C, n°, d)``
        candidates."""
        num_static = static_embedded.shape[-2]
        return kernels.pooled_cross_attention(
            self._project(self._model.cross_view.attention, static_embedded),
            history_qkv,
            mean_pool_weights(cross_valid_mask(num_static, valid_mask)),
            cross_static_mask(num_static, key_row),
        )

    def _refine(
        self, pooled_views: List[np.ndarray], view_indices: Sequence[int]
    ) -> List[np.ndarray]:
        """The residual network over each pooled ``(rows, d)`` view (Eq. 15-17).

        The paper's network is shared by all views, so it runs once, on the
        views stacked along rows as ``(V·rows, d)``, and is split back per
        view; ``share_ffn=False`` runs each view through its own network.
        """
        model = self._model
        if model.shared_ffn is not None and len(pooled_views) > 1:
            rows, dim = pooled_views[0].shape
            stacked = self._ffn_forward(model.shared_ffn, np.concatenate(pooled_views))
            return list(stacked.reshape(len(pooled_views), rows, dim))
        return [self._apply_ffn(view, index) for index, view in zip(view_indices, pooled_views)]

    def _apply_ffn(self, pooled: np.ndarray, view_index: int) -> np.ndarray:
        model = self._model
        ffn = model.shared_ffn if model.shared_ffn is not None else model.view_ffns[view_index]
        return self._ffn_forward(ffn, pooled)

    @staticmethod
    def _ffn_forward(ffn: ResidualFeedForward, x: np.ndarray) -> np.ndarray:
        # Dropout is identity at inference time, so the eval-mode forward of
        # ResidualFeedForward reduces to this loop.
        hidden = x
        for linear, norm in zip(ffn.linears, ffn.norms):
            branch_input = (
                kernels.layer_norm(hidden, norm.scale.data, norm.bias.data, eps=norm.eps)
                if ffn.use_layer_norm
                else hidden
            )
            affine = branch_input @ linear.weight.data
            if linear.bias is not None:
                affine = affine + linear.bias.data
            branch = kernels.relu(affine)
            hidden = hidden + branch if ffn.use_residual else branch
        return hidden

    def __repr__(self) -> str:
        return f"InferenceEngine({self._model!r})"
