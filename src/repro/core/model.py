"""The Sequence-Aware Factorization Machine (Eq. 3-19 of the paper).

The model consumes a :class:`~repro.data.features.FeatureBatch` — the indices
of the non-zero static features, the padded dynamic sequence and its validity
mask — and emits one raw score per instance:

``ŷ = w₀ + Σ linear-weights of non-zero features + ⟨p, h_agg⟩``

where ``h_agg`` is the concatenation of the static-, dynamic- and cross-view
representations after the shared residual feed-forward network.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.core.config import SeqFMConfig
from repro.core.views import CrossView, DynamicView, StaticView
from repro.data.features import FeatureBatch
from repro.nn import init
from repro.nn.embedding import Embedding
from repro.nn.feedforward import ResidualFeedForward
from repro.nn.module import Module, Parameter


class SeqFM(Module):
    """Multi-view self-attentive factorisation machine.

    Parameters
    ----------
    config:
        Architecture hyper-parameters and ablation switches; see
        :class:`~repro.core.config.SeqFMConfig`.
    """

    def __init__(self, config: SeqFMConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        d = config.embed_dim

        # --- Embedding layer (Eq. 5) -----------------------------------
        self.static_embedding = Embedding(config.static_vocab_size, d, rng=rng)
        self.dynamic_embedding = Embedding(
            config.dynamic_vocab_size, d, padding_idx=0, rng=rng
        )

        # --- Linear term (first two terms of Eq. 4) ---------------------
        self.global_bias = Parameter(np.zeros(1), name="w0")
        self.static_linear = Parameter(np.zeros(config.static_vocab_size), name="w_static")
        self.dynamic_linear = Parameter(np.zeros(config.dynamic_vocab_size), name="w_dynamic")

        # --- Multi-view self-attention (Eq. 6-13) -----------------------
        self.static_view = StaticView(d, rng=rng) if config.use_static_view else None
        self.dynamic_view = (
            DynamicView(d, pooling=config.pooling, rng=rng) if config.use_dynamic_view else None
        )
        self.cross_view = CrossView(d, rng=rng) if config.use_cross_view else None

        # --- Shared residual feed-forward network (Eq. 15) --------------
        def build_ffn() -> ResidualFeedForward:
            return ResidualFeedForward(
                d,
                num_layers=config.ffn_layers,
                dropout=config.dropout,
                use_residual=config.use_residual,
                use_layer_norm=config.use_layer_norm,
                rng=rng,
            )

        if config.share_ffn:
            self.shared_ffn = build_ffn()
            self.view_ffns = None
        else:
            self.shared_ffn = None
            self.view_ffns = [build_ffn() for _ in range(config.num_views())]

        # --- Output projection (Eq. 18) ----------------------------------
        aggregated_dim = config.num_views() * d
        self.projection = Parameter(
            init.xavier_uniform((aggregated_dim,), rng), name="projection"
        )

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, batch: FeatureBatch) -> Tensor:
        """Score every instance in the batch; returns a Tensor of shape (batch,)."""
        linear_term = self._linear_term(batch)
        interaction_term = self._interaction_term(batch)
        return linear_term + interaction_term

    def score(self, batch: FeatureBatch) -> np.ndarray:
        """Inference-mode scores as a plain array.

        Evaluates through the autograd layer in eval mode under ``no_grad``
        (dropout off, no backward bookkeeping kept).  For serving-volume
        traffic prefer :class:`repro.serving.engine.InferenceEngine`, which
        runs the same math graph-free on the weight arrays and returns
        identical scores.
        """
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                scores = self.forward(batch).data
        finally:
            self.train(was_training)
        return scores

    # ------------------------------------------------------------------ #
    # Components
    # ------------------------------------------------------------------ #
    def _linear_term(self, batch: FeatureBatch) -> Tensor:
        """w₀ + Σᵢ wᵢ xᵢ over the non-zero static and dynamic features (Eq. 4).

        Like :meth:`_interaction_term`, the history-only dynamic sum of a
        candidate-fused batch (``dynamic_tile > 1``) is computed once per
        group and gathered out to all rows.
        """
        rows = batch.static_indices.shape[0]
        tile = getattr(batch, "dynamic_tile", 1) or 1
        base = rows // tile if tile > 1 and rows % tile == 0 else rows

        static_weights = self.static_linear.gather_rows(batch.static_indices).sum(axis=-1)
        dynamic_weights = self.dynamic_linear.gather_rows(batch.dynamic_indices[:base])
        masked_dynamic = dynamic_weights * Tensor(batch.dynamic_mask[:base])
        dynamic_sum = masked_dynamic.sum(axis=-1)
        if base < rows:
            dynamic_sum = dynamic_sum.gather_rows(np.tile(np.arange(base), rows // base))
        return self.global_bias + static_weights + dynamic_sum

    def _interaction_term(self, batch: FeatureBatch) -> Tensor:
        """f(G°, G˙): the multi-view self-attentive factorisation (Eq. 5-18).

        When the batch is candidate-fused (``dynamic_tile > 1``, see
        :meth:`~repro.data.features.FeatureBatch.with_candidates`) the dynamic
        arrays are vertical copies of their first ``batch/tile`` rows, so the
        dynamic view — the n˙²-cost attention that only depends on the history
        — is computed once per group and its refined representation gathered
        back out to all rows; gradients scatter-add through the gather, which
        is exactly the sum the tiled computation would produce.  The static
        and cross views depend on the candidate and run on every row, but the
        cross view attends each group's history once, as one GEMM against all
        of its candidates' static rows — no per-row copy of the history.
        """
        rows = batch.static_indices.shape[0]
        tile = getattr(batch, "dynamic_tile", 1) or 1
        base = rows // tile if tile > 1 and rows % tile == 0 else rows
        tile_map = np.tile(np.arange(base), rows // base) if base < rows else None

        static_embedded = self.static_embedding(batch.static_indices)
        dynamic_embedded = self.dynamic_embedding(batch.dynamic_indices[:base])

        # (pooled representation, needs re-tiling to all rows after the FFN)
        pooled_views: List[tuple] = []
        if self.static_view is not None:
            pooled_views.append((self.static_view(static_embedded), False))
        if self.dynamic_view is not None:
            pooled_views.append(
                (self.dynamic_view(dynamic_embedded, batch.dynamic_mask[:base]),
                 tile_map is not None)
            )
        if self.cross_view is not None:
            crossed = self.cross_view(static_embedded, dynamic_embedded, batch.dynamic_mask[:base])
            pooled_views.append((crossed, False))

        refined: List[Tensor] = []
        for index, (view, deduped) in enumerate(pooled_views):
            out = self._apply_ffn(view, index)
            refined.append(out.gather_rows(tile_map) if deduped else out)
        aggregated = Tensor.concatenate(refined, axis=-1)  # (batch, num_views * d)
        return aggregated @ self.projection

    def _apply_ffn(self, pooled: Tensor, view_index: int) -> Tensor:
        if self.shared_ffn is not None:
            return self.shared_ffn(pooled)
        return self.view_ffns[view_index](pooled)

    # ------------------------------------------------------------------ #
    # Introspection helpers used by tests and the complexity benchmark
    # ------------------------------------------------------------------ #
    def view_representations(self, batch: FeatureBatch) -> List[np.ndarray]:
        """Return the pooled (pre-FFN) representation of each active view."""
        with no_grad():
            static_embedded = self.static_embedding(batch.static_indices)
            dynamic_embedded = self.dynamic_embedding(batch.dynamic_indices)
            views: List[np.ndarray] = []
            if self.static_view is not None:
                views.append(self.static_view(static_embedded).data)
            if self.dynamic_view is not None:
                views.append(self.dynamic_view(dynamic_embedded, batch.dynamic_mask).data)
            if self.cross_view is not None:
                views.append(
                    self.cross_view(static_embedded, dynamic_embedded, batch.dynamic_mask).data
                )
        return views

    def __repr__(self) -> str:
        return (
            f"SeqFM(d={self.config.embed_dim}, l={self.config.ffn_layers}, "
            f"n_dyn={self.config.max_seq_len}, dropout={self.config.dropout}, "
            f"views={self.config.num_views()}, params={self.num_parameters()})"
        )
