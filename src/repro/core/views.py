"""The three attention views of SeqFM (Sections III-B, III-C, III-D).

Each view applies a single self-attention head to a feature matrix and
compresses the result with intra-view pooling (Eq. 14), folded into the
attention weights (:func:`repro.nn.attention.pooled_attention`, one graph node
per view):

* :class:`StaticView` — unmasked attention over the n° static features.
* :class:`DynamicView` — causally masked attention over the n˙-step dynamic
  sequence, with padding keys additionally blocked.
* :class:`CrossView` — attention over the vertical concatenation [E°; E˙]
  where the mask only allows static↔dynamic interactions, evaluated in two
  row blocks so the (n°+n˙)² score matrix is never built.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.core import masks as mask_lib
from repro.nn.attention import SelfAttention, pooled_attention, pooled_cross_attention
from repro.nn.module import Module


# --------------------------------------------------------------------------- #
# Mask and pooling-weight assembly shared by the autograd views below and the
# graph-free serving engine (repro.serving.engine) — keep a single source of
# truth for which feature pairs each view may attend to and how its rows pool.
# Key masks are built from the batch's padding key row
# (repro.core.masks.padding_key_row), made once per batch by the caller.
# --------------------------------------------------------------------------- #
def dynamic_attention_mask(key_row: np.ndarray) -> np.ndarray:
    """Per-batch mask of the dynamic view: causal + padding keys (Eq. 10)."""
    causal = mask_lib.causal_mask(key_row.shape[-1])
    return mask_lib.combine_masks(causal, key_row[:, None, :])


def cross_valid_mask(num_static: int, valid_mask: np.ndarray) -> np.ndarray:
    """Validity of the concatenated [E°; E˙] rows: statics always valid."""
    batch = np.asarray(valid_mask).shape[0]
    static_valid = np.ones((batch, num_static), dtype=np.float64)
    return np.concatenate([static_valid, np.asarray(valid_mask, dtype=np.float64)], axis=1)


def cross_attention_mask(
    num_static: int, seq_len: int, combined_valid: np.ndarray
) -> np.ndarray:
    """Per-batch (T, T) mask of the cross view (Eq. 13): cross-only + padding keys.

    The dense form, for inspection (:mod:`repro.core.interpret`) and tests.
    """
    padding = mask_lib.padding_key_mask(combined_valid)
    cross = mask_lib.cross_view_mask(num_static, seq_len)[None, :, :]
    return mask_lib.combine_masks(cross, padding)


def cross_static_mask(num_static: int, key_row: np.ndarray) -> np.ndarray:
    """The static query rows of :func:`cross_attention_mask`, ``(batch, 1, T)``:
    all n° are one row — static keys blocked, history keys open where valid."""
    blocked = np.full((key_row.shape[0], num_static), mask_lib.NEG_INF)
    return np.concatenate([blocked, key_row], axis=1)[:, None, :]


def mean_pool_weights(valid_mask: np.ndarray) -> np.ndarray:
    """Pooling weights of the masked mean (Eq. 14): ``valid / max(count, 1)``."""
    valid = np.asarray(valid_mask, dtype=np.float64)
    return valid / np.maximum(valid.sum(axis=-1, keepdims=True), 1.0)


def dynamic_query_rows(queries, valid_mask: np.ndarray, key_row: np.ndarray, pooling: str):
    """The dynamic view's pooled query rows, their mask and pooling weights.

    ``"mean"`` pools every valid row of the causal attention; ``"last"``
    keeps the final position, so only that query row attends (the causal mask
    leaves it every non-padding key).  ``queries``: array or :class:`Tensor`;
    ``key_row`` is ``padding_key_row(valid_mask)``.
    """
    if pooling == "last":
        return (queries[:, -1:, :], key_row[:, None, :],
                np.ones((queries.shape[0], 1), dtype=np.float64))
    return queries, dynamic_attention_mask(key_row), mean_pool_weights(valid_mask)


class StaticView(Module):
    """Self-attention over static feature embeddings (Eq. 6-8) + pooling."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.attention = SelfAttention(dim, rng=rng)

    def forward(self, static_embeddings: Tensor) -> Tensor:
        """``static_embeddings``: (batch, n_static, d) → pooled (batch, d)."""
        queries, keys, values = self.attention.project(static_embeddings)
        row_weights = np.full(queries.shape[:-1], 1.0 / queries.shape[-2])
        return pooled_attention(queries, keys, values, row_weights)


class DynamicView(Module):
    """Causally masked self-attention over the dynamic sequence (Eq. 9-10)."""

    def __init__(self, dim: int, pooling: str = "mean", *, rng: np.random.Generator):
        super().__init__()
        if pooling not in ("mean", "last"):
            raise ValueError("pooling must be 'mean' or 'last'")
        self.attention = SelfAttention(dim, rng=rng)
        self.pooling = pooling

    def forward(self, dynamic_embeddings: Tensor, valid_mask: np.ndarray) -> Tensor:
        """``dynamic_embeddings``: (batch, n_dyn, d); ``valid_mask``: (batch, n_dyn)."""
        queries, keys, values = self.attention.project(dynamic_embeddings)
        queries, mask, row_weights = dynamic_query_rows(
            queries, valid_mask, mask_lib.padding_key_row(valid_mask), self.pooling
        )
        return pooled_attention(queries, keys, values, row_weights, mask=mask)


class CrossView(Module):
    """Masked self-attention over [E°; E˙] keeping only cross interactions (Eq. 11-13)."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.attention = SelfAttention(dim, rng=rng)

    def forward(
        self,
        static_embeddings: Tensor,
        dynamic_embeddings: Tensor,
        valid_mask: np.ndarray,
    ) -> Tensor:
        """``static_embeddings`` (rows, n_static, d) → pooled (rows, d).  Row
        ``c·groups + g`` (the draw-major layout of ``with_candidates``) has the
        history ``dynamic_embeddings[g]`` (groups, n_dyn, d), so each history
        is projected and attended once for its candidates; untiled, groups = rows.
        """
        groups = dynamic_embeddings.shape[0]
        num_static, dim = static_embeddings.shape[-2:]
        candidates = static_embeddings.reshape(-1, groups, num_static, dim).swapaxes(0, 1)
        pooled = pooled_cross_attention(
            self.attention.project(candidates),
            self.attention.project(dynamic_embeddings),
            mean_pool_weights(cross_valid_mask(num_static, valid_mask))[:, None],
            cross_static_mask(num_static, mask_lib.padding_key_row(valid_mask))[:, None],
        )  # (groups, tile, d)
        return pooled.swapaxes(0, 1).reshape(-1, dim)
