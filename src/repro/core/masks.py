"""Attention masks for the dynamic and cross views (Eq. 10 and Eq. 13).

The paper's masks contain 0 for allowed feature interactions and −∞ for
blocked ones; this implementation uses a large negative constant so that the
softmax stays numerically well-defined even on rows where every column is
blocked (which can happen for fully-padded sequences) — the resulting uniform
attention over an all-padding row contributes nothing because padding
embeddings are pinned to zero and padded positions are excluded from the
intra-view pooling.
"""

from __future__ import annotations

import functools

import numpy as np

#: Finite stand-in for the paper's −∞ mask entries.
NEG_INF = -1e9


@functools.lru_cache(maxsize=16)
def causal_mask(seq_len: int) -> np.ndarray:
    """Dynamic-view mask M˙ (Eq. 10): position i may attend to j only if j ≤ i.

    Built once per ``seq_len`` (every scoring call asks for its model's n˙)
    and shared by all callers, hence read-only: combine it, never write to it.
    """
    if seq_len < 1:
        raise ValueError("seq_len must be positive")
    mask = np.full((seq_len, seq_len), NEG_INF, dtype=np.float64)
    mask[np.tril_indices(seq_len)] = 0.0
    mask.setflags(write=False)
    return mask


def cross_view_mask(num_static: int, seq_len: int) -> np.ndarray:
    """Cross-view mask M* (Eq. 13).

    Rows/columns 0..num_static-1 are static features, the rest dynamic.  Entry
    (i, j) is 0 only when exactly one of i, j is static — the mask blocks all
    within-category interactions and keeps only static↔dynamic ones.
    """
    if num_static < 1 or seq_len < 1:
        raise ValueError("view sizes must be positive")
    total = num_static + seq_len
    is_static = np.arange(total) < num_static
    allowed = is_static[:, None] != is_static[None, :]
    mask = np.where(allowed, 0.0, NEG_INF)
    return mask.astype(np.float64)


def padding_key_mask(valid_mask: np.ndarray) -> np.ndarray:
    """Additive mask that blocks attention *to* padded sequence positions.

    ``valid_mask`` has shape (batch, seq_len) with 1 for real events; the
    returned mask has shape (batch, 1, seq_len) and is added to the attention
    scores so queries cannot attend to padding keys.  The paper handles
    padding by zero embeddings; explicitly masking the keys additionally keeps
    the softmax mass on real events, which matters for short histories.
    """
    valid = np.asarray(valid_mask, dtype=np.float64)
    if valid.ndim != 2:
        raise ValueError("valid_mask must have shape (batch, seq_len)")
    return padding_key_row(valid)[:, None, :]


def padding_key_row(valid_mask: np.ndarray) -> np.ndarray:
    """The rows of :func:`padding_key_mask` without the query axis: 0 at a valid
    position, NEG_INF at padding, one row per batch entry.

    Every key mask of the dynamic and cross views is assembled from this row
    (:mod:`repro.core.views`), so a caller that needs several of them builds it
    once per batch and passes it on.
    """
    return np.where(np.asarray(valid_mask) > 0, 0.0, NEG_INF)


def combine_masks(*masks: np.ndarray) -> np.ndarray:
    """Sum additive masks with broadcasting, clipping to the NEG_INF floor."""
    combined = masks[0]
    for mask in masks[1:]:
        combined = combined + mask
    return np.maximum(combined, NEG_INF)
