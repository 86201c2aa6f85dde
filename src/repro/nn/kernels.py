"""Pure-NumPy forward kernels shared by training and serving.

The autograd layer wraps operations in :class:`~repro.autograd.tensor.Tensor`
nodes so gradients can flow backwards.  Inference does not need any of that
bookkeeping, so the serving engine (:mod:`repro.serving.engine`) evaluates the
model with the plain-array kernels in this module instead.  Each kernel
computes the formula of its training counterpart — same constants, same
numerical tricks, and the same order of operations unless its docstring says
otherwise (:func:`layer_norm`) — so a graph-free forward pass agrees with
``SeqFM.score`` to rounding, not bitwise: two call sites may batch rows
differently, and BLAS sums accordingly.

The SeqFM views train on :func:`repro.nn.attention.pooled_attention` and
:func:`repro.nn.attention.pooled_cross_attention`, whose forwards call
:func:`attention_scores`, :func:`softmax` and :func:`_group_rows` in the order
of :func:`pooled_attention` and :func:`pooled_cross_attention` here, each as
one graph node with a hand-derived backward; the shared FFN's norm is
:func:`repro.nn.layers.layer_norm`.  Keep them in lock-step: any change to the
math here must be reflected there.  The tests enforce engine ≡ ``SeqFM.score``
to 1e-10 (``tests/test_serving_engine.py``), training op ≡ kernel bitwise and
kernel ≡ dense reference to 1e-12 (``tests/test_pooled_attention.py``).

The SeqFM views run on :func:`pooled_attention` (static, dynamic) and
:func:`pooled_cross_attention` (cross).  The dense attend-then-pool kernels
(:func:`attend_with_cached_kv`, :func:`mean_pool`, :func:`masked_mean_pool`)
are the reference those are tested against (``tests/test_pooled_attention.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis`` with max-subtraction for stability.

    Mirrors :func:`repro.autograd.functional.softmax`.
    """
    shifted = scores - scores.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=axis, keepdims=True)


def attention_scores(
    queries: np.ndarray, keys: np.ndarray, mask: Optional[np.ndarray] = None
) -> np.ndarray:
    """Masked, scaled dot-product attention scores ``QKᵀ/√d + M``."""
    d = queries.shape[-1]
    scores = queries @ np.swapaxes(keys, -1, -2) * (1.0 / np.sqrt(d))
    if mask is not None:
        scores = scores + np.asarray(mask, dtype=np.float64)
    return scores


def attention_weights(
    queries: np.ndarray, keys: np.ndarray, mask: Optional[np.ndarray] = None
) -> np.ndarray:
    """Softmax-normalised attention weight matrix (for inference/inspection)."""
    return softmax(attention_scores(queries, keys, mask=mask))


def scaled_dot_product_attention(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Eq. (6)/(9)/(11): ``softmax(QKᵀ/√d + M)·V`` on plain arrays.

    Mirrors :func:`repro.autograd.functional.scaled_dot_product_attention`.
    """
    return attention_weights(queries, keys, mask=mask) @ values


def project_qkv(
    features: np.ndarray,
    w_query: np.ndarray,
    w_key: np.ndarray,
    w_value: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project ``features`` into the query/key/value subspaces (Eq. 6).

    Split out from the attention kernels so that callers attending many
    query sets against one shared feature matrix (candidate ranking — C
    candidates, one history) project the shared rows **once** and hand the
    cached Q/K/V to :func:`pooled_cross_attention`.
    """
    return features @ w_query, features @ w_key, features @ w_value


def attend_with_cached_kv(
    queries: np.ndarray,
    cached_keys: np.ndarray,
    cached_values: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Attention against pre-projected (cached) keys/values.

    Identical math to :func:`scaled_dot_product_attention` — the split into
    :func:`project_qkv` + this function only changes *when* the projections
    happen, never what is computed, so fast-path output stays within parity
    tolerance of the fused kernel.  ``queries``/``cached_keys``/
    ``cached_values`` broadcast over leading batch axes, so one user's cached
    ``(n, d)`` history K/V can serve a ``(C, n, d)`` candidate batch.
    """
    return attention_weights(queries, cached_keys, mask=mask) @ cached_values


def pooled_attention(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    row_weights: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """A pooled attention view: ``(r · softmax(QKᵀ/√d + M)) · V`` → ``(..., d)``.

    Pooling (Eq. 14) is linear, so the ``(..., m)`` pooling weights ``r`` fold
    into the ``(..., m, n)`` attention weights *before* the value product: the
    ``(m, n)·(n, d)`` matmul of attend-then-pool becomes ``(1, n)·(n, d)``.
    Mean pooling is ``r = valid / count``; ``pooling="last"`` is that one
    query row with ``r = 1``.  :func:`repro.nn.attention.pooled_attention` is
    this forward as one training graph node.
    """
    weights = softmax(attention_scores(queries, keys, mask=mask))
    return ((row_weights[..., None, :] @ weights) @ values)[..., 0, :]


def _group_rows(x: np.ndarray, lead: Tuple[int, ...]) -> np.ndarray:
    """``x`` as ``lead + (rows, x.shape[-1])`` — a group's candidates stacked into
    one GEMM's rows, or split back; an ``x`` of that rank (per-row) as is."""
    return x if x.ndim == len(lead) + 2 else x.reshape(lead + (-1, x.shape[-1]))


def pooled_cross_attention(
    static_qkv: Tuple[np.ndarray, np.ndarray, np.ndarray],
    history_qkv: Tuple[np.ndarray, np.ndarray, np.ndarray],
    row_weights: np.ndarray,
    static_mask: np.ndarray,
) -> np.ndarray:
    """The cross view (Eq. 11-13): pool-before-values attention in two row blocks.

    The cross mask leaves only static↔dynamic pairs of ``[E°; E˙]``, so the
    ``(T, T)`` score matrix (``T = n° + n˙``) is never built:

    * the n° **static query rows** attend all ``T`` keys under ``static_mask``,
      their rows of the cross mask — with no valid history event every key
      sits on the mask floor and the softmax spreads over all of them, which
      is why these rows keep the static keys;
    * the n˙ **history query rows** attend the n° static keys only: their
      history-key columns are always blocked and a static key is always
      valid, so those weights are exactly 0 in the dense form.

    One grouped shape rule: static ``(..., C, n°, d)`` against history
    ``(..., n˙, d)``, whose leading axes are the groups; a group's C·n° static
    rows are the rows of **one** GEMM against its history (static-query
    scores, history-query scores, value product) → ``(..., C, d)``.  Ranking
    is ``(C, n°, d)`` against ``(n˙, d)``; per-row is C = 1 without the C
    axis.  ``row_weights`` (``(..., T)``) and ``static_mask`` broadcast over
    the static rows; history-block scores stay key-major, ``(..., n°, n˙)``.
    :func:`repro.nn.attention.pooled_cross_attention` is this forward as one
    training graph node.
    """
    q_static, k_static, v_static = static_qkv
    q_history, k_history, v_history = history_qkv
    groups, candidates = k_history.shape[:-2], q_static.shape[:-2]
    num_static = q_static.shape[-2]
    scale = 1.0 / np.sqrt(q_static.shape[-1])
    on_history = _group_rows(q_static, groups) @ k_history.swapaxes(-1, -2)
    scores = np.concatenate(
        [q_static @ k_static.swapaxes(-1, -2),
         _group_rows(on_history, candidates)], axis=-1,
    ) * scale + static_mask
    from_static = row_weights[..., None, :num_static] @ softmax(scores)  # (..., 1, T)
    on_static_keys = _group_rows(k_static, groups) @ q_history.swapaxes(-1, -2)
    weights = softmax(_group_rows(on_static_keys, candidates) * scale, axis=-2)
    from_history = weights @ row_weights[..., num_static:, None]  # (..., n°, 1)
    on_static = from_static[..., :num_static] + from_history.swapaxes(-1, -2)
    history_values = _group_rows(from_static[..., num_static:], groups) @ v_history
    return (on_static @ v_static + _group_rows(history_values, candidates))[..., 0, :]


def top_k(
    scores: np.ndarray, k: int, mask: Optional[np.ndarray] = None
) -> np.ndarray:
    """Indices of the ``k`` largest entries of a 1-D score vector, best first.

    A partial sort via :func:`np.argpartition` — O(C + k log k) instead of the
    O(C log C) full ``argsort`` — for the serving-side top-K cut of a ranked
    candidate list.  ``mask`` (1.0 = eligible) excludes candidates from the
    result entirely; fewer than ``k`` eligible entries shrink the result
    rather than padding it.  Ties break toward the lower index, matching
    ``np.argsort(-scores, kind="stable")``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"scores must be 1-D, got shape {scores.shape}")
    if k < 1:
        raise ValueError("k must be at least 1")
    eligible = np.arange(scores.shape[0])
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != scores.shape:
            raise ValueError("mask must match the scores shape")
        eligible = eligible[mask > 0]
        scores = scores[mask > 0]
    if eligible.size == 0:
        return np.empty(0, dtype=np.int64)
    k = min(k, eligible.size)
    if k < eligible.size:
        # argpartition alone is not tie-stable at the selection boundary, so
        # take everything strictly above the k-th largest value and fill the
        # remaining slots with the lowest-index entries tied at that value.
        boundary = scores[np.argpartition(-scores, k - 1)[k - 1]]
        above = np.flatnonzero(scores > boundary)
        tied = np.flatnonzero(scores == boundary)[: k - above.size]
        chosen = np.concatenate([above, tied])
    else:
        chosen = np.arange(eligible.size)
    # Order the k survivors by (-score, index): best first, stable on ties.
    order = np.lexsort((eligible[chosen], -scores[chosen]))
    return eligible[chosen[order]].astype(np.int64)


def blocked_topk_matmul(
    query: np.ndarray,
    matrix: np.ndarray,
    k: int,
    block_size: int = 8192,
    row_bias: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Top-``k`` rows of ``matrix`` by inner product with ``query``, blocked.

    Computes ``matrix @ query`` in row blocks of ``block_size`` so the brute
    force scan of a large catalog never materialises more than one block of
    scores at a time, keeping memory flat in the catalog size.  ``row_bias``
    (one entry per matrix row) is added to the scores inside the scan — the
    retrieval use case is per-partition calibration offsets.  Returns
    ``(row_indices, scores)`` best first.  Selection is exact: every true
    top-k row survives its own block's :func:`top_k` cut, and the final merge
    orders by ``(-score, row index)`` — the same result (including the tie
    order of bitwise-equal scores) as ``top_k(matrix @ query + row_bias, k)``
    over the full product, up to BLAS summation-order rounding of the
    products themselves.
    """
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != query.shape[0]:
        raise ValueError(
            f"matrix must have shape (rows, {query.shape[0]}), got {matrix.shape}"
        )
    if k < 1:
        raise ValueError("k must be at least 1")
    if block_size < 1:
        raise ValueError("block_size must be positive")
    if row_bias is not None:
        row_bias = np.asarray(row_bias, dtype=np.float64).reshape(-1)
        if row_bias.shape[0] != matrix.shape[0]:
            raise ValueError(
                f"row_bias must have one entry per matrix row ({matrix.shape[0]}), "
                f"got {row_bias.shape[0]}"
            )
    rows = matrix.shape[0]
    if rows == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    survivor_indices = []
    survivor_scores = []
    # block sweep: O(rows / block_size) iterations to bound scratch memory,
    # not a per-element loop — each iteration is one BLAS matmul
    for start in range(0, rows, block_size):
        block_scores = matrix[start:start + block_size] @ query
        if row_bias is not None:
            block_scores = block_scores + row_bias[start:start + block_size]
        keep = top_k(block_scores, k)
        survivor_indices.append(keep + start)
        survivor_scores.append(block_scores[keep])
    indices = np.concatenate(survivor_indices)
    scores = np.concatenate(survivor_scores)
    order = np.lexsort((indices, -scores))[: min(k, indices.size)]
    return indices[order].astype(np.int64), scores[order]


def kmeans_assign(
    points: np.ndarray, centroids: np.ndarray, block_size: int = 8192
) -> np.ndarray:
    """Nearest-centroid assignment (squared Euclidean), blocked over points.

    The assignment half of a Lloyd iteration, shared by the IVF index build
    and its query-time partition routing.  Distances are computed as
    ``‖c‖² − 2·p·c`` (the point's own norm is constant per row and cannot
    change the argmin) in blocks of ``block_size`` points, so assigning a
    100k-item catalog to hundreds of centroids stays within a few MB of
    scratch.  Ties resolve to the lowest centroid index.
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    if points.ndim != 2 or centroids.ndim != 2 or points.shape[1] != centroids.shape[1]:
        raise ValueError(
            f"points {points.shape} and centroids {centroids.shape} must share "
            "their feature dimension"
        )
    if block_size < 1:
        raise ValueError("block_size must be positive")
    centroid_norms = (centroids * centroids).sum(axis=1)  # (k,)
    assignments = np.empty(points.shape[0], dtype=np.int64)
    # block sweep: bounds the (block, k) distance matrix instead of
    # materialising all n×k distances at once; one BLAS call per iteration
    for start in range(0, points.shape[0], block_size):
        block = points[start:start + block_size]
        distances = centroid_norms[None, :] - 2.0 * (block @ centroids.T)
        assignments[start:start + block.shape[0]] = distances.argmin(axis=1)
    return assignments


def layer_norm(
    x: np.ndarray, scale: np.ndarray, bias: np.ndarray, eps: float = 1e-8
) -> np.ndarray:
    """Layer normalisation over the last axis (Eq. 16).

    The formula of :func:`repro.nn.layers.layer_norm` — centre on the mean,
    divide by ``(variance + eps)^½``, scale and shift — but not its
    operations: both means are one GEMV against a ``1/d`` vector, because at
    the few rows of a serving call ``ndarray.mean`` is mostly Python overhead.
    The sums round differently; the tests hold the two to 1e-12.
    """
    inverse_dim = np.full(x.shape[-1], 1.0 / x.shape[-1])
    centred = x - (x @ inverse_dim)[..., None]
    variance = (centred * centred) @ inverse_dim
    normalised = centred / ((variance + eps) ** 0.5)[..., None]
    return normalised * scale + bias


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit on plain arrays."""
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid, clipped against overflow.

    Mirrors :meth:`repro.autograd.tensor.Tensor.sigmoid` (same ±60 clip), so
    serving-side probabilities match the classification task head exactly.
    """
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def mean_pool(x: np.ndarray, axis: int = -2) -> np.ndarray:
    """Intra-view pooling (Eq. 14): mean of the feature rows in a view."""
    return x.mean(axis=axis)


def masked_mean_pool(x: np.ndarray, valid_mask: np.ndarray, axis: int = -2) -> np.ndarray:
    """Mean over only the valid (non-padding) rows.

    Rows that are entirely padding contribute zero and the divisor is clamped
    to one.
    """
    mask = np.asarray(valid_mask, dtype=np.float64)[..., None]
    counts = np.maximum(mask.sum(axis=axis), 1.0)
    summed = (x * mask).sum(axis=axis)
    return summed / counts
