"""Interpretation utilities: inspect what SeqFM's attention heads attend to.

The multi-view self-attention scheme is the paper's core idea; these helpers
expose the learned attention weights so users can *see* the sequential and
cross-view structure the model has picked up — e.g. which history items the
dynamic view weighs most when scoring a candidate, or which static↔dynamic
pairs dominate the cross view.  They are read-only: no gradients, no
mutation of the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.core import masks as mask_lib
from repro.core.model import SeqFM
from repro.core.views import cross_attention_mask, cross_valid_mask, dynamic_attention_mask
from repro.data.features import FeatureBatch


@dataclass
class AttentionMaps:
    """Attention weight matrices of one instance, per view.

    Attributes
    ----------
    static:
        (n°, n°) attention weights of the static view (or ``None`` if the view
        is disabled in the model's configuration).
    dynamic:
        (n˙, n˙) causally masked attention weights of the dynamic view.
    cross:
        (n°+n˙, n°+n˙) attention weights of the cross view.
    dynamic_valid:
        Boolean mask of the real (non-padding) dynamic positions.
    """

    static: Optional[np.ndarray]
    dynamic: Optional[np.ndarray]
    cross: Optional[np.ndarray]
    dynamic_valid: np.ndarray


def attention_maps(model: SeqFM, batch: FeatureBatch, index: int = 0) -> AttentionMaps:
    """Extract the per-view attention weights for one instance of a batch."""
    if not 0 <= index < len(batch):
        raise IndexError(f"index {index} out of range for a batch of {len(batch)}")

    with no_grad():
        static_embedded = model.static_embedding(batch.static_indices[index:index + 1])
        dynamic_embedded = model.dynamic_embedding(batch.dynamic_indices[index:index + 1])
        valid = batch.dynamic_mask[index:index + 1]
        seq_len = dynamic_embedded.shape[-2]
        num_static = static_embedded.shape[-2]

        static_weights = None
        if model.static_view is not None:
            static_weights = model.static_view.attention.attention_weights(static_embedded)[0]

        dynamic_weights = None
        if model.dynamic_view is not None:
            dynamic_weights = model.dynamic_view.attention.attention_weights(
                dynamic_embedded,
                mask=dynamic_attention_mask(mask_lib.padding_key_row(valid)),
            )[0]

        cross_weights = None
        if model.cross_view is not None:
            combined = Tensor.concatenate([static_embedded, dynamic_embedded], axis=-2)
            attention_mask = cross_attention_mask(
                num_static, seq_len, cross_valid_mask(num_static, valid)
            )
            cross_weights = model.cross_view.attention.attention_weights(
                combined, mask=attention_mask
            )[0]

    return AttentionMaps(
        static=static_weights,
        dynamic=dynamic_weights,
        cross=cross_weights,
        dynamic_valid=batch.dynamic_mask[index] > 0,
    )


def view_contributions(model: SeqFM, batch: FeatureBatch) -> Dict[str, np.ndarray]:
    """Per-view contribution of each instance to the final score.

    Decomposes ⟨p, h_agg⟩ into the partial dot products of each view's slice of
    the projection vector — a direct answer to "how much of the score came from
    the static / dynamic / cross view?" for every instance in the batch.
    """
    with no_grad():
        static_embedded = model.static_embedding(batch.static_indices)
        dynamic_embedded = model.dynamic_embedding(batch.dynamic_indices)

        pooled = []
        names = []
        if model.static_view is not None:
            pooled.append(model.static_view(static_embedded))
            names.append("static")
        if model.dynamic_view is not None:
            pooled.append(model.dynamic_view(dynamic_embedded, batch.dynamic_mask))
            names.append("dynamic")
        if model.cross_view is not None:
            pooled.append(model.cross_view(static_embedded, dynamic_embedded, batch.dynamic_mask))
            names.append("cross")

        refined = [model._apply_ffn(view, i) for i, view in enumerate(pooled)]

        contributions: Dict[str, np.ndarray] = {}
        d = model.config.embed_dim
        for i, (name, representation) in enumerate(zip(names, refined)):
            projection_slice = model.projection.data[i * d:(i + 1) * d]
            contributions[name] = representation.data @ projection_slice
    return contributions
