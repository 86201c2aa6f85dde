"""SeqFM hyper-parameters and ablation switches.

The defaults follow the paper's unified setting (Section V-D):
``{d = 64, l = 1, n˙ = 20, ρ = 0.6}``.  The reproduction's experiment harness
uses a smaller default latent dimension (d = 32) because the synthetic
datasets are two orders of magnitude smaller than the originals; the paper's
own sensitivity analysis (Figure 3) shows d ≥ 32 is already in the plateau.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SeqFMConfig:
    """Hyper-parameters of the SeqFM architecture.

    Attributes
    ----------
    static_vocab_size / dynamic_vocab_size:
        Sizes m° and m˙ of the two sparse feature vocabularies (the dynamic
        vocabulary includes the padding feature at index 0).
    num_static_features:
        n° — number of non-zero static features per instance (user +
        candidate object in the paper's three applications).
    max_seq_len:
        n˙ — dynamic sequence length after truncation/padding.
    embed_dim:
        d — the latent (factorisation) dimension.
    ffn_layers:
        l — depth of the shared residual feed-forward network.
    dropout:
        ρ — dropout ratio of the feed-forward layers.
    use_static_view / use_dynamic_view / use_cross_view:
        Ablation switches for the "Remove SV/DV/CV" rows of Table V.
    use_residual / use_layer_norm:
        Ablation switches for the "Remove RC/LN" rows of Table V.
    share_ffn:
        Whether the three views share one residual FFN (the paper's design);
        ``False`` gives each view its own network (extra ablation).
    pooling:
        ``"mean"`` (Eq. 14) or ``"last"`` (read out the final sequence
        position instead of averaging) — extra ablation.
    seed:
        Seed for parameter initialisation and dropout masks.
    """

    static_vocab_size: int
    dynamic_vocab_size: int
    num_static_features: int = 2
    max_seq_len: int = 20
    embed_dim: int = 32
    ffn_layers: int = 1
    dropout: float = 0.6
    use_static_view: bool = True
    use_dynamic_view: bool = True
    use_cross_view: bool = True
    use_residual: bool = True
    use_layer_norm: bool = True
    share_ffn: bool = True
    pooling: str = "mean"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.static_vocab_size < 1 or self.dynamic_vocab_size < 1:
            raise ValueError("vocabulary sizes must be positive")
        if self.num_static_features < 1:
            raise ValueError("num_static_features must be positive")
        if self.max_seq_len < 1:
            raise ValueError("max_seq_len must be positive")
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be positive")
        if self.ffn_layers < 1:
            raise ValueError("ffn_layers must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.pooling not in ("mean", "last"):
            raise ValueError("pooling must be 'mean' or 'last'")
        if not (self.use_static_view or self.use_dynamic_view or self.use_cross_view):
            raise ValueError("at least one view must remain enabled")

    def num_views(self) -> int:
        """Number of active views (determines the aggregated dimension 3d)."""
        return sum([self.use_static_view, self.use_dynamic_view, self.use_cross_view])

    def with_overrides(self, **kwargs) -> "SeqFMConfig":
        """Return a copy with some fields replaced."""
        return replace(self, **kwargs)
