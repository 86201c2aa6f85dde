"""SeqFM reproduction: Sequence-Aware Factorization Machines for Temporal
Predictive Analytics (Chen et al., ICDE 2020).

Subpackages
-----------
``repro.autograd``
    Reverse-mode automatic differentiation on NumPy (the DL substrate).
``repro.nn``
    Neural-network layers, optimisers and losses built on the autograd engine.
``repro.core``
    The SeqFM model, its task heads and the trainer.
``repro.baselines``
    Re-implementations of every baseline the paper compares against.
``repro.data``
    Interaction logs, synthetic dataset generators, splits, feature encoding.
``repro.eval``
    HR/NDCG/AUC/RMSE/MAE/RRSE and the leave-one-out evaluation protocols.
``repro.experiments``
    The experiment registry that regenerates every table and figure of the paper.
``repro.serving``
    Batched inference runtime: graph-free engine, request micro-batcher,
    LRU-cached user-sequence store and the checkpoint-backed model registry.
"""

__version__ = "1.0.0"

from repro.core import SeqFM, SeqFMConfig, SeqFMRanker, SeqFMClassifier, SeqFMRegressor

__all__ = [
    "SeqFM",
    "SeqFMConfig",
    "SeqFMRanker",
    "SeqFMClassifier",
    "SeqFMRegressor",
    "__version__",
]
