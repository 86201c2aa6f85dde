"""Baseline models the paper compares against (Section V-B).

Common baselines (all three tasks):
    FM, Wide&Deep, DeepCross, NFM, AFM.
Task-specific additional baselines:
    SASRec and TFM (ranking), DIN and xDeepFM (classification),
    RRN and HOFM (regression).

These eleven are exactly :data:`BASELINE_REGISTRY`, the rows of Tables II-IV.
Every baseline is re-implemented on the same autograd/NN substrate as SeqFM
and exposes the same interface (forward over a
:class:`~repro.data.features.FeatureBatch`, returning one score per
instance), so the task heads, trainer and evaluation protocol are shared.
Sequence-agnostic baselines treat the dynamic history as unordered
set-category features, exactly how the paper feeds them.
"""

from repro.baselines.base import BaselineScorer
from repro.baselines.fm import FM
from repro.baselines.hofm import HOFM
from repro.baselines.wide_deep import WideDeep
from repro.baselines.deepcross import DeepCross
from repro.baselines.nfm import NFM
from repro.baselines.afm import AFM
from repro.baselines.sasrec import SASRec
from repro.baselines.tfm import TFM
from repro.baselines.din import DIN
from repro.baselines.xdeepfm import XDeepFM
from repro.baselines.rrn import RRN

#: The baselines the paper's evaluation section compares against (Table II-IV).
BASELINE_REGISTRY = {
    "FM": FM,
    "HOFM": HOFM,
    "Wide&Deep": WideDeep,
    "DeepCross": DeepCross,
    "NFM": NFM,
    "AFM": AFM,
    "SASRec": SASRec,
    "TFM": TFM,
    "DIN": DIN,
    "xDeepFM": XDeepFM,
    "RRN": RRN,
}

__all__ = [
    "BaselineScorer",
    "FM",
    "HOFM",
    "WideDeep",
    "DeepCross",
    "NFM",
    "AFM",
    "SASRec",
    "TFM",
    "DIN",
    "XDeepFM",
    "RRN",
    "BASELINE_REGISTRY",
]
