"""Data substrate: interaction logs, synthetic dataset generators, filtering,
chronological leave-one-out splitting, feature encoding and batching.

The paper evaluates on six public datasets (Gowalla, Foursquare, Trivago,
Taobao, Amazon Beauty, Amazon Toys).  This environment has no network access,
so :mod:`repro.data.synthetic` generates scaled-down synthetic equivalents
that plant the same kind of sequential structure each real dataset exhibits
(see DESIGN.md §2 for the substitution rationale).  Everything downstream of
the generators — filtering, splitting, encoding, sampling, batching,
evaluation — is implemented exactly as the paper describes and works
identically on real interaction logs.
"""

from repro.data.interactions import Interaction, InteractionLog
from repro.data.preprocess import filter_by_activity, chronological_sort
from repro.data.split import leave_one_out_split, LeaveOneOutSplit, proportion_subset
from repro.data.features import FeatureEncoder, EncodedExample, FeatureBatch, pad_sequences
from repro.data.sampling import NegativeSampler
from repro.data.batching import BatchIterator
from repro.data.datasets import dataset_statistics
from repro.data import synthetic

__all__ = [
    "Interaction",
    "InteractionLog",
    "filter_by_activity",
    "chronological_sort",
    "leave_one_out_split",
    "LeaveOneOutSplit",
    "proportion_subset",
    "FeatureEncoder",
    "EncodedExample",
    "FeatureBatch",
    "NegativeSampler",
    "BatchIterator",
    "pad_sequences",
    "dataset_statistics",
    "synthetic",
]
