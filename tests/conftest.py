"""Shared fixtures for the test suite: tiny deterministic datasets, encoders,
batches and models that keep individual tests fast."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SeqFMConfig
from repro.core.model import SeqFM
from repro.data import synthetic
from repro.data.features import FeatureBatch, FeatureEncoder
from repro.data.interactions import Interaction, InteractionLog
from repro.data.sampling import NegativeSampler
from repro.data.split import leave_one_out_split


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_log() -> InteractionLog:
    """A hand-built log: 4 users × 6 interactions with known structure."""
    log = InteractionLog(name="tiny")
    timestamp = 0.0
    sequences = {
        0: [10, 11, 12, 13, 14, 15],
        1: [11, 12, 13, 10, 15, 14],
        2: [12, 10, 14, 11, 13, 15],
        3: [15, 14, 13, 12, 11, 10],
    }
    for user_id, objects in sequences.items():
        for object_id in objects:
            timestamp += 1.0
            log.append(Interaction(user_id=user_id, object_id=object_id,
                                   timestamp=timestamp, rating=float(1 + object_id % 5)))
    return log


@pytest.fixture
def poi_log() -> InteractionLog:
    """A small synthetic POI log with genuine sequential structure."""
    return synthetic.generate_poi_checkins(
        synthetic.SyntheticConfig(num_users=25, num_objects=40, interactions_per_user=12, seed=3)
    )


@pytest.fixture
def rating_log() -> InteractionLog:
    return synthetic.generate_rating_log(
        synthetic.SyntheticConfig(num_users=20, num_objects=30, interactions_per_user=10, seed=5)
    )


@pytest.fixture
def encoder(tiny_log: InteractionLog) -> FeatureEncoder:
    return FeatureEncoder(tiny_log, max_seq_len=4)


@pytest.fixture
def split(tiny_log: InteractionLog):
    return leave_one_out_split(tiny_log)


@pytest.fixture
def sampler(tiny_log: InteractionLog) -> NegativeSampler:
    return NegativeSampler(tiny_log, seed=0)


@pytest.fixture
def tiny_batch(tiny_log: InteractionLog, encoder: FeatureEncoder) -> FeatureBatch:
    split_result = leave_one_out_split(tiny_log)
    examples = encoder.encode_training_instances(split_result.train)
    return FeatureBatch.from_examples(examples[:8])


@pytest.fixture
def seqfm_config(encoder: FeatureEncoder) -> SeqFMConfig:
    return SeqFMConfig(
        static_vocab_size=encoder.static_vocab_size,
        dynamic_vocab_size=encoder.dynamic_vocab_size,
        max_seq_len=encoder.max_seq_len,
        embed_dim=8,
        ffn_layers=1,
        dropout=0.0,
        seed=0,
    )


@pytest.fixture
def seqfm_model(seqfm_config: SeqFMConfig) -> SeqFM:
    return SeqFM(seqfm_config)
