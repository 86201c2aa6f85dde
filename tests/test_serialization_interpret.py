"""Tests for model checkpointing, result-table export and the attention
interpretation utilities."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import serialization
from repro.core.interpret import attention_maps, view_contributions
from repro.core.model import SeqFM
from repro.data.features import FeatureBatch
from repro.experiments.reporting import ResultTable, save_result_table


@pytest.fixture
def batch(encoder, tiny_log, split):
    examples = encoder.encode_training_instances(split.train)
    return FeatureBatch.from_examples(examples[:5])


class TestWeightCheckpoints:
    def test_save_load_weights_roundtrip(self, seqfm_model, batch, tmp_path):
        path = tmp_path / "weights.npz"
        expected = seqfm_model.score(batch)
        serialization.save_weights(seqfm_model, path)
        # Perturb and restore.
        for parameter in seqfm_model.parameters():
            parameter.data += 1.0
        serialization.load_weights(seqfm_model, path)
        np.testing.assert_allclose(seqfm_model.score(batch), expected)

    def test_save_seqfm_embeds_config(self, seqfm_model, batch, tmp_path):
        path = tmp_path / "model.npz"
        serialization.save_seqfm(seqfm_model, path)
        restored = serialization.load_seqfm(path)
        assert restored.config == seqfm_model.config
        np.testing.assert_allclose(restored.score(batch), seqfm_model.score(batch))

    def test_load_seqfm_rejects_plain_weight_archive(self, seqfm_model, tmp_path):
        path = tmp_path / "weights.npz"
        serialization.save_weights(seqfm_model, path)
        with pytest.raises(ValueError):
            serialization.load_seqfm(path)

    def test_checkpoint_works_for_baselines(self, encoder, batch, tmp_path):
        from repro.baselines import NFM
        model = NFM(encoder.static_vocab_size, encoder.dynamic_vocab_size, embed_dim=8, seed=0)
        expected = model.score(batch)
        path = tmp_path / "nfm.npz"
        serialization.save_weights(model, path)
        clone = NFM(encoder.static_vocab_size, encoder.dynamic_vocab_size, embed_dim=8, seed=99)
        serialization.load_weights(clone, path)
        np.testing.assert_allclose(clone.score(batch), expected)


class TestResultTableExport:
    def test_export_holds_the_whole_table(self, tmp_path):
        table = ResultTable(title="Table II — demo", columns=["HR@10", "NDCG@10"])
        table.add_row("FM", {"HR@10": 0.4, "NDCG@10": 0.2})
        table.add_row("SeqFM", {"HR@10": 0.6, "NDCG@10": 0.35})
        table.metadata["dataset_statistics"] = {"users": np.int64(70)}
        path = tmp_path / "table.json"
        save_result_table(table, path)
        restored = json.loads(path.read_text())
        assert restored["title"] == table.title
        assert restored["columns"] == table.columns
        assert restored["rows"] == table.rows
        assert restored["metadata"]["dataset_statistics"]["users"] == 70

    def test_metadata_numpy_values_serialisable(self, tmp_path):
        table = ResultTable(title="demo", columns=["A"])
        table.add_row("x", {"A": 1.0})
        table.metadata["array"] = np.arange(3)
        table.metadata["float"] = np.float64(1.5)
        path = tmp_path / "meta.json"
        save_result_table(table, path)
        restored = json.loads(path.read_text())
        assert restored["metadata"]["array"] == [0, 1, 2]
        assert restored["metadata"]["float"] == 1.5


class TestInterpretation:
    def test_attention_maps_shapes(self, seqfm_model, batch, encoder):
        maps = attention_maps(seqfm_model, batch, index=0)
        n_static = encoder.num_static_features
        n_dyn = encoder.max_seq_len
        assert maps.static.shape == (n_static, n_static)
        assert maps.dynamic.shape == (n_dyn, n_dyn)
        assert maps.cross.shape == (n_static + n_dyn, n_static + n_dyn)
        assert maps.dynamic_valid.shape == (n_dyn,)

    def test_attention_rows_are_distributions(self, seqfm_model, batch):
        maps = attention_maps(seqfm_model, batch, index=0)
        for matrix in (maps.static, maps.dynamic, maps.cross):
            np.testing.assert_allclose(matrix.sum(axis=-1), np.ones(matrix.shape[0]), atol=1e-8)

    def test_dynamic_map_is_causal(self, seqfm_model, batch):
        # Fully padded rows fall back to uniform attention (they are excluded
        # from pooling), so causality is asserted on the valid rows only: a
        # valid position must not attend to any later position.
        maps = attention_maps(seqfm_model, batch, index=0)
        valid_positions = np.where(maps.dynamic_valid)[0]
        for row in valid_positions:
            future = maps.dynamic[row, row + 1:]
            assert np.all(future < 1e-6)

    def test_index_out_of_range(self, seqfm_model, batch):
        with pytest.raises(IndexError):
            attention_maps(seqfm_model, batch, index=99)

    def test_view_contributions_sum_to_interaction_term(self, seqfm_model, batch):
        contributions = view_contributions(seqfm_model, batch)
        assert set(contributions) == {"static", "dynamic", "cross"}
        total = sum(contributions.values())
        seqfm_model.eval()
        from repro.autograd.tensor import no_grad
        with no_grad():
            interaction = seqfm_model._interaction_term(batch).data
        np.testing.assert_allclose(total, interaction, atol=1e-8)
