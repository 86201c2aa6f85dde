"""Benchmark E5 — regenerate Figure 3 (hyper-parameter sensitivity).

Sweeps the latent dimension d, the FFN depth l, the sequence length n˙ and
the dropout ratio ρ one at a time (reduced grids at the quick scale) on one
dataset per task, printing the metric series that Figure 3 plots.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import export_text
from repro.experiments import EXPERIMENTS, run
from repro.experiments.registry import QUICK_GRIDS


@pytest.mark.parametrize("dataset,hyperparameter", [
    ("gowalla", "embed_dim"),
    ("gowalla", "max_seq_len"),
    ("trivago", "embed_dim"),
    ("trivago", "dropout"),
    ("beauty", "ffn_layers"),
    ("beauty", "dropout"),
])
def test_figure3_sensitivity(scale, dataset, hyperparameter):
    series_list = run("figure3", scale=scale, datasets=(dataset,), rows=(hyperparameter,))
    assert len(series_list) == 1
    series = series_list[0]

    report = EXPERIMENTS["figure3"].render(series_list)
    print("\n" + report)
    export_text(f"figure3_{dataset}_{hyperparameter}", report)

    # Shape checks: the sweep covered the requested grid and produced finite,
    # bounded metrics; the spread across the grid stays moderate, matching the
    # paper's observation that SeqFM is not hypersensitive to any single knob.
    assert series.values == list(QUICK_GRIDS[hyperparameter])
    assert all(score >= 0.0 for score in series.scores)
    if series.metric in ("HR@10", "AUC"):
        assert all(score <= 1.0 for score in series.scores)
        assert max(series.scores) - min(series.scores) < 0.5
