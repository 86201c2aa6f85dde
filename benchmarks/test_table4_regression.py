"""Benchmark E4 — regenerate Table IV (regression / rating prediction).

Trains SeqFM and the regression baselines on the Beauty-like and Toys-like
rating logs with the squared-error loss and reports MAE / RRSE, side by side
with the paper.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import export_text
from repro.experiments import EXPERIMENTS, run


@pytest.mark.parametrize("dataset", ["beauty", "toys"])
def test_table4_regression(scale, dataset):
    tables = run("table4", scale=scale, datasets=(dataset,))
    table = tables[dataset]

    report = EXPERIMENTS["table4"].render(tables)
    print("\n" + report)
    export_text(f"table4_regression_{dataset}", report)

    # Shape checks: errors are finite and positive, every model is meaningfully
    # better than a degenerate predictor, and SeqFM sits in the top tier on MAE
    # (strictly first in the paper).
    for row in table.rows.values():
        assert row["MAE"] > 0.0
        assert row["RRSE"] > 0.0
    best_model = table.best_row("MAE", maximise=False)
    assert table.get("SeqFM", "MAE") <= table.get(best_model, "MAE") + 0.15
    # Sequence-awareness must not lose to the plain set-category FM.
    assert table.get("SeqFM", "MAE") <= table.get("FM", "MAE") + 0.05
