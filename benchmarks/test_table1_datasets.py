"""Benchmark E1 — regenerate Table I (dataset statistics).

Builds all six synthetic stand-in datasets, applies the paper's activity
filtering, and prints their statistics next to the paper's numbers for the
real datasets.
"""

from __future__ import annotations

from benchmarks.conftest import export_text
from repro.experiments import EXPERIMENTS, run
from repro.experiments.registry import dataset_names


def test_table1_dataset_statistics(scale):
    table = run("table1", scale=scale)

    report = EXPERIMENTS["table1"].render(table)
    print("\n" + report)
    export_text("table1_datasets", report)

    # Shape checks: all six datasets exist, are non-trivial, and the relative
    # ordering instances > users holds as in the paper.
    assert set(table.rows) == set(dataset_names())
    for dataset, row in table.rows.items():
        assert row["instances"] > row["users"] > 0
        assert row["features"] > row["objects"] > 0
