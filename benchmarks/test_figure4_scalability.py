"""Benchmark E7 — regenerate Figure 4 (training time vs. data proportion).

Trains SeqFM for one epoch on {0.2, 0.4, 0.6, 0.8, 1.0} of the Trivago-like
training data and checks that the wall-clock training time grows roughly
linearly with the data size — the scalability claim of Section VI-D.
"""

from __future__ import annotations

from benchmarks.conftest import export_text
from repro.experiments import EXPERIMENTS, run


def test_figure4_training_time_scales_linearly(scale):
    # The scalability measurement needs enough work per point for wall-clock
    # noise to stay small relative to the trend, so it always runs at the
    # "small" scale regardless of the suite's default scale.
    result = run("figure4", scale="small")

    report = EXPERIMENTS["figure4"].render(result)
    print("\n" + report)
    export_text("figure4_scalability", report)

    # Shape checks: more data never gets dramatically cheaper, the largest run
    # costs clearly more than the smallest, and a straight line explains the
    # bulk of the variance — the paper's "approximately linear" observation.
    assert len(result.proportions) == 5
    assert result.train_seconds[-1] > result.train_seconds[0]
    assert result.linear_r_squared > 0.8
