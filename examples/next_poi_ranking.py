"""Next-POI recommendation: SeqFM against the full ranking baseline line-up.

This is the paper's ranking application (Section IV-A) run end-to-end on a
synthetic Gowalla-like check-in log: every baseline of Table II is trained
with the same BPR objective and evaluated with the leave-one-out protocol so
you can see the whole comparison — including the sequence-aware baselines
SASRec and TFM — on one screen.

Run with::

    python examples/next_poi_ranking.py

(It trains eight models, so expect a couple of minutes on a laptop CPU.)
"""

from __future__ import annotations

from repro.experiments import EXPERIMENTS, build_context, run


def main() -> None:
    spec = EXPERIMENTS["table2"]
    context = build_context("gowalla", scale="quick")
    print(f"dataset: {context.log.name}  {context.log.statistics()}")
    print(f"models: {', '.join(spec.rows)}\n")

    tables = run("table2", scale="quick", datasets=("gowalla",))
    table = tables["gowalla"]
    print(spec.render(tables))
    print("\nExpected shape (paper, Table II): SeqFM first, sequence-aware baselines")
    print("(SASRec, TFM) ahead of the set-category FM family, plain FM last.")
    best = table.best_row("HR@10")
    print(f"\nBest HR@10 in this run: {best} ({table.get(best, 'HR@10'):.3f})")


if __name__ == "__main__":
    main()
