"""Tests for the experiment harness: contexts, reporting, reference data and
the table/figure runners (exercised at a micro scale so they stay fast)."""

from __future__ import annotations

import pytest

from repro.core.trainer import Trainer, TrainingResult
from repro.experiments import EXPERIMENTS, reference, registry, run
from repro.experiments.registry import (
    ABLATION_VARIANTS,
    HEADLINE_METRIC,
    SCALES,
    ScalabilityResult,
    build_context,
    build_model,
    dataset_names,
    evaluate_model,
    train_and_evaluate,
)
from repro.experiments.reporting import ResultTable, compare_to_paper, format_table, relative_improvement


class TestRegistry:
    def test_scales_defined(self):
        assert {"quick", "small", "full"} <= set(SCALES)

    def test_build_context_quick(self):
        context = build_context("gowalla", scale="quick")
        assert context.task == "ranking"
        assert len(context.train_examples) > 0
        assert context.encoder.max_seq_len == SCALES["quick"].max_seq_len

    def test_build_context_unknown_dataset(self):
        with pytest.raises(KeyError):
            build_context("movielens")

    def test_build_context_unknown_scale(self):
        with pytest.raises(KeyError):
            build_context("gowalla", scale="giant")

    def test_max_seq_len_override(self):
        context = build_context("gowalla", scale="quick", max_seq_len=5)
        assert context.encoder.max_seq_len == 5

    def test_task_assignment_per_dataset(self):
        assert build_context("trivago", scale="quick").task == "classification"
        assert build_context("beauty", scale="quick").task == "regression"

    def test_regression_examples_carry_ratings(self):
        context = build_context("beauty", scale="quick")
        labels = {example.label for example in context.train_examples}
        assert len(labels) > 1

    def test_seqfm_config_reflects_encoder(self):
        context = build_context("gowalla", scale="quick")
        config = context.seqfm_config()
        assert config.static_vocab_size == context.encoder.static_vocab_size
        assert config.dynamic_vocab_size == context.encoder.dynamic_vocab_size

    def test_trainer_config_overrides(self):
        context = build_context("gowalla", scale="quick")
        config = context.trainer_config(epochs=1)
        assert config.epochs == 1


class TestReporting:
    def test_result_table_roundtrip(self):
        table = ResultTable(title="demo", columns=["A", "B"])
        table.add_row("x", {"A": 1.0, "B": 2.0})
        table.add_row("y", {"A": 3.0, "B": 0.5})
        assert table.get("y", "A") == 3.0
        assert table.best_row("A") == "y"
        assert table.best_row("B", maximise=False) == "y"
        assert "demo" in str(table)

    def test_add_row_missing_column(self):
        table = ResultTable(title="demo", columns=["A", "B"])
        with pytest.raises(KeyError):
            table.add_row("x", {"A": 1.0})

    def test_best_row_empty_table(self):
        with pytest.raises(ValueError):
            ResultTable(title="demo", columns=["A"]).best_row("A")

    def test_format_table_contains_all_rows(self):
        table = ResultTable(title="demo", columns=["A"])
        table.add_row("model-1", {"A": 0.25})
        text = format_table(table)
        assert "model-1" in text and "0.250" in text

    def test_compare_to_paper(self):
        table = ResultTable(title="demo", columns=["AUC"])
        table.add_row("FM", {"AUC": 0.7})
        table.add_row("NotInPaper", {"AUC": 0.5})
        text = compare_to_paper(table, {"FM": {"AUC": 0.729}})
        assert "0.700 / 0.729" in text
        assert "NotInPaper" not in text

    def test_relative_improvement(self):
        assert relative_improvement(1.2, 1.0) == pytest.approx(0.2)
        assert relative_improvement(1.0, 0.0) == float("inf")


class TestReferenceNumbers:
    def test_seqfm_wins_every_ranking_metric_in_paper(self):
        for dataset, table in reference.TABLE2_RANKING.items():
            for metric in ("HR@10", "NDCG@10"):
                best = max(table, key=lambda model: table[model][metric])
                assert best == "SeqFM", f"{dataset}/{metric}"

    def test_seqfm_wins_classification_and_regression_in_paper(self):
        for table in reference.TABLE3_CLASSIFICATION.values():
            assert max(table, key=lambda m: table[m]["AUC"]) == "SeqFM"
            assert min(table, key=lambda m: table[m]["RMSE"]) == "SeqFM"
        for table in reference.TABLE4_REGRESSION.values():
            assert min(table, key=lambda m: table[m]["MAE"]) == "SeqFM"

    def test_ablation_default_is_best_on_most_datasets(self):
        # On the ranking/classification datasets higher is better and Default wins.
        for dataset in ("gowalla", "foursquare", "trivago", "taobao"):
            values = {variant: row[dataset] for variant, row in reference.TABLE5_ABLATION.items()}
            # "Remove CV" on trivago is the paper's single exception.
            best = max(values, key=values.get)
            assert best in ("Default", "Remove CV")

    def test_figure4_reference_is_increasing(self):
        times = [reference.FIGURE4_SCALABILITY[p] for p in sorted(reference.FIGURE4_SCALABILITY)]
        assert times == sorted(times)

    def test_table1_contains_six_datasets(self):
        assert len(reference.TABLE1_DATASETS) == 6


class TestRunners:
    @pytest.fixture(scope="class")
    def quick_context(self):
        return build_context("gowalla", scale="quick")

    def test_build_model_seqfm_and_baseline(self, quick_context):
        seqfm = build_model(quick_context, "SeqFM")
        fm = build_model(quick_context, "FM")
        assert seqfm.task == "ranking"
        assert fm.task == "ranking"

    def test_build_model_unknown(self, quick_context):
        with pytest.raises(KeyError):
            build_model(quick_context, "BERT4Rec")

    def test_evaluate_untrained_model(self, quick_context):
        model = build_model(quick_context, "FM")
        metrics = evaluate_model(quick_context, model, max_users=5)
        assert set(metrics) == {"HR@5", "HR@10", "HR@20", "NDCG@5", "NDCG@10", "NDCG@20"}

    def test_train_and_evaluate_records_time(self, quick_context):
        config = quick_context.trainer_config(epochs=1)
        metrics = train_and_evaluate(quick_context, "FM", trainer_config=config, max_users=5)
        assert metrics["train_seconds"] > 0

    @pytest.mark.parametrize("seed", [0, 3])
    def test_train_and_evaluate_seeds_the_trainer(self, quick_context, monkeypatch, seed):
        seen = []

        def fake_train(context, task_model, trainer_config=None, examples=None):
            seen.append(trainer_config.seed)
            return TrainingResult()

        monkeypatch.setattr(registry, "train_model", fake_train)
        train_and_evaluate(quick_context, "FM", seed=seed, max_users=2)
        assert seen == [seed]


class TestAblationAndScalabilityHelpers:
    def test_ablation_variants_cover_paper_rows(self):
        paper_rows = {"Default", "Remove SV", "Remove DV", "Remove CV", "Remove RC", "Remove LN"}
        assert paper_rows <= set(ABLATION_VARIANTS)

    def test_ablation_metric_per_task(self):
        assert HEADLINE_METRIC == {"ranking": "HR@10", "classification": "AUC", "regression": "MAE"}

    def test_scalability_linear_fit(self):
        result = ScalabilityResult(dataset="demo",
                                   proportions=[0.2, 0.4, 0.6, 0.8, 1.0],
                                   train_seconds=[1.0, 2.1, 2.9, 4.2, 5.0],
                                   num_examples=[10, 20, 30, 40, 50])
        result.fit_line()
        assert result.linear_r_squared > 0.98

    def test_scalability_constant_times(self):
        result = ScalabilityResult(dataset="demo", proportions=[0.5, 1.0],
                                   train_seconds=[1.0, 1.0], num_examples=[5, 10])
        result.fit_line()
        assert result.linear_r_squared == 1.0


class TestExperimentRegistry:
    @pytest.fixture
    def fitted(self, monkeypatch):
        """Replace training with a recorder of (trainer seed, examples) per fit."""
        calls = []

        def fake_fit(trainer, examples, validation_callback=None):
            calls.append((trainer.config.seed, list(examples)))
            return TrainingResult(train_seconds=float(len(examples)))

        monkeypatch.setattr(Trainer, "fit", fake_fit)
        return calls

    def test_registry_names_the_seven_artefacts(self):
        assert list(EXPERIMENTS) == ["table1", "table2", "table3", "table4",
                                     "table5", "figure3", "figure4"]

    def test_default_datasets_are_registered(self):
        assert set(EXPERIMENTS["table1"].datasets) == set(dataset_names())
        for spec in EXPERIMENTS.values():
            assert set(spec.datasets) <= set(dataset_names())

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run("table9")

    def test_figure4_rejects_several_datasets(self, fitted):
        with pytest.raises(ValueError, match="one dataset"):
            run("figure4", datasets=["trivago", "beauty"])
        assert fitted == []

    def test_table1_render_lists_run_and_paper_datasets(self):
        text = EXPERIMENTS["table1"].render(run("table1", datasets=["beauty"]))
        lines = text.splitlines()
        assert lines[0] == "Table I — dataset statistics (synthetic, scale=quick)"
        assert lines[4].split()[0] == "beauty"
        assert "Paper (real datasets):" in lines
        assert sum(line.startswith("  ") for line in lines) == len(reference.TABLE1_DATASETS)

    def test_figure4_subsets_carry_regression_ratings(self, fitted):
        result = run("figure4", datasets=["beauty"])
        context = build_context("beauty")
        assert result.dataset == "beauty"
        assert len(fitted) == len(EXPERIMENTS["figure4"].rows)
        # The full-data point trains on exactly the context's examples,
        # ratings included (not a constant label of 1.0).
        full = fitted[-1][1]
        assert [e.label for e in full] == [e.label for e in context.train_examples]
        assert len({e.label for e in fitted[0][1]}) > 1

    def test_figure4_seeds_every_trainer(self, fitted):
        run("figure4", seed=5)
        assert [seed for seed, _ in fitted] == [5] * len(EXPERIMENTS["figure4"].rows)
