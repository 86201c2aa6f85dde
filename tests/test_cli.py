"""Tests for the experiments command-line interface.

The CLI runners are exercised on the cheapest artefact (Table I) and on
Figure 4 with training stubbed out; the full experiment execution paths are
covered by the benchmark suite.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.cli import (
    EXPERIMENTS,
    SERVING_COMMANDS,
    build_parser,
    build_serving_parser,
    main,
    run_experiment,
)
from repro.experiments.registry import run


class TestParser:
    def test_known_experiments(self):
        assert set(EXPERIMENTS) == {"table1", "table2", "table3", "table4",
                                    "table5", "figure3", "figure4"}

    def test_parser_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.scale == "quick"
        assert args.datasets is None
        assert args.output is None

    def test_parser_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table9"])

    def test_parser_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--scale", "huge"])

    def test_parser_accepts_dataset_list(self):
        args = build_parser().parse_args(["table2", "--datasets", "gowalla", "foursquare"])
        assert args.datasets == ["gowalla", "foursquare"]


class TestExecution:
    def test_table1_runs_and_prints(self, capsys):
        run_experiment("table1", scale="quick", datasets=["beauty"], seed=0)
        output = capsys.readouterr().out
        assert "Table I" in output
        assert "beauty" in output

    def test_table1_json_export(self, tmp_path, capsys):
        output = tmp_path / "table1.json"
        run_experiment("table1", scale="quick", datasets=["toys"], seed=0, output=output)
        capsys.readouterr()
        payload = json.loads(output.read_text())
        assert "toys" in payload["rows"]
        assert payload["columns"] == ["instances", "users", "objects", "features"]

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("table9", scale="quick", datasets=None, seed=0)

    def test_main_entry_point_table1(self, capsys):
        exit_code = main(["table1", "--datasets", "beauty"])
        assert exit_code == 0
        rendered = EXPERIMENTS["table1"].render(run("table1", datasets=["beauty"]))
        assert capsys.readouterr().out == rendered + "\n"

    def test_unknown_dataset_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["table1", "--datasets", "netflix"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'netflix'" in err
        assert "beauty" in err and "toys" in err

    @pytest.mark.parametrize("experiment", ["figure4", "all"])
    def test_figure4_rejects_several_datasets(self, capsys, experiment):
        with pytest.raises(SystemExit) as info:
            main([experiment, "--datasets", "beauty", "toys"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "figure4 runs on one dataset" in captured.err
        assert captured.out == ""

    def test_figure4_honours_dataset(self, capsys, monkeypatch):
        from repro.core.trainer import Trainer, TrainingResult

        monkeypatch.setattr(Trainer, "fit", lambda trainer, examples, validation_callback=None:
                            TrainingResult(train_seconds=float(len(examples))))
        assert main(["figure4", "--datasets", "beauty"]) == 0
        assert "proportion of Beauty-like training data" in capsys.readouterr().out

    def test_json_exports_keep_their_shape(self, tmp_path, monkeypatch, capsys):
        from repro.experiments import cli
        from repro.experiments.registry import ScalabilityResult, SensitivitySeries
        from repro.experiments.reporting import ResultTable

        table = ResultTable(title="t", columns=["HR@10", "NDCG@10"])
        table.add_row("SeqFM", {"HR@10": 0.5, "NDCG@10": 0.25})
        results = {
            "table2": {"gowalla": table},
            "figure3": [SensitivitySeries("gowalla", "ranking", "dropout", "HR@10",
                                          [0.2, 0.5], [0.7, 0.6])],
            "figure4": ScalabilityResult("trivago", [0.5, 1.0], [1.0, 2.0], [10, 20], 1.0),
        }
        monkeypatch.setattr(cli, "run", lambda name, **kwargs: results[name])
        for name in results:
            run_experiment(name, "quick", None, 0, output=tmp_path / f"{name}.json")
        capsys.readouterr()
        assert json.loads((tmp_path / "table2_gowalla.json").read_text())["rows"] == {
            "SeqFM": {"HR@10": 0.5, "NDCG@10": 0.25}}
        assert json.loads((tmp_path / "figure3.json").read_text()) == [{
            "dataset": "gowalla", "task": "ranking", "hyperparameter": "dropout",
            "metric": "HR@10", "values": ["0.2", "0.5"], "scores": [0.7, 0.6]}]
        assert json.loads((tmp_path / "figure4.json").read_text()) == {
            "dataset": "trivago", "proportions": [0.5, 1.0], "train_seconds": [1.0, 2.0],
            "num_examples": [10, 20], "linear_r_squared": 1.0}


class TestServingCommands:
    @pytest.fixture
    def checkpoint(self, tmp_path):
        from repro.core.config import SeqFMConfig
        from repro.core.model import SeqFM
        from repro.core.serialization import save_seqfm

        model = SeqFM(SeqFMConfig(static_vocab_size=20, dynamic_vocab_size=15,
                                  max_seq_len=4, embed_dim=8, seed=0))
        path = tmp_path / "model.npz"
        save_seqfm(model, path)
        return path

    @pytest.fixture
    def requests_file(self, tmp_path):
        payloads = [
            {"static_indices": [1, 11], "history": [2, 3], "user_id": 1, "object_id": 11},
            {"static_indices": [2, 12], "history": [], "user_id": 2, "object_id": 12},
        ]
        path = tmp_path / "requests.json"
        path.write_text(json.dumps(payloads))
        return path

    def test_known_serving_commands(self):
        assert set(SERVING_COMMANDS) == {"serve", "predict-batch", "rank-topk",
                                         "recommend"}

    def test_serving_parser_defaults(self, checkpoint):
        args = build_serving_parser("predict-batch").parse_args(
            ["--checkpoint", str(checkpoint), "--requests", "r.json"]
        )
        assert args.head == "score"
        assert args.max_batch_size == 256
        assert args.cache_capacity == 4096
        assert args.cache_ttl is None

    def test_serving_parser_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            build_serving_parser("serve").parse_args([])

    def test_predict_batch_stdout(self, checkpoint, requests_file, capsys):
        exit_code = main(["predict-batch", "--checkpoint", str(checkpoint),
                          "--requests", str(requests_file), "--head", "classify"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["head"] == "classify"
        assert len(payload["scores"]) == 2
        assert all(0.0 < score < 1.0 for score in payload["scores"])

    def test_predict_batch_output_file(self, checkpoint, requests_file, tmp_path, capsys):
        output = tmp_path / "scores.json"
        exit_code = main(["predict-batch", "--checkpoint", str(checkpoint),
                          "--requests", str(requests_file), "--output", str(output)])
        assert exit_code == 0
        assert "wrote" in capsys.readouterr().out
        payload = json.loads(output.read_text())
        assert len(payload["scores"]) == 2
        assert np.isfinite(payload["scores"]).all()

    def test_serve_parser_accepts_update_head(self, checkpoint):
        args = build_serving_parser("serve").parse_args(
            ["--checkpoint", str(checkpoint), "--head", "update"]
        )
        assert args.head == "update"
        with pytest.raises(SystemExit):
            build_serving_parser("predict-batch").parse_args(
                ["--checkpoint", str(checkpoint), "--requests", "r.json",
                 "--head", "update"]
            )

    @pytest.mark.parametrize("option", [
        ("workers", "2"), ("max-inflight", "8"), ("shards", "2"),
        ("worker-timeout", "1"), ("coalesce",), ("retries", "1"),
    ])
    def test_serve_rejects_removed_concurrency_options(self, checkpoint,
                                                       capsys, option):
        """An old command line fails loudly instead of quietly running serial."""
        name, *value = option
        with pytest.raises(SystemExit) as info:
            main(["serve", "--checkpoint", str(checkpoint), f"--{name}", *value])
        assert info.value.code == 2
        assert f"unrecognized arguments: --{name}" in capsys.readouterr().err

    def test_serve_stream_envelopes_and_error_codes(self, checkpoint, capsys,
                                                    monkeypatch):
        """The serve subcommand speaks the v1 envelope protocol end to end:
        per-line head routing, the stateful update head, structured errors
        with codes in the operator summary."""
        import io
        import sys

        lines = [
            json.dumps({"static_indices": [1, 11], "history": [2, 3]}),   # v0
            json.dumps({"v": 1, "head": "update",
                        "payload": {"user_id": 1, "events": [4]}}),
            json.dumps({"v": 1, "head": "classify", "id": 7,
                        "payload": {"static_indices": [1, 11], "user_id": 1}}),
            json.dumps({"v": 2, "payload": {}}),                          # error
            "not json",                                                   # error
        ]
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        exit_code = main(["serve", "--checkpoint", str(checkpoint)])
        captured = capsys.readouterr()
        assert exit_code == 0
        responses = [json.loads(line) for line in captured.out.splitlines()]
        assert "scores" in responses[0]
        assert responses[1]["result"] == {"user_id": 1, "appended": 1,
                                          "history_len": 1}
        assert responses[2]["head"] == "classify" and responses[2]["id"] == 7
        assert responses[3]["error"]["code"] == "unsupported_version"
        assert responses[4]["error"]["code"] == "bad_json"
        assert "2 errors" in captured.err
        assert "bad_json=1" in captured.err
        assert "unsupported_version=1" in captured.err


class TestTrainCommand:
    def test_train_parser_defaults(self):
        from repro.experiments.cli import build_train_parser

        args = build_train_parser().parse_args(
            ["--dataset", "gowalla", "--checkpoint", "ckpt.npz"]
        )
        assert args.scale == "quick"
        assert args.epochs is None

    def test_train_always_uses_fused_negatives(self, capsys):
        """The looped reference path is a test oracle, not a CLI mode."""
        from repro.experiments.cli import build_train_parser

        with pytest.raises(SystemExit):
            build_train_parser().parse_args(
                ["--dataset", "gowalla", "--checkpoint", "ckpt.npz",
                 "--looped-negatives"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_train_parser_rejects_unknown_dataset(self):
        from repro.experiments.cli import build_train_parser

        with pytest.raises(SystemExit):
            build_train_parser().parse_args(
                ["--dataset", "netflix", "--checkpoint", "ckpt.npz"]
            )

    def test_train_writes_servable_checkpoint(self, tmp_path, capsys):
        """The train -> serve loop: the checkpoint loads into the registry."""
        from repro.serving import ModelRegistry

        checkpoint = tmp_path / "ranker.npz"
        exit_code = main(["train", "--dataset", "gowalla", "--scale", "quick",
                          "--epochs", "1", "--checkpoint", str(checkpoint)])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert checkpoint.exists()
        assert "task=ranking" in output
        assert "wrote" in output

        registry = ModelRegistry()
        entry = registry.load("ranker", checkpoint)
        batcher = entry.batcher(head="score")
        from repro.serving import ScoreRequest

        scores = batcher.score_all([
            ScoreRequest(static_indices=[0, entry.model.config.static_vocab_size - 1],
                         history=[1, 2, 3], user_id=0, object_id=1),
        ])
        assert np.isfinite(scores).all()
