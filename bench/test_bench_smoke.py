"""Smoke test of the benchmark of record (collected by the tier-1 ``pytest``).

Runs every workload in-process at smoke scale — two short passes plus the
traced pass — and holds the harness to what ``BENCHMARK.json`` declares.
Writes nothing outside pytest's ``tmp_path``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from bench import measure, oracle
from bench.compare import verdict
from bench.session import END_TO_END_METRICS, run_workload
from bench.trace import LAYER_METRICS
from bench.workloads import WORKLOADS

DECLARED = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_declared_names_match_the_harness():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == END_TO_END_METRICS
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == LAYER_METRICS
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in DECLARED[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    assert DECLARED["paths"] == ["bench"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_traced_and_correct(name, tmp_path):
    record = run_workload(name, seed=0, seconds=0.0, trace=True, scale="smoke",
                          out_dir=tmp_path)
    assert record["correct"] and record["failed"] == 0, record["problems"]
    assert record["attempted"] > 0
    # the traced pass is among the checked passes: correct means it reproduced
    # the untraced bytes (the untraced epoch loss)
    assert record["passes"] == 2

    assert list(record["end_to_end"]) == list(END_TO_END_METRICS)
    for metric, unit in END_TO_END_METRICS.items():
        assert record["end_to_end"][metric]["unit"] == unit
        assert record["end_to_end"][metric]["value"] > 0
    assert list(record["per_layer"]) == list(LAYER_METRICS)
    for metric, unit in LAYER_METRICS.items():
        assert record["per_layer"][metric]["unit"] == unit
    assert record["per_layer"]["trace.coverage_fraction"]["value"] >= 0.9

    spans = [json.loads(line) for line in
             (tmp_path / f"trace_{name}.jsonl").read_text().splitlines()]
    assert spans and all(span["end"] >= span["start"] for span in spans)
    roots = {span["root"] for span in spans}
    assert len(roots) >= record["samples_per_pass"]
    assert sorted(path.name for path in tmp_path.iterdir()) == [f"trace_{name}.jsonl"]


@pytest.mark.parametrize("name", [n for n, w in WORKLOADS.items() if w.kind == "serve"])
def test_same_seed_same_stream(name):
    workload = WORKLOADS[name]
    sizes = workload.sizes["smoke"]
    assert workload.generate(sizes, 3).lines == workload.generate(sizes, 3).lines
    assert workload.generate(sizes, 3).lines != workload.generate(sizes, 4).lines


def test_oracle_catches_a_perturbed_score_and_a_dropped_line(tmp_path):
    workload = WORKLOADS["serve_score"]
    sizes = workload.sizes["smoke"]
    stream = workload.generate(sizes, 0)
    state = workload.build(sizes, 0, stream, tmp_path)
    passes = [measure.serve_pass(workload, state, stream) for _ in range(2)]
    assert oracle.check_serve(sizes, state, stream, passes).failed == 0

    sampled = sizes["oracle_stride"] - 1   # the first line the oracle re-derives
    body = json.loads(passes[0].responses[sampled])
    body["result"]["score"] += 1e-6
    perturbed = list(passes[0].responses)
    perturbed[sampled] = json.dumps(body) + "\n"
    passes[0].responses = perturbed
    report = oracle.check_serve(sizes, state, stream, passes)
    assert report.failed >= 2   # wrong against SeqFM.score, and pass 1 differs from it
    assert any("SeqFM.score" in problem for problem in report.problems)

    passes = [measure.serve_pass(workload, state, stream) for _ in range(2)]
    del passes[1].responses[5]
    report = oracle.check_serve(sizes, state, stream, passes)
    assert report.failed > 0 and report.failed / report.attempted > 0
    assert any("never answered" in problem for problem in report.problems)


def test_compare_verdicts():
    steady = {"value": 100.0, "spread": 0.01}
    noisy = {"value": 100.0, "spread": 0.3}
    assert verdict(steady, {"value": 102.0, "spread": 0.01}, "higher", 0.07) == "same"
    assert verdict(steady, {"value": 80.0, "spread": 0.01}, "higher", 0.07) == "worse"
    assert verdict(steady, {"value": 80.0, "spread": 0.01}, "lower", 0.07) == "better"
    assert verdict(noisy, steady, "higher", 0.07) == "unresolved"
    assert verdict(noisy, {"value": 80.0, "spread": 0.01}, "higher", 0.07) == "unresolved"
