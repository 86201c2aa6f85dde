"""One run of one workload: set-up, timed passes, traced pass, oracle.

``run_workload`` is what ``python -m bench.run --workload NAME`` executes in
its own process and what ``bench/test_bench_smoke.py`` calls in-process at
smoke scale.  The shape of a run:

1. generate the stream from the seed (never timed);
2. set up ``SETUP_REPEATS`` times — build the state, serve a short warm-up —
   and keep the median; ``setup_s`` is that plus the median import time;
3. ``seconds / NOMINAL_PASS_SECONDS`` timed passes (at least ``MIN_PASSES``)
   over the same stream; each request is credited with the fastest time any
   pass saw it take (``bench.measure``), so interference from the neighbours
   on a shared box — which only ever adds time — is filtered per request, and
   so is the first pass's cold cache: no separate warm-up pass is needed;
4. with ``trace``: one more pass through the traced mirror;
5. the oracle over every pass, outside any timed region.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from bench import measure, oracle
from bench.measure import PassResult
from bench.trace import LAYER_METRICS, Tracer, layer_times, traced_serve_pass, traced_train_pass
from bench.workloads import WORKLOADS, ServeStream, Workload

#: End-to-end metrics every workload reports, with their units.  A request is
#: a JSONL line for the serving workloads and a training step for
#: ``train_fused``.
END_TO_END_METRICS: Dict[str, str] = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

SETUP_REPEATS = 3
#: Lines of the stream served as the warm-up that belongs to set-up.
WARMUP_LINES = 64
#: What one pass of every full-size workload lasts on the reference box; the
#: number of passes follows from ``seconds`` alone, never from how fast the
#: program ran, so the same work is measured on every commit.
NOMINAL_PASS_SECONDS = 1.6
MIN_PASSES = 3
#: A traced run spends half its seconds on untraced passes (the baseline the
#: tracing overhead is measured against) and needs fewer of them.
MIN_PASSES_TRACED = 2


class _ServeDriver:
    """Builds serving state and runs passes over one stream."""

    def __init__(self, workload: Workload, sizes, seed: int, stream: ServeStream, work: Path):
        self.workload, self.sizes, self.seed, self.stream = workload, sizes, seed, stream
        self._work = work
        self._builds = 0
        self.state = None

    def _build(self):
        self._builds += 1
        return self.workload.build(self.sizes, self.seed, self.stream,
                                   self._work / f"state-{self._builds}")

    def setup(self) -> float:
        start = time.perf_counter()
        self.state = self._build()
        warmup = ServeStream(self.stream.lines[:WARMUP_LINES], heads=self.stream.heads)
        measure.serve_pass(self.workload, self.state, warmup)
        return time.perf_counter() - start

    def _finish(self, result: PassResult) -> PassResult:
        if self.workload.fresh_state_per_pass:
            measure.abandon_and_recover(self.state, result, self.sizes["fsync_every"])
            shutil.rmtree(self.state.wal_directory)
        return result

    def run_pass(self) -> PassResult:
        if self.workload.fresh_state_per_pass:
            self.state = self._build()
        return self._finish(measure.serve_pass(self.workload, self.state, self.stream))

    def run_traced_pass(self, tracer: Tracer):
        if self.workload.fresh_state_per_pass:
            self.state = self._build()
        result, counters = traced_serve_pass(self.workload, self.state, self.stream, tracer)
        return self._finish(result), counters

    def check(self, passes: Sequence[PassResult]) -> oracle.OracleReport:
        return oracle.check_serve(self.sizes, self.state, self.stream, passes)


class _TrainDriver:
    """Builds the encoded dataset and runs one-epoch passes on fresh models."""

    def __init__(self, workload: Workload, sizes, seed: int, stream, work: Path):
        self.workload, self.sizes, self.seed, self.stream = workload, sizes, seed, stream
        self._work = work
        self.state = None

    def setup(self) -> float:
        start = time.perf_counter()
        self.state = self.workload.build(self.sizes, self.seed, self.stream, self._work)
        warmup = self.state.examples[: 2 * self.sizes["batch_size"]]
        self.state.new_trainer().fit(warmup)
        return time.perf_counter() - start

    def run_pass(self) -> PassResult:
        return measure.train_pass(self.state)

    def run_traced_pass(self, tracer: Tracer):
        return traced_train_pass(self.state, tracer)

    def check(self, passes: Sequence[PassResult]) -> oracle.OracleReport:
        return oracle.check_train(passes)


def _timed_passes(driver, seconds: float, min_passes: int) -> List[PassResult]:
    """The planned number of passes — cut short (never below ``min_passes``)
    only when the box is so slow that they overrun ``seconds`` by a quarter."""
    planned = max(min_passes, round(seconds / NOMINAL_PASS_SECONDS))
    passes: List[PassResult] = []
    measured = 0.0
    while len(passes) < planned and (len(passes) < min_passes or measured < 1.25 * seconds):
        passes.append(driver.run_pass())
        measured += passes[-1].wall_s
    return passes


def _layer_metrics(tracer: Tracer, traced: PassResult, counters: Dict[str, float],
                   passes: Sequence[PassResult], pass_metrics: Dict[str, dict]) -> Dict[str, float]:
    layers = dict.fromkeys(LAYER_METRICS, 0.0)
    layers.update(layer_times(tracer, traced.requests))
    layers.update(counters)
    if traced.wal is not None:
        layers["serving.durability.wal_appends_per_line"] = traced.wal["appends"] / traced.requests
        layers["serving.durability.wal_fsyncs"] = float(traced.wal["fsyncs"])
        layers["serving.durability.wal_bytes_per_line"] = traced.wal["bytes"] / traced.requests
    for metric, source in (("serving.durability.recovery_s", "recovery_s"),
                           ("core.trainer.examples_per_s", "examples_per_s")):
        if source in pass_metrics:
            layers[metric] = pass_metrics[source]["value"]
    layers["bench.latency_samples_per_pass"] = float(len(passes[0].latencies_ms))
    layers["trace.overhead_fraction"] = (
        traced.wall_s / statistics.median(p.wall_s for p in passes) - 1.0)
    return layers


def run_workload(name: str, seed: int = 0, seconds: float = 10.0, trace: bool = False,
                 scale: str = "full", out_dir: Path = Path("bench/out"),
                 import_samples: Sequence[float] = (0.0,)) -> dict:
    """Run one workload once; returns the run's record (see ``bench/README.md``).

    ``import_samples`` are measured import times of the program and harness
    (the caller's own, and fresh interpreters'); their median is the import
    share of ``setup_s``.
    """
    workload = WORKLOADS[name]
    sizes = workload.sizes[scale]
    load_start = os.getloadavg()[0]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    try:
        stream = workload.generate(sizes, seed)
        driver_class = _ServeDriver if workload.kind == "serve" else _TrainDriver
        driver = driver_class(workload, sizes, seed, stream, work)
        setups = [driver.setup() for _ in range(SETUP_REPEATS)]
        if trace:
            passes = _timed_passes(driver, seconds / 2, MIN_PASSES_TRACED)
        else:
            passes = _timed_passes(driver, seconds, MIN_PASSES)
        pass_metrics = measure.summarise(passes)
        rss_mb = measure.peak_rss_mb()

        checked = list(passes)
        layers: Optional[Dict[str, float]] = None
        if trace:
            tracer = Tracer()
            traced, counters = driver.run_traced_pass(tracer)
            layers = _layer_metrics(tracer, traced, counters, passes, pass_metrics)
            tracer.write(out_dir / f"trace_{name}.jsonl")
            checked.append(traced)
        report = driver.check(checked)
        if layers is not None and report.recall is not None:
            layers["retrieval.recall_at_k"] = report.recall
    finally:
        shutil.rmtree(work, ignore_errors=True)

    end_to_end = {
        "setup_s": {"value": statistics.median(import_samples) + statistics.median(setups),
                    "per_pass": setups, "import_s": list(import_samples)},
        **{metric: pass_metrics[metric]
           for metric in ("req_per_s", "latency_p50_ms", "latency_p99_ms")},
        "peak_rss_mb": {"value": rss_mb},
    }
    for metric, unit in END_TO_END_METRICS.items():
        end_to_end[metric]["unit"] = unit
    record = {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
        "scale": scale, "trace": trace,
        "correct": report.failed == 0, "attempted": report.attempted,
        "failed": report.failed, "failed_fraction": report.failed / report.attempted,
        "problems": report.problems, "oracle_sampled": report.sampled,
        "passes": len(passes), "samples_per_pass": int(len(passes[0].latencies_ms)),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg()[0],
        "end_to_end": end_to_end,
        # Pass-level numbers only some workloads have (recovery_s,
        # examples_per_s); the traced run reports them as per-layer metrics.
        "extra": {metric: values for metric, values in pass_metrics.items()
                  if metric not in END_TO_END_METRICS},
    }
    if report.recall is not None:
        record["recall_at_k"] = report.recall
    if layers is not None:
        record["per_layer"] = {metric: {"value": value, "unit": LAYER_METRICS[metric]}
                               for metric, value in layers.items()}
    return record
