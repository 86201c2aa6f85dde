"""The traced pass: spans recorded from outside, around each layer's public API.

``src/`` carries no instrumentation.  For one extra pass per run this module

* mirrors the body of ``serve_jsonl`` (``json.loads`` → ``parse_envelope`` →
  ``ServingRouter.execute`` → ``json.dumps`` + write) and of
  ``Trainer._train_step`` (``BatchIterator`` → ``sample_batch`` × k →
  ``with_candidates`` → ``fused_loss`` → ``backward`` → ``zero_grad``/``step``)
  from public parts, and
* installs timing wrappers on the live objects beneath that loop — removed
  again when the pass ends.

A span is ``(name, start, end, parent, root)``: ``parent`` is the index of the
span that was open when it started (−1 for a root span) and ``root`` the line
or step number, shared by every span of one request.  A span's *self* time is
its duration minus the time its children cover.  The traced pass must emit
the same bytes (the same epoch loss) as the untraced passes — that is what
proves the mirror measures the same program — and end-to-end metrics never
come from it.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from bench.measure import ClosedLoopClient, PassResult, cycles_ms
from bench.workloads import MODEL_NAME, ServeState, ServeStream, TrainState, Workload
from repro.data.batching import BatchIterator
from repro.nn import kernels
from repro.serving import protocol
from repro.serving.durability import WriteAheadLog
from repro.serving.protocol import ServeDefaults, ServingRouter, default_heads, parse_envelope
from repro.serving.service import ServeSummary

Span = Tuple[str, float, float, int, int]

#: Every per-layer metric the benchmark reports, with its unit.  Times are
#: mean self time per line (per step for training) in microseconds.
LAYER_METRICS: Dict[str, str] = {
    "serving.service.json_decode_us": "us",
    "serving.service.json_encode_us": "us",
    "serving.service.loop_self_us": "us",
    "serving.protocol.parse_envelope_us": "us",
    "serving.protocol.route_us": "us",
    "serving.protocol.parse_requests_us": "us",
    "serving.protocol.render_response_us": "us",
    "serving.protocol.execute_self_us": "us",
    "serving.batcher.collate_us": "us",
    "serving.batcher.dispatch_self_us": "us",
    "serving.batcher.rows_per_batch": "count",
    "serving.cache.encode_us": "us",
    "serving.cache.record_us": "us",
    "serving.cache.hit_rate": "ratio",
    "serving.cache.evictions": "count",
    "serving.durability.wal_append_us": "us",
    "serving.durability.wal_appends_per_line": "count",
    "serving.durability.wal_fsyncs": "count",
    "serving.durability.wal_bytes_per_line": "count",
    "serving.durability.recovery_s": "s",
    "serving.engine.score_self_us": "us",
    "serving.engine.prepare_ranking_self_us": "us",
    "serving.engine.rank_candidates_self_us": "us",
    "nn.kernels.attention_us": "us",
    "nn.kernels.pool_norm_us": "us",
    "nn.kernels.top_k_us": "us",
    "nn.kernels.blocked_topk_matmul_us": "us",
    "nn.kernels.calls_per_line": "count",
    "retrieval.pipeline.self_us": "us",
    "retrieval.query.encode_self_us": "us",
    "retrieval.index.search_self_us": "us",
    "retrieval.index.probe_fraction": "ratio",
    "retrieval.recall_at_k": "ratio",
    "data.batching.next_batch_us": "us",
    "data.sampling.sample_batch_us": "us",
    "data.features.with_candidates_us": "us",
    "core.tasks.fused_loss_us": "us",
    "autograd.backward_us": "us",
    "nn.optim.step_us": "us",
    "core.trainer.steps": "count",
    "core.trainer.rows_per_step": "count",
    "core.trainer.examples_per_s": "1/s",
    "bench.latency_samples_per_pass": "count",
    "trace.overhead_fraction": "ratio",
    "trace.coverage_fraction": "ratio",
}

_KERNEL_GROUPS = {
    "nn.kernels.attention_us": (
        "softmax", "attention_scores", "attention_weights",
        "scaled_dot_product_attention", "project_qkv", "attend_with_cached_kv"),
    "nn.kernels.pool_norm_us": (
        "layer_norm", "relu", "sigmoid", "mean_pool", "masked_mean_pool"),
    "nn.kernels.top_k_us": ("top_k",),
    "nn.kernels.blocked_topk_matmul_us": ("blocked_topk_matmul",),
}

#: Span name → the metric its self time is summed into.
SPAN_METRIC: Dict[str, str] = {
    "serving.service.line": "serving.service.loop_self_us",
    "serving.service.json_decode": "serving.service.json_decode_us",
    "serving.service.json_encode": "serving.service.json_encode_us",
    "serving.protocol.parse_envelope": "serving.protocol.parse_envelope_us",
    "serving.protocol.heads_get": "serving.protocol.route_us",
    "serving.protocol.batcher_for": "serving.protocol.route_us",
    "serving.protocol.parse_requests": "serving.protocol.parse_requests_us",
    "serving.protocol.render_response": "serving.protocol.render_response_us",
    "serving.protocol.execute": "serving.protocol.execute_self_us",
    "serving.batcher.collate": "serving.batcher.collate_us",
    "serving.batcher.score_all": "serving.batcher.dispatch_self_us",
    "serving.batcher.rank": "serving.batcher.dispatch_self_us",
    "serving.batcher.recommend": "serving.batcher.dispatch_self_us",
    "serving.cache.encode": "serving.cache.encode_us",
    "serving.cache.encode_stored": "serving.cache.encode_us",
    "serving.cache.record": "serving.cache.record_us",
    "serving.durability.wal_append": "serving.durability.wal_append_us",
    "serving.durability.wal_sync": "serving.durability.wal_append_us",
    "serving.engine.score": "serving.engine.score_self_us",
    "serving.engine.prepare_ranking": "serving.engine.prepare_ranking_self_us",
    "serving.engine.rank_candidates": "serving.engine.rank_candidates_self_us",
    "serving.engine.rank_topk": "serving.engine.rank_candidates_self_us",
    "retrieval.pipeline.retrieve_then_rank": "retrieval.pipeline.self_us",
    "retrieval.pipeline.retrieve": "retrieval.pipeline.self_us",
    "retrieval.query.encode": "retrieval.query.encode_self_us",
    "retrieval.index.search": "retrieval.index.search_self_us",
    "data.batching.next_batch": "data.batching.next_batch_us",
    "data.sampling.sample_batch": "data.sampling.sample_batch_us",
    "data.features.with_candidates": "data.features.with_candidates_us",
    "core.tasks.fused_loss": "core.tasks.fused_loss_us",
    "autograd.backward": "autograd.backward_us",
    "nn.optim.zero_grad": "nn.optim.step_us",
    "nn.optim.step": "nn.optim.step_us",
    **{f"nn.kernels.{function}": metric
       for metric, functions in _KERNEL_GROUPS.items() for function in functions},
}

#: Root spans: one per line / per step.  Their self time is the loop's own
#: (``loop_self``); everything else under them is a named layer span.
ROOT_SPANS = ("serving.service.line", "core.trainer.step")


class Tracer:
    """In-memory span recorder; spans are written out when the pass ends."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._open: List[int] = []
        #: Identifier shared by every span of the current request.
        self.root = 0

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with a span recorded around every call."""
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (name, start, end, parent, self.root)

        return traced

    def self_times(self) -> List[float]:
        """Self time of every span: duration minus its children's durations."""
        selfs = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def write(self, path: Path) -> None:
        """One JSON object per span, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, (name, start, end, parent, root) in enumerate(self.spans):
                handle.write(
                    f'{{"span":{index},"name":"{name}","start":{start!r},'
                    f'"end":{end!r},"parent":{parent},"root":{root}}}\n')


class Patches:
    """Timing wrappers on live objects, for one pass only.

    ``wrap(owner, attribute, span)`` replaces ``owner.attribute`` — a method on
    an instance, a function in a module, a method on a class — with its traced
    twin; leaving the ``with`` block puts everything back.
    """

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._undo: List[Tuple[object, str, bool, object]] = []

    def wrap(self, owner, attribute: str, span: str) -> None:
        own = vars(owner)
        self._undo.append((owner, attribute, attribute in own, own.get(attribute)))
        setattr(owner, attribute, self._tracer.wrap(span, getattr(owner, attribute)))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, was_own, previous in reversed(self._undo):
            if was_own:
                setattr(owner, attribute, previous)
            else:
                delattr(owner, attribute)


def layer_times(tracer: Tracer, requests: int) -> Dict[str, float]:
    """Mean self time per request of every timed metric, µs, plus coverage."""
    totals = {name: 0.0 for name, unit in LAYER_METRICS.items() if unit == "us"}
    root_total = root_self = 0.0
    kernel_calls = 0
    for (name, start, end, _, _), self_s in zip(tracer.spans, tracer.self_times()):
        if name in ROOT_SPANS:
            root_total += end - start
            root_self += self_s
        if name.startswith("nn.kernels."):
            kernel_calls += 1
        metric = SPAN_METRIC.get(name)
        if metric is not None:
            totals[metric] += self_s
    metrics = {name: total * 1e6 / requests for name, total in totals.items()}
    metrics["nn.kernels.calls_per_line"] = kernel_calls / requests
    metrics["trace.coverage_fraction"] = 1.0 - root_self / root_total
    return metrics


# --------------------------------------------------------------------------- #
# Serving
# --------------------------------------------------------------------------- #
def _instrument_serving(patches: Patches, state: ServeState) -> None:
    """Wrap the public callables beneath the serve loop, engine first.

    Order matters: a ``MicroBatcher`` captures ``engine.score`` /
    ``engine.rank_topk`` / ``retriever.retrieve_then_rank`` when it is built,
    so those must already be wrapped when the router creates its batchers.
    """
    entry = state.entry
    for method in ("score", "prepare_ranking", "rank_candidates", "rank_topk"):
        patches.wrap(entry.engine, method, f"serving.engine.{method}")
    for functions in _KERNEL_GROUPS.values():
        for function in functions:
            patches.wrap(kernels, function, f"nn.kernels.{function}")
    for method in ("encode", "encode_stored", "record"):
        patches.wrap(entry.sequence_store, method, f"serving.cache.{method}")
    patches.wrap(WriteAheadLog, "append", "serving.durability.wal_append")
    patches.wrap(WriteAheadLog, "sync", "serving.durability.wal_sync")
    patches.wrap(protocol, "render_response", "serving.protocol.render_response")
    if entry.retriever is not None:
        retriever = entry.retriever
        patches.wrap(retriever, "retrieve_then_rank", "retrieval.pipeline.retrieve_then_rank")
        patches.wrap(retriever, "retrieve", "retrieval.pipeline.retrieve")
        patches.wrap(retriever.encoder, "encode", "retrieval.query.encode")
        patches.wrap(retriever.searcher, "search", "retrieval.index.search")


def traced_serve_pass(
    workload: Workload, state: ServeState, stream: ServeStream, tracer: Tracer
) -> Tuple[PassResult, Dict[str, float]]:
    """One pass through the mirror of ``serve_jsonl``, spans recorded.

    Returns the pass and the counters read at the layer boundaries
    (batch sizes, cache hits, index probing).
    """
    entry = state.entry
    cache_before = entry.sequence_store.stats
    with Patches(tracer) as patches:
        _instrument_serving(patches, state)
        router = ServingRouter(state.registry, default_model=MODEL_NAME,
                               heads=default_heads(), defaults=ServeDefaults())
        batchers = [router.batcher_for(MODEL_NAME, head)[1] for head in stream.heads]
        for batcher in batchers:
            for method in ("collate", "score_all", "rank", "recommend"):
                patches.wrap(batcher, method, f"serving.batcher.{method}")
        patches.wrap(router.heads, "get", "serving.protocol.heads_get")
        patches.wrap(router, "batcher_for", "serving.protocol.batcher_for")
        patches.wrap(router, "parse_requests", "serving.protocol.parse_requests")
        decode = tracer.wrap("serving.service.json_decode", json.loads)
        parse = tracer.wrap("serving.protocol.parse_envelope", parse_envelope)
        execute = tracer.wrap("serving.protocol.execute", router.execute)
        encode = tracer.wrap("serving.service.json_encode", json.dumps)
        summary = ServeSummary()
        client = ClosedLoopClient(stream.lines)

        def serve_line(line: str) -> None:
            summary.record_line()
            envelope = parse(decode(line), default_head=workload.head,
                             default_model=MODEL_NAME)
            response, rows, _ = execute(envelope)
            summary.record_rows(rows)
            client.write(encode(response) + "\n")
            client.flush()

        serve_line = tracer.wrap("serving.service.line", serve_line)
        gc.collect()
        start = time.perf_counter()
        for line_number, raw_line in enumerate(client, start=1):
            line = raw_line.strip()
            if not line:
                continue
            tracer.root = line_number
            serve_line(line)
        end = time.perf_counter()

    cache_after = entry.sequence_store.stats
    lookups = cache_after.requests - cache_before.requests
    batches = sum(batcher.stats.batches for batcher in batchers)
    counters = {
        "serving.batcher.rows_per_batch":
            sum(b.stats.rows_scored for b in batchers) / batches if batches else 0.0,
        "serving.cache.hit_rate":
            (cache_after.hits - cache_before.hits) / lookups if lookups else 0.0,
        "serving.cache.evictions": float(cache_after.evictions - cache_before.evictions),
    }
    if entry.retriever is not None:
        searcher = entry.retriever.searcher
        counters["retrieval.index.probe_fraction"] = searcher.n_probe / searcher.n_partitions
    result = PassResult(requests=len(stream.lines), wall_s=end - start,
                        latencies_ms=client.latencies_ms(),
                        cycles_ms=cycles_ms(start, client.pulled, end),
                        responses=client.responses)
    return result, counters


# --------------------------------------------------------------------------- #
# Training
# --------------------------------------------------------------------------- #
def traced_train_pass(state: TrainState, tracer: Tracer) -> Tuple[PassResult, Dict[str, float]]:
    """One epoch through the mirror of ``Trainer._run_epoch``, spans recorded."""
    trainer = state.new_trainer()
    config, task_model, encoder = trainer.config, trainer.task_model, trainer.encoder
    draws = config.negatives_per_positive
    wrap = tracer.wrap
    sample = wrap("data.sampling.sample_batch", trainer.sampler.sample_batch)
    with_candidates = wrap("data.features.with_candidates",
                           lambda batch, negatives: batch.with_candidates(encoder, negatives))
    fused_loss = wrap("core.tasks.fused_loss", task_model.fused_loss)
    backward = wrap("autograd.backward", lambda loss: loss.backward())
    zero_grad = wrap("nn.optim.zero_grad", trainer.optimizer.zero_grad)
    optimizer_step = wrap("nn.optim.step", trainer.optimizer.step)
    rows: List[int] = []

    def step(next_batch: Callable) -> Optional[float]:
        batch = next_batch()
        if batch is None:
            return None
        zero_grad()
        negatives = np.stack([sample(batch.user_ids, batch.object_ids)
                              for _ in range(draws)])
        fused = with_candidates(batch, negatives)
        loss = fused_loss(fused, len(batch), draws)
        backward(loss)
        optimizer_step()
        rows.append(len(fused))
        return float(loss.item())

    step = wrap("core.trainer.step", step)
    gc.collect()
    start = time.perf_counter()
    batches = iter(BatchIterator(state.examples, batch_size=config.batch_size,
                                 shuffle=True, seed=config.seed))
    next_batch = wrap("data.batching.next_batch", lambda: next(batches, None))
    task_model.train()
    total_loss = 0.0
    while True:
        tracer.root = len(rows) + 1
        loss_value = step(next_batch)
        if loss_value is None:
            break
        total_loss += loss_value
    task_model.eval()
    wall_s = time.perf_counter() - start

    steps = len(rows)
    step_ms = np.array([(end - begin) * 1e3 for name, begin, end, _, _ in tracer.spans
                        if name == "core.trainer.step"][:steps])
    result = PassResult(requests=steps, wall_s=wall_s, latencies_ms=step_ms,
                        cycles_ms=step_ms, loss=total_loss / max(steps, 1), examples=len(state.examples))
    counters = {"core.trainer.steps": float(steps),
                "core.trainer.rows_per_step": sum(rows) / max(steps, 1)}
    return result, counters
