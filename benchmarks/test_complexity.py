"""Benchmark E8 — the time-complexity claim of Section III-I.

The paper argues the forward cost of SeqFM is O((n° + n˙)² · d + l · d²) per
instance and therefore *linear in the number of instances*.  This benchmark
measures (a) forward time as the batch size grows with everything else fixed
(expect ~linear growth) and (b) forward time as the latent dimension grows
(expect ~linear growth in d for fixed, small sequence length).
"""

from __future__ import annotations

import time
from typing import List, Tuple

from benchmarks.conftest import export_text
from repro.core.config import SeqFMConfig
from repro.core.model import SeqFM
from repro.data.features import FeatureBatch
from repro.experiments.registry import build_context


def _fastest_forwards(points: List[Tuple[SeqFM, FeatureBatch]], repeats: int) -> List[float]:
    """Fastest of ``repeats`` forward times for each ``(model, batch)`` point.

    The repeats are interleaved across the points, so a burst of load from
    elsewhere on the machine slows one sample of several points rather than
    every sample of one point.
    """
    best = [float("inf")] * len(points)
    for _ in range(repeats):
        for index, (model, batch) in enumerate(points):
            start = time.perf_counter()
            model.score(batch)
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def _batch_of_size(context, size: int) -> FeatureBatch:
    examples = context.train_examples
    replicated = [examples[i % len(examples)] for i in range(size)]
    return FeatureBatch.from_examples(replicated)


def test_forward_time_linear_in_batch_size(scale):
    context = build_context("gowalla", scale=scale)
    model = SeqFM(context.seqfm_config())
    sizes = [256, 512, 1024, 2048]
    times = _fastest_forwards([(model, _batch_of_size(context, size)) for size in sizes],
                              repeats=5)

    lines = ["Forward wall-clock vs. batch size (fixed n°, n˙, d):"]
    for size, seconds in zip(sizes, times):
        lines.append(f"  batch={size:4d}  {seconds * 1e3:8.2f} ms  ({seconds / size * 1e6:6.2f} µs/instance)")
    report = "\n".join(lines)
    print("\n" + report)
    export_text("complexity_batch_size", report)

    # An 8× larger batch must cost clearly more than the smallest batch but far
    # less than the 64× a quadratic-in-instances model would imply; 24× leaves
    # generous headroom over the linear expectation of 8× for cache effects.
    assert times[-1] > times[0] * 1.5
    assert times[-1] < times[0] * 24


def test_forward_time_grows_with_embed_dim(scale):
    context = build_context("gowalla", scale=scale)
    dims = [8, 32, 128]
    batch = _batch_of_size(context, 256)
    times = _fastest_forwards([(SeqFM(context.seqfm_config(embed_dim=dim)), batch)
                               for dim in dims], repeats=3)

    print()
    print("Forward wall-clock vs. latent dimension d (batch=256):")
    for dim, seconds in zip(dims, times):
        print(f"  d={dim:4d}  {seconds * 1e3:8.2f} ms")

    # Cost must increase with d, but far slower than quadratically over this
    # range (the dominant term is (n°+n˙)²·d which is linear in d).
    assert times[-1] > times[0]
    assert times[-1] < times[0] * (dims[-1] / dims[0]) ** 2


def test_parameter_count_linear_in_vocabulary():
    def count(vocab_multiplier: int) -> int:
        config = SeqFMConfig(
            static_vocab_size=100 * vocab_multiplier,
            dynamic_vocab_size=80 * vocab_multiplier,
            embed_dim=16, dropout=0.0,
        )
        return SeqFM(config).num_parameters()

    counts = [count(m) for m in (1, 2, 4)]

    print()
    print("SeqFM parameter count vs. vocabulary size multiplier:")
    for multiplier, total in zip((1, 2, 4), counts):
        print(f"  ×{multiplier}: {total:,} parameters")

    # Embedding growth dominates and is exactly linear in the vocabulary.
    first_delta = counts[1] - counts[0]
    second_delta = counts[2] - counts[1]
    assert second_delta == 2 * first_delta
