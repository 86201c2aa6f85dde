"""Benchmark — the durability tax and the crash-recovery bill.

The same candidate-ranking stream (every ``rank-topk`` line carries an
explicit 100-event user history, so every line is one write-ahead-logged
store mutation on top of its 16-candidate model forward) is served through
two registries:

1. **in-memory** — the plain :class:`~repro.serving.cache.UserSequenceStore`
   behind the serial router: no journal, state dies with the process;
2. **durable** — :meth:`~repro.serving.registry.ModelRegistry.enable_durability`
   swaps in a :class:`~repro.serving.durability.DurableSequenceStore`:
   every mutation is CRC-framed into the write-ahead log with batched
   fsync (``fsync_every=256``) before it lands in memory.

The WAL append is a fixed per-mutation cost, independent of the model: the
gate is therefore on that cost itself — durable minus in-memory time per
line must stay **under 90 µs** (asserted), which is what the original
"under 10% throughput" budget came to against the ≈0.9 ms forward it was set
on.  The ratio to the forward is still printed, but not gated: it moves
whenever the forward gets faster or slower, with no change to the WAL.
Measurement is built for a noisy host: the two modes serve the stream in
*interleaved 100-line chunks* (a load spike hits both sides of the
difference), the pass is repeated, and each mode keeps its best pass — the
closest observable to its noise-free cost.

The second half measures the *recovery* bill: the durable registry is cut
off without a checkpoint (the crash signature) and a fresh
:class:`DurableSequenceStore` is timed replaying the full log.  Recovery
must land byte-identically on the pre-crash ``snapshot()`` (asserted) —
the number reported is the startup cost of crashing instead of closing.
"""

from __future__ import annotations

import io
import json
import time

import numpy as np

from benchmarks.conftest import export_text
from repro.core.config import SeqFMConfig
from repro.core.model import SeqFM
from repro.serving import DurableSequenceStore, ModelRegistry, serve_jsonl

NUM_LINES = 1_000
EVENTS_PER_LINE = 100          # NUM_LINES * EVENTS_PER_LINE = 100k events
NUM_CANDIDATES = 16
NUM_USERS = 512
CHUNK = 100
REPS = 3
FSYNC_EVERY = 256
MAX_WAL_COST_US = 90.0       # per line: one framed append + 1/256 of an fsync

CONFIG = SeqFMConfig(static_vocab_size=NUM_USERS + 256, dynamic_vocab_size=256,
                     max_seq_len=50, embed_dim=64, ffn_layers=1, dropout=0.0,
                     seed=0)


def _build_registry() -> ModelRegistry:
    model = SeqFM(CONFIG)
    rng = np.random.default_rng(1)
    for parameter in model.parameters():
        parameter.data += rng.normal(0.0, 0.1, parameter.data.shape)
    model.dynamic_embedding.reset_padding()
    registry = ModelRegistry()
    registry.register("m", model)
    return registry


def _build_lines() -> list:
    rng = np.random.default_rng(0)
    catalog = np.arange(NUM_USERS, NUM_USERS + 200)
    lines = []
    for index in range(NUM_LINES):
        user = int(rng.integers(0, NUM_USERS))
        history = [int(item) for item in
                   rng.integers(1, CONFIG.dynamic_vocab_size, EVENTS_PER_LINE)]
        candidates = [int(item) for item in
                      rng.choice(catalog, NUM_CANDIDATES, replace=False)]
        lines.append(json.dumps(
            {"v": 1, "head": "rank-topk", "id": f"r{index}",
             "payload": {"static_indices": [user, NUM_USERS + index % 200],
                         "candidates": candidates, "history": history,
                         "k": 8, "user_id": user}}))
    return lines


def _serve_chunk(registry, chunk) -> float:
    output = io.StringIO()
    started = time.perf_counter()
    summary = serve_jsonl(registry, "m",
                          io.StringIO("\n".join(chunk) + "\n"), output)
    elapsed = time.perf_counter() - started
    assert summary.errors == 0
    return elapsed


def test_wal_overhead_and_recovery_time(tmp_path):
    lines = _build_lines()
    plain_registry = _build_registry()
    durable_registry = _build_registry()
    durable = durable_registry.enable_durability("m", tmp_path / "wal",
                                                 fsync_every=FSYNC_EVERY)

    # Warm caches and BLAS outside the timed region.
    _serve_chunk(plain_registry, lines[:CHUNK])
    _serve_chunk(durable_registry, lines[:CHUNK])

    plain_times, durable_times = [], []
    for rep in range(REPS):
        plain_total = durable_total = 0.0
        for start in range(0, NUM_LINES, CHUNK):
            chunk = lines[start:start + CHUNK]
            if (start // CHUNK) % 2 == 0:   # alternate which mode goes first
                plain_total += _serve_chunk(plain_registry, chunk)
                durable_total += _serve_chunk(durable_registry, chunk)
            else:
                durable_total += _serve_chunk(durable_registry, chunk)
                plain_total += _serve_chunk(plain_registry, chunk)
        plain_times.append(plain_total)
        durable_times.append(durable_total)

    plain_time = min(plain_times)
    durable_time = min(durable_times)
    overhead = durable_time / plain_time - 1.0
    wal_cost_us = (durable_time - plain_time) / NUM_LINES * 1e6

    durable.sync()
    pre_crash = durable.snapshot()
    # Crash: no close(), no checkpoint — the WAL alone must rebuild state.
    wal_records = durable.wal_status()["last_seq"]
    wal_bytes = (tmp_path / "wal" / "wal.jsonl").stat().st_size

    started = time.perf_counter()
    recovered = DurableSequenceStore(tmp_path / "wal", CONFIG.max_seq_len,
                                     fsync_every=FSYNC_EVERY)
    recovery_time = time.perf_counter() - started
    assert recovered.snapshot() == pre_crash
    assert recovered.recovery.replayed == wal_records
    recovered.close()

    report = [
        "Durability: write-ahead-logged serving vs in-memory (quick scale)",
        "=" * 68,
        f"stream: {NUM_LINES} rank-topk lines x {EVENTS_PER_LINE} events "
        f"x {NUM_CANDIDATES} candidates = {NUM_LINES * EVENTS_PER_LINE:,} "
        f"events, {NUM_USERS} users",
        f"measurement: {REPS} passes of interleaved {CHUNK}-line chunks, "
        "best pass per mode",
        f"wal: fsync_every={FSYNC_EVERY}, {wal_records:,} records, "
        f"{wal_bytes / 1e6:.2f} MB",
        "",
        f"{'mode':<12} {'time (s)':>10} {'req/s':>10}",
        f"{'in-memory':<12} {plain_time:>10.3f} {NUM_LINES / plain_time:>10.0f}",
        f"{'durable':<12} {durable_time:>10.3f} {NUM_LINES / durable_time:>10.0f}",
        "",
        f"durability cost: {wal_cost_us:+.1f} us/line (budget < "
        f"{MAX_WAL_COST_US:.0f} us), {overhead:+.1%} of this forward",
        f"crash recovery: {wal_records:,} records replayed in "
        f"{recovery_time * 1e3:.1f} ms "
        f"({wal_records / max(recovery_time, 1e-9):,.0f} records/s), "
        "recovered snapshot byte-identical to pre-crash state",
    ]
    text = "\n".join(report)
    print("\n" + text)
    export_text("serving_durability", text)

    assert wal_cost_us < MAX_WAL_COST_US, (
        f"WAL cost {wal_cost_us:.1f} us/line blew the "
        f"{MAX_WAL_COST_US:.0f} us budget")
