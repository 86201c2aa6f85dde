"""Correctness oracle: every pass is checked, a sample is re-derived.

Runs after the timed passes and outside any timed region.  For every pass:
every line answered, ``id`` echoed, no ``error`` body, and the response bytes
identical to the first pass.  Then a sample of answers (every
``oracle_stride``-th line) is re-derived through a path the server did not
take: ``SeqFM.score`` — the autograd forward — for scores and candidate
rankings, ``engine.rank_candidates`` plus a brute-force ranking of the whole
catalog for recommendations.  Any miss counts as a failed request.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from bench.measure import PassResult
from bench.workloads import ServeState, ServeStream, Sizes
from repro.data.features import FeatureBatch, pad_sequences
from repro.retrieval import recall_at

#: Parity tolerance of every re-derived score (the repo's own parity bar).
TOLERANCE = 1e-10
#: Floor on the recommend head's top-k recall against exact ranking.
RECALL_FLOOR = 0.9
_BRUTE_FORCE_CHUNK = 2048


@dataclass
class OracleReport:
    attempted: int = 0
    failed: int = 0
    sampled: int = 0
    problems: List[str] = field(default_factory=list)
    #: ``serve_recommend``: mean top-k recall of the sampled lines.
    recall: Optional[float] = None

    def problem(self, message: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(message)


def _close(left: Sequence[float], right: Sequence[float]) -> bool:
    left, right = np.asarray(left, dtype=np.float64), np.asarray(right, dtype=np.float64)
    return left.shape == right.shape and bool(np.all(np.abs(left - right) <= TOLERANCE))


def _score_batch(payloads: Sequence[dict], histories, max_seq_len: int) -> FeatureBatch:
    dynamic, mask = pad_sequences(histories, max_seq_len)
    count = len(payloads)
    return FeatureBatch(
        static_indices=np.array([p["static_indices"] for p in payloads], dtype=np.int64),
        dynamic_indices=dynamic, dynamic_mask=mask,
        labels=np.zeros(count), user_ids=np.full(count, -1, dtype=np.int64),
        object_ids=np.full(count, -1, dtype=np.int64),
    )


def _check_scores(state, stream, requests, bodies, sample, bad, report) -> None:
    """Sampled ``score`` lines against one batched ``SeqFM.score`` call."""
    max_seq_len = state.model.config.max_seq_len
    payloads, histories, served, owners = [], [], [], []
    for line in sample:
        envelope, body = requests[line], bodies[line]
        if envelope["head"] != "score" or "error" in body:
            continue
        rows = envelope["payload"]
        results = body.get("results") if isinstance(rows, list) else [body.get("result")]
        rows = rows if isinstance(rows, list) else [rows]
        if results is None or len(results) != len(rows):
            bad.add(line)
            report.problem(f"line {line}: {len(rows)} payloads, malformed results")
            continue
        for row, result in zip(rows, results):
            payloads.append(row)
            histories.append(row["history"] if "history" in row
                             else stream.stored_history[line])
            served.append(result["score"])
            owners.append(line)
    if not payloads:
        return
    expected = state.model.score(_score_batch(payloads, histories, max_seq_len))
    for line, got, want in zip(owners, served, expected):
        if not abs(got - want) <= TOLERANCE:
            bad.add(line)
            report.problem(f"line {line}: score {got!r} != SeqFM.score {want!r}")


def _check_rank(state, requests, bodies, sample, bad, report) -> None:
    """Sampled ``rank-topk`` lines against the naive C-row ``SeqFM.score``."""
    max_seq_len = state.model.config.max_seq_len
    for line in sample:
        payload, result = requests[line]["payload"], bodies[line].get("result")
        if result is None:
            continue
        candidates = np.array(payload["candidates"], dtype=np.int64)
        dynamic, mask = pad_sequences([payload["history"]], max_seq_len)
        scores = state.model.score(FeatureBatch.for_candidates(
            payload["static_indices"], candidates, dynamic[0], mask[0]))
        order = np.argsort(-scores, kind="stable")[: payload["k"]]
        if result["candidates"] != candidates[order].tolist() \
                or not _close(result["scores"], scores[order]):
            bad.add(line)
            report.problem(f"line {line}: top-k differs from the per-candidate ranking")


def _check_recommend(state, sizes, requests, bodies, sample, bad, report) -> None:
    """Sampled ``recommend`` lines: exact scores, and recall vs brute force."""
    engine = state.entry.engine
    catalog = np.arange(sizes["users"], sizes["users"] + sizes["items"], dtype=np.int64)
    recalls = []
    for line in sample:
        payload, result = requests[line]["payload"], bodies[line].get("result")
        if result is None:
            continue
        profile, history = payload["static_indices"], payload["history"]
        returned = np.array(result["candidates"], dtype=np.int64)
        if not _close(result["scores"], engine.rank_candidates(profile, returned, history)):
            bad.add(line)
            report.problem(f"line {line}: scores differ from engine.rank_candidates")
        plan = engine.prepare_ranking(profile, history)
        exact = np.concatenate([
            engine.rank_candidates(profile, catalog[start:start + _BRUTE_FORCE_CHUNK], plan=plan)
            for start in range(0, catalog.size, _BRUTE_FORCE_CHUNK)
        ])
        best = catalog[np.argsort(-exact, kind="stable")[: payload["k"]]]
        recalls.append(recall_at(best, returned))
    if recalls:
        report.recall = float(np.mean(recalls))
        if report.recall < RECALL_FLOOR - 1e-9:
            bad.update(sample)
            report.problem(f"recommend recall {report.recall:.3f} < {RECALL_FLOOR}")


def check_serve(sizes: Sizes, state: ServeState, stream: ServeStream,
                passes: Sequence[PassResult]) -> OracleReport:
    """Check every pass against the first, and the first against the oracle."""
    report = OracleReport()
    requests = [json.loads(line) for line in stream.lines]
    reference = passes[0].responses
    bad = set()   # lines of the reference pass that are wrong in themselves
    bodies = []
    for line, text in enumerate(reference):
        body = json.loads(text)
        bodies.append(body)
        if "error" in body:
            bad.add(line)
            report.problem(f"line {line}: error body {body['error']}")
        elif body.get("id") != requests[line]["id"]:
            bad.add(line)
            report.problem(f"line {line}: id {body.get('id')!r} not echoed")

    stride = sizes["oracle_stride"]
    sample = [line for line in range(stride - 1, len(bodies), stride)]
    report.sampled = len(sample)
    head = stream.heads[-1]
    if head == "score":
        _check_scores(state, stream, requests, bodies, sample, bad, report)
    elif head == "rank-topk":
        _check_rank(state, requests, bodies, sample, bad, report)
    else:
        _check_recommend(state, sizes, requests, bodies, sample, bad, report)

    for number, result in enumerate(passes):
        report.attempted += result.requests
        unanswered = result.requests - len(result.responses)
        if unanswered:
            report.problem(f"pass {number}: {unanswered} lines never answered")
        if result.responses == reference:
            differing = 0
        else:
            differing = sum(
                1 for line, text in enumerate(result.responses)
                if line >= len(reference) or text != reference[line])
            report.problem(f"pass {number}: {differing} lines differ from pass 0")
        report.failed += unanswered + differing + len(bad)
        if result.recovered_identical is False:
            report.failed += 1
            report.problem(f"pass {number}: recovered store differs from the abandoned one")
        if result.store_entries is not None and result.store_entries != stream.final_store:
            report.failed += 1
            report.problem(f"pass {number}: store contents differ from the updates sent")
    report.failed = min(report.failed, report.attempted)
    return report


def check_train(passes: Sequence[PassResult]) -> OracleReport:
    """Every epoch loss finite and bit-identical to the first pass's."""
    report = OracleReport(attempted=len(passes), sampled=len(passes))
    for number, result in enumerate(passes):
        if result.loss is None or not math.isfinite(result.loss) \
                or result.loss != passes[0].loss:
            report.failed += 1
            report.problem(f"pass {number}: loss {result.loss!r} vs {passes[0].loss!r}")
    return report
