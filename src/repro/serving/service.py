"""Request-file and stream front-ends over the serving protocol.

Two entry points, both driven by the serving subcommands of
:mod:`repro.experiments.cli` and both dispatching generically through the
:class:`~repro.serving.protocol.HeadRegistry` — neither knows anything
head-specific:

* :func:`execute_batch` — answer a collection of JSON requests through one
  (model, head) pair in one micro-batched pass (also exposed as
  :meth:`repro.serving.registry.ModelRegistry.serve`).
* :func:`serve_jsonl` — a line-oriented request/response loop: each input
  line is one wire document, each output line the matching response.  This is
  the transport-neutral core a network frontend can wrap; keeping it on file
  objects makes it fully testable without sockets.

The wire format is the versioned envelope of
:mod:`repro.serving.protocol`::

    {"v": 1, "head": "rank-topk", "model": "seqfm", "id": 7,
     "payload": {"static_indices": [4, 0], "candidates": [17, 21, 35],
                 "k": 2, "history": [3, 7, 12], "user_id": 42}}

``payload`` is one request object or a list answered as one batch; ``head``
and ``model`` default to the server's configuration, so the envelope can
route each line to any registered model and head.  Bare pre-envelope payloads
(and bare lists) are auto-upgraded to v1 and answered in the pre-envelope
response shapes, so old clients keep working unchanged.  Failures are
structured — ``{"error": {"code": ..., "message": ..., "line": ...}}`` with
the stable codes of :data:`repro.serving.protocol.ERROR_CODES`.

``static_indices``, ``candidates`` and ``history`` are model-vocabulary
indices — the mapping from raw ids is the job of
:class:`repro.data.features.FeatureEncoder` (see the README quickstart).  A
v1 request that *omits* ``history`` is answered against the user's
server-side sequence, maintained by the stateful ``update`` head::

    {"v": 1, "head": "update", "payload": {"user_id": 42, "events": [9]}}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Dict, Iterable, Optional

from repro.serving.cache import CacheStats
from repro.serving.protocol import (
    ERR_BAD_JSON,
    ERR_BAD_REQUEST,
    ERR_EXECUTION,
    Envelope,
    HeadRegistry,
    ProtocolError,
    ServeDefaults,
    ServingRouter,
    default_heads,
    error_response,
    parse_envelope,
)
from repro.serving.registry import ModelRegistry


def _cache_delta(before: CacheStats, after: CacheStats) -> CacheStats:
    """Cache counters attributable to one call, as a stats object."""
    return CacheStats(
        hits=after.hits - before.hits,
        misses=after.misses - before.misses,
        evictions=after.evictions - before.evictions,
    )


# --------------------------------------------------------------------------- #
# One-shot batch execution (the generic dispatcher)
# --------------------------------------------------------------------------- #
def execute_batch(
    registry: ModelRegistry,
    name: str,
    payloads: Iterable[dict],
    head: str = "score",
    k: Optional[int] = None,
    n_retrieve: Optional[int] = None,
    max_batch_size: int = 256,
    heads: Optional[HeadRegistry] = None,
) -> dict:
    """Answer a collection of JSON requests through one registered head.

    Every head flows through this one path: the
    :class:`~repro.serving.protocol.Head` object parses the payloads,
    executes them through the model's micro-batcher and shapes the response —
    results plus batching/cache statistics.  ``k``/``n_retrieve`` are
    defaults for requests without their own.
    """
    head_registry = heads if heads is not None else default_heads()
    head_obj = head_registry.get(head)
    payloads = list(payloads)
    if not payloads:
        raise ProtocolError(
            ERR_BAD_REQUEST, f"no requests for head {head_obj.name!r}"
        )
    defaults = ServeDefaults(k=k, n_retrieve=n_retrieve)
    requests = head_obj.parse_all(payloads, defaults)
    entry = registry.get(name)
    batcher = entry.batcher(max_batch_size=max_batch_size, head=head_obj.name,
                            heads=head_registry)
    cache_before = entry.sequence_store.stats
    results = head_obj.execute(batcher, requests)
    cache = _cache_delta(cache_before, entry.sequence_store.stats)
    return {
        "model": name,
        "head": head_obj.name,
        **head_obj.batch_payload(results),
        "stats": head_obj.batch_stats(batcher, entry, cache, results),
    }


# --------------------------------------------------------------------------- #
# Streaming front-end
# --------------------------------------------------------------------------- #
@dataclass
class ServeSummary:
    """What one :func:`serve_jsonl` run did, for operator-facing summaries.

    Attributes
    ----------
    rows:
        Result rows emitted: one per score for the scoring heads, one per
        returned (post-top-K-cut) ranked/recommended item for the list
        heads, one per appended event for the ``update`` head — the same
        meaning for every head.
    lines:
        Non-blank input lines consumed (served + errored).
    errors:
        Lines answered with a structured ``{"error": ...}`` response instead
        of a result.
    error_codes:
        How many errored lines carried each stable error code — the
        operator-facing breakdown (``{"bad_request": 2, "bad_json": 1}``).
    """

    rows: int = 0
    lines: int = 0
    errors: int = 0
    error_codes: Dict[str, int] = field(default_factory=dict)

    @property
    def served(self) -> int:
        """Lines that produced a real response."""
        return self.lines - self.errors

    def record_line(self, count: int = 1) -> None:
        """Count ``count`` consumed input lines."""
        self.lines += count

    def record_rows(self, rows: int) -> None:
        """Count one successfully answered line worth ``rows`` result rows."""
        self.rows += rows

    def record_error(self, code: str) -> None:
        self.errors += 1
        self.error_codes[code] = self.error_codes.get(code, 0) + 1

    def counts(self) -> Dict[str, object]:
        """A copy of every counter (the ``status`` head's view)."""
        return {
            "lines": self.lines,
            "rows": self.rows,
            "errors": self.errors,
            "error_codes": dict(self.error_codes),
        }


def serve_jsonl(
    registry: ModelRegistry,
    name: str,
    input_stream: IO[str],
    output_stream: IO[str],
    head: str = "score",
    max_batch_size: int = 256,
    k: Optional[int] = None,
    n_retrieve: Optional[int] = None,
    heads: Optional[HeadRegistry] = None,
) -> ServeSummary:
    """Serve JSONL requests until EOF; returns a :class:`ServeSummary`.

    Protocol: one JSON document per line — a v1 envelope, or a bare
    pre-envelope payload auto-upgraded to one (see
    :mod:`repro.serving.protocol`).  ``head`` and ``name`` are the defaults
    for documents that do not route themselves; an envelope's ``head`` /
    ``model`` fields may target any registered head and model per line, with
    a :class:`~repro.serving.protocol.ServingRouter` micro-batching each
    (model, head) group.  ``k`` / ``n_retrieve`` are the default top-K cut
    and retrieval fan-out for requests without their own.

    A malformed line — broken JSON, bad envelope, failed validation,
    out-of-range indices — is *skipped and reported*: it gets a structured
    ``{"error": {"code": ..., "message": ..., "line": ...}}`` response with
    the 1-based input line number, is counted (per code) in the summary, and
    the loop moves on.  Blank lines are ignored entirely (but numbered).
    """
    router = ServingRouter(
        registry, default_model=name,
        heads=heads if heads is not None else default_heads(),
        max_batch_size=max_batch_size,
        defaults=ServeDefaults(k=k, n_retrieve=n_retrieve),
    )
    # Fail fast on an unservable default route (unknown head or model,
    # recommend without an index) instead of erroring every line.  Router
    # heads (status) have no batcher to probe — heads.get still validates
    # the name.
    if not router.heads.get(head).wants_router:
        router.batcher_for(name, head)
    summary = ServeSummary()
    router.summary = summary  # the status head reports live stream counters
    for line_number, raw_line in enumerate(input_stream, start=1):
        line = raw_line.strip()
        if not line:
            continue
        summary.record_line()
        envelope: Optional[Envelope] = None
        try:
            try:
                document = json.loads(line)
            except ValueError as error:
                raise ProtocolError(ERR_BAD_JSON, f"invalid JSON: {error}") from None
            envelope = parse_envelope(document, default_head=head,
                                      default_model=name)
            response, rows, _ = router.execute(envelope)
        except ProtocolError as error:
            summary.record_error(error.code)
            response = _error_line(error.code, str(error), line_number, envelope)
        except (ValueError, KeyError, TypeError, IndexError, RuntimeError) as error:
            summary.record_error(ERR_EXECUTION)
            response = _error_line(ERR_EXECUTION, str(error), line_number, envelope)
        else:
            summary.record_rows(rows)
        output_stream.write(json.dumps(response) + "\n")
        output_stream.flush()
    return summary


def _error_line(code: str, message: str, line_number: int,
                envelope: Optional[Envelope]) -> dict:
    request_id = envelope.request_id if envelope is not None else None
    return error_response(code, message, line=line_number, request_id=request_id)
