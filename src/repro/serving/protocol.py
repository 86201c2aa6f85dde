"""The serving protocol: versioned envelopes, declarative heads, stable errors.

Before this module existed every serving head was wired by hand in four
places — a bespoke ``parse_*`` function, an ``if head == ...`` branch in the
stream/batch front-ends, a dedicated :class:`~repro.serving.batcher.MicroBatcher`
method and a dedicated CLI subcommand.  The protocol collapses that into three
declarative pieces:

* an **envelope** — the one wire format every request travels in::

      {"v": 1, "head": "rank-topk", "model": "seqfm", "id": 7,
       "payload": {"static_indices": [4, 0], "candidates": [17, 21], "k": 2}}

  ``payload`` is a single request object or a list scored as one batch;
  ``head`` and ``model`` default to the server's configuration; ``id`` is an
  opaque correlation value echoed in the response.  Bare pre-envelope payloads
  (and bare lists of them) are auto-upgraded to v1 with the defaults, so every
  pre-protocol client keeps working — and keeps receiving the pre-protocol
  response shapes.  Unknown versions are rejected with a structured error,
  never guessed at.

* a **head** — one serving endpoint as an object
  (:class:`Head`): ``parse(payload, defaults)`` builds the request,
  ``execute(batcher, requests)`` answers it, ``serialize(result)`` renders one
  wire result.  Heads are registered in a :class:`HeadRegistry`; the stream
  server, the batch scorer, :meth:`repro.serving.registry.RegisteredModel.batcher`,
  :meth:`repro.serving.registry.ModelRegistry.serve` and the CLI all dispatch
  through it generically, so a new head is one registration, not a five-file
  surgery.

* **structured errors** — every failure is
  ``{"error": {"code": ..., "message": ..., "line": ...}}`` with a stable
  machine-readable code (:data:`ERROR_CODES`), never a bare free-text string.

On top of the envelope sit two capabilities the hardwired design could not
express: the stateful ``update`` head (append interaction events to a user's
server-side sequence, closing the recommend → click → update → recommend
loop) and per-request **model routing** — a mixed JSONL stream may target any
registered model via the envelope's ``model`` field, with
:class:`ServingRouter` grouping traffic per (model, head) and scoring
each line as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.serving.batcher import (
    MicroBatcher,
    RankedCandidates,
    RankRequest,
    ScoreColumns,
    ScoreRequest,
)

#: The one protocol version this server speaks.
PROTOCOL_VERSION = 1

#: Envelope keys a v1 document may carry; anything else is a client typo the
#: server rejects instead of silently ignoring ("haed": "classify").
ENVELOPE_KEYS = frozenset({"v", "head", "model", "id", "payload"})

#: Keys whose presence marks a dict as an envelope (attempt).  ``id`` is
#: deliberately absent: it was plausible client-side metadata on bare v0
#: payloads (where unknown keys were always ignored), so keying on it would
#: turn previously-served requests into errors.  ``head``/``model`` were
#: never valid v0 payload fields — a document carrying them without
#: ``payload`` is a broken envelope, not a legacy request.
ENVELOPE_MARKER_KEYS = frozenset({"v", "payload", "head", "model"})

# --------------------------------------------------------------------------- #
# Stable error codes
# --------------------------------------------------------------------------- #
#: The input line was not valid JSON at all.
ERR_BAD_JSON = "bad_json"
#: The document was JSON but not a well-formed envelope or request.
ERR_BAD_ENVELOPE = "bad_envelope"
#: The envelope named a protocol version this server does not speak.
ERR_UNSUPPORTED_VERSION = "unsupported_version"
#: The envelope named a head no :class:`HeadRegistry` entry answers.
ERR_UNKNOWN_HEAD = "unknown_head"
#: The envelope named a model the :class:`~repro.serving.registry.ModelRegistry`
#: does not hold.
ERR_UNKNOWN_MODEL = "unknown_model"
#: The payload failed head-specific validation (missing fields, wrong types,
#: out-of-range values such as ``k < 1`` or empty candidate lists).
ERR_BAD_REQUEST = "bad_request"
#: The request parsed cleanly but the model could not answer it (for example
#: an out-of-vocabulary index surfacing from the engine).
ERR_EXECUTION = "execution_error"

#: Every code a response's ``error.code`` field may carry — the stable,
#: client-facing contract; messages may be reworded, codes may not.
ERROR_CODES = (
    ERR_BAD_JSON,
    ERR_BAD_ENVELOPE,
    ERR_UNSUPPORTED_VERSION,
    ERR_UNKNOWN_HEAD,
    ERR_UNKNOWN_MODEL,
    ERR_BAD_REQUEST,
    ERR_EXECUTION,
)


class ProtocolError(ValueError):
    """A protocol-level failure with a stable machine-readable code.

    Subclasses :class:`ValueError` so every pre-protocol ``except ValueError``
    call site keeps catching it.
    """

    def __init__(self, code: str, message: str):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        self.code = code
        super().__init__(message)


def error_response(
    code: str,
    message: str,
    line: Optional[int] = None,
    request_id: Any = None,
) -> dict:
    """The structured error body a failed request is answered with."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    error: Dict[str, Any] = {"code": code, "message": message}
    if line is not None:
        error["line"] = line
    if request_id is not None:
        error["id"] = request_id
    return {"error": error}


# --------------------------------------------------------------------------- #
# Envelope
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServeDefaults:
    """Server-side defaults a head's ``parse`` may fall back on.

    Attributes
    ----------
    k:
        Default top-K cut for ranking/recommendation requests without their
        own ``"k"``.
    n_retrieve:
        Default retrieval fan-out for recommendation requests.
    stored_history:
        When true, a request that *omits* ``"history"`` reads the user's
        server-side sequence (:class:`~repro.serving.cache.UserSequenceStore`)
        instead of an empty one — the v1-envelope semantic that makes the
        ``update`` head useful.  Bare v0 payloads keep the historical
        missing-means-empty behaviour.  An explicit ``"history": null``
        requests the stored sequence under either version.
    """

    k: Optional[int] = None
    n_retrieve: Optional[int] = None
    stored_history: bool = False


@dataclass(frozen=True)
class Envelope:
    """One parsed wire document: where it routes and what it carries.

    ``payloads`` always holds dicts — a single-request document becomes a
    one-element tuple with ``batched=False``, so downstream code never
    branches on the wire shape.  ``legacy`` marks a bare (pre-envelope)
    document that was auto-upgraded; its response must keep the pre-protocol
    shape.
    """

    head: str
    model: Optional[str]
    payloads: Tuple[dict, ...]
    batched: bool
    request_id: Any = None
    v: int = PROTOCOL_VERSION
    legacy: bool = False


def parse_envelope(
    document: Any,
    default_head: str = "score",
    default_model: Optional[str] = None,
) -> Envelope:
    """Parse one wire document into an :class:`Envelope`.

    A dict carrying any :data:`ENVELOPE_MARKER_KEYS` entry (``v`` /
    ``payload`` / ``head`` / ``model``) is treated as a versioned envelope —
    a document that names a head or model but forgets ``payload`` gets a
    structured error, never a silent mis-route to the default head.  Any
    other dict (and any list of dicts) is a bare pre-envelope payload,
    auto-upgraded to v1 with the server's default head and model; its
    unknown keys (including ``id``) are ignored exactly as the pre-protocol
    parsers ignored them.  Raises :class:`ProtocolError` with a stable code
    on malformed documents and unsupported versions.
    """
    if isinstance(document, list):
        return Envelope(head=default_head, model=default_model,
                        payloads=_payload_tuple(document), batched=True,
                        legacy=True)
    if not isinstance(document, dict):
        raise ProtocolError(
            ERR_BAD_ENVELOPE,
            f"a request document must be a JSON object or list, got "
            f"{type(document).__name__}",
        )
    if not any(key in document for key in ENVELOPE_MARKER_KEYS):
        return Envelope(head=default_head, model=default_model,
                        payloads=(document,), batched=False, legacy=True)

    version = document.get("v", PROTOCOL_VERSION)
    if isinstance(version, bool) or not isinstance(version, int) \
            or version != PROTOCOL_VERSION:
        raise ProtocolError(
            ERR_UNSUPPORTED_VERSION,
            f"unsupported envelope version {version!r}; this server speaks "
            f"v{PROTOCOL_VERSION}",
        )
    unknown = sorted(set(document) - ENVELOPE_KEYS)
    if unknown:
        raise ProtocolError(
            ERR_BAD_ENVELOPE,
            f"unknown envelope field(s) {unknown}; expected a subset of "
            f"{sorted(ENVELOPE_KEYS)}",
        )
    if "payload" not in document:
        raise ProtocolError(ERR_BAD_ENVELOPE, "envelope is missing 'payload'")
    head = document.get("head", default_head)
    if not isinstance(head, str):
        raise ProtocolError(ERR_BAD_ENVELOPE, "'head' must be a string")
    model = document.get("model", default_model)
    if model is not None and not isinstance(model, str):
        raise ProtocolError(ERR_BAD_ENVELOPE, "'model' must be a string")

    payload = document["payload"]
    if isinstance(payload, dict):
        payloads, batched = (payload,), False
    elif isinstance(payload, list):
        payloads, batched = _payload_tuple(payload), True
    else:
        raise ProtocolError(
            ERR_BAD_ENVELOPE,
            "'payload' must be a request object or a list of request objects",
        )
    return Envelope(head=head, model=model, payloads=payloads, batched=batched,
                    request_id=document.get("id"), v=version, legacy=False)


def _payload_tuple(documents: Sequence[Any]) -> Tuple[dict, ...]:
    for position, item in enumerate(documents):
        if not isinstance(item, dict):
            raise ProtocolError(
                ERR_BAD_REQUEST,
                f"every request in a batch must be a JSON object; element "
                f"{position} is {type(item).__name__}",
            )
    return tuple(documents)


# --------------------------------------------------------------------------- #
# Payload field helpers (shared by every head's parse)
# --------------------------------------------------------------------------- #
def require_mapping(payload: Any, head: str) -> dict:
    if not isinstance(payload, dict):
        raise ProtocolError(
            ERR_BAD_REQUEST,
            f"a {head} request must be a JSON object, got "
            f"{type(payload).__name__}",
        )
    return payload


def parse_int(value: Any, key: str) -> int:
    """An integer field: ints, integral floats (``2.0``) and numeric strings."""
    if isinstance(value, bool) or isinstance(value, (list, tuple, dict)):
        raise ProtocolError(ERR_BAD_REQUEST, f"{key!r} must be an integer")
    try:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        return int(value)
    except (TypeError, ValueError):
        raise ProtocolError(ERR_BAD_REQUEST, f"{key!r} must be an integer, "
                                             f"got {value!r}") from None


def is_int_list(value: Any) -> bool:
    """Whether ``value`` is a list/tuple of exact ``int``s (one C-level pass)."""
    return type(value) in (list, tuple) and set(map(type, value)) <= {int}


def parse_int_list(value: Any, key: str) -> List[int]:
    if is_int_list(value):
        return list(value)
    if isinstance(value, (str, bytes)) or not isinstance(value, (list, tuple)):
        raise ProtocolError(ERR_BAD_REQUEST, f"{key!r} must be a list of integers")
    return [parse_int(item, key) for item in value]


def parse_history(payload: dict, defaults: ServeDefaults) -> Optional[List[int]]:
    """The request's history — ``None`` means "use the server-side sequence"."""
    missing = None if defaults.stored_history else ()
    history = payload.get("history", missing)
    if history is None:
        return None
    return parse_int_list(history, "history")


def parse_positive_int(payload: dict, key: str,
                       default: Optional[int] = None) -> Optional[int]:
    """An optional ≥ 1 integer field: the request's value, else ``default``.

    The shared validation of every bounded-size knob a head may carry
    (``k``, ``n_retrieve``, ...); rejects 0/negative values with a clear
    ``bad_request`` error instead of silently returning empty results.
    """
    value = payload.get(key, default)
    if value is None:
        return None
    value = parse_int(value, key)
    if value < 1:
        raise ProtocolError(ERR_BAD_REQUEST, f"{key!r} must be >= 1, got {value}")
    return value


def parse_topk_cut(payload: dict, defaults: ServeDefaults) -> Optional[int]:
    """The validated top-K cut (request value, else the serve default)."""
    return parse_positive_int(payload, "k", defaults.k)


# --------------------------------------------------------------------------- #
# Heads
# --------------------------------------------------------------------------- #
class Head:
    """One serving endpoint, declaratively.

    A head owns everything endpoint-specific: how a payload becomes a request
    object (``parse``), how a micro-batcher answers a parsed batch
    (``execute``), how one result renders on the wire (``serialize``), which
    engine callable its batcher scores through (``score_fn``), and its
    response/stats shapes.  Registering a subclass in a :class:`HeadRegistry`
    is the *entire* integration surface — the stream server, batch scorer,
    registry endpoint and CLI pick it up generically.
    """

    #: Wire name of the head (the envelope's ``"head"`` value).
    name: str = ""

    #: Heads answering about the *server* rather than a model (``status``)
    #: set this; routers then call :meth:`execute_with_router` instead of
    #: building a micro-batcher.
    wants_router: bool = False

    # -- model binding ------------------------------------------------- #
    def validate_entry(self, entry) -> None:
        """Reject models that cannot answer this head (override to check)."""

    def score_fn(self, entry):
        """The engine callable the head's micro-batcher drives."""
        return entry.engine.score

    # -- request lifecycle --------------------------------------------- #
    def parse(self, payload: dict, defaults: ServeDefaults):
        """Build the head's request object from one JSON payload."""
        raise NotImplementedError

    def parse_all(self, payloads: Sequence[dict], defaults: ServeDefaults):
        """Parse a line's payloads into what :meth:`execute` takes."""
        return [self.parse(payload, defaults) for payload in payloads]

    def execute(self, batcher: MicroBatcher, requests: Sequence) -> List:
        """Answer a parsed batch through ``batcher``, results in order."""
        raise NotImplementedError

    def execute_with_router(self, router: "ServingRouter",
                            requests: Sequence) -> List:
        """Answer a batch with router context (``wants_router`` heads only)."""
        raise NotImplementedError

    def serialize(self, result) -> dict:
        """Render one result as its v1 wire object."""
        raise NotImplementedError

    # -- response shaping ---------------------------------------------- #
    def rows(self, results: Sequence) -> int:
        """Result rows a batch emitted (the :class:`ServeSummary` currency)."""
        return len(results)

    def legacy_response(self, results: Sequence, batched: bool):
        """The pre-envelope response body (bare v0 documents only)."""
        serialized = [self.serialize(result) for result in results]
        return {"results": serialized} if batched else serialized[0]

    def batch_payload(self, results: Sequence) -> dict:
        """The result block of a one-shot batch response."""
        return {"results": [self.serialize(result) for result in results]}

    def batch_stats(self, batcher: MicroBatcher, entry, cache, results) -> dict:
        """The stats block of a one-shot batch response."""
        return {"requests": batcher.stats.requests,
                **cache_stats_payload(cache)}

    def describe(self, response: dict) -> str:
        """One operator-facing line summarising a batch response."""
        return f"{len(response.get('results', ()))} results"


def cache_stats_payload(cache) -> dict:
    """The cache block every batch response's ``stats`` carries."""
    return {
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_hit_rate": cache.hit_rate,
        "cache_evictions": cache.evictions,
    }


def cache_summary(stats: dict) -> str:
    return (f"cache hit rate {stats['cache_hit_rate']:.2f}, "
            f"{stats['cache_evictions']} evictions")


class ScoringHead(Head):
    """A one-score-per-request head bound to one engine endpoint.

    Covers ``score`` / ``rank`` (raw scores), ``classify`` (σ(ŷ)) and
    ``regress`` (predicted ratings) — identical wiring, different engine
    callable.
    """

    def __init__(self, name: str, endpoint: str):
        self.name = name
        self._endpoint = endpoint

    def score_fn(self, entry):
        return getattr(entry.engine, self._endpoint)

    def parse(self, payload: dict, defaults: ServeDefaults) -> ScoreRequest:
        payload = require_mapping(payload, self.name)
        if "static_indices" not in payload:
            raise ProtocolError(ERR_BAD_REQUEST,
                                "request is missing 'static_indices'")
        return ScoreRequest(
            static_indices=parse_int_list(payload["static_indices"], "static_indices"),
            history=parse_history(payload, defaults),
            user_id=parse_int(payload.get("user_id", -1), "user_id"),
            object_id=parse_int(payload.get("object_id", -1), "object_id"),
        )

    def parse_all(self, payloads: Sequence[dict], defaults: ServeDefaults) -> ScoreColumns:
        """A line's payloads as one :class:`ScoreColumns`.  A canonical payload
        (exact ``int`` ids, lists of exact ``int``s) is taken as is; any other
        goes through :meth:`parse`, which owns every coercion and error."""
        missing = None if defaults.stored_history else ()
        rows = []
        for payload in payloads:
            if type(payload) is dict:
                row = static, history, user_id, object_id = (
                    payload.get("static_indices"), payload.get("history", missing),
                    payload.get("user_id", -1), payload.get("object_id", -1))
                if type(user_id) is int and type(object_id) is int and is_int_list(static) \
                        and (history is None or is_int_list(history)):
                    rows.append(row)
                    continue
            request = self.parse(payload, defaults)
            rows.append((request.static_indices, request.history, request.user_id,
                         request.object_id))
        return ScoreColumns(*zip(*rows))

    def execute(self, batcher: MicroBatcher, requests) -> List[float]:
        return batcher.score_all(requests).tolist()

    def serialize(self, result: float) -> dict:
        return {"score": result}

    def legacy_response(self, results: Sequence, batched: bool) -> dict:
        return {"scores": list(results)}

    def batch_payload(self, results: Sequence) -> dict:
        return {"scores": list(results)}

    def batch_stats(self, batcher, entry, cache, results) -> dict:
        return {
            "requests": batcher.stats.requests,
            "batches": batcher.stats.batches,
            "mean_batch_size": batcher.stats.mean_batch_size,
            **cache_stats_payload(cache),
        }

    def describe(self, response: dict) -> str:
        return f"{len(response['scores'])} scores"


class RankedListHead(Head):
    """Shared shape of the candidate-list heads (``rank-topk``, ``recommend``):
    one :class:`~repro.serving.batcher.RankedCandidates` result per request."""

    def serialize(self, result: RankedCandidates) -> dict:
        return {"candidates": [int(candidate) for candidate in result.candidates],
                "scores": [float(score) for score in result.scores]}

    def rows(self, results: Sequence) -> int:
        return sum(len(result) for result in results)


class RankTopKHead(RankedListHead):
    """Candidate-list ranking through the deduplicated fast path."""

    name = "rank-topk"

    def parse(self, payload: dict, defaults: ServeDefaults) -> RankRequest:
        payload = require_mapping(payload, self.name)
        for key in ("static_indices", "candidates"):
            if key not in payload:
                raise ProtocolError(ERR_BAD_REQUEST,
                                    f"ranking request is missing {key!r}")
        candidates = parse_int_list(payload["candidates"], "candidates")
        if not candidates:
            raise ProtocolError(ERR_BAD_REQUEST,
                                "'candidates' must be a non-empty list")
        return RankRequest(
            static_indices=parse_int_list(payload["static_indices"], "static_indices"),
            candidates=candidates,
            history=parse_history(payload, defaults),
            user_id=parse_int(payload.get("user_id", -1), "user_id"),
            k=parse_topk_cut(payload, defaults),
        )

    def execute(self, batcher: MicroBatcher, requests: Sequence) -> List[RankedCandidates]:
        return batcher.rank_all(requests)

    def batch_stats(self, batcher, entry, cache, results) -> dict:
        return {
            "requests": batcher.stats.requests,
            "candidates_ranked": batcher.stats.rows_scored,
            **cache_stats_payload(cache),
        }

    def describe(self, response: dict) -> str:
        stats = response["stats"]
        return (f"ranked {stats['candidates_ranked']} candidates across "
                f"{stats['requests']} requests ({cache_summary(stats)})")


@dataclass(frozen=True)
class UpdateRequest:
    """One state update: interaction events to append to a user's sequence."""

    user_id: int
    events: Tuple[int, ...]


class UpdateHead(Head):
    """The stateful head: append events to the server-side user sequence.

    Closes the online loop the read-only heads cannot: recommend → the user
    clicks → ``update`` appends the click → the next request that *omits*
    its history (v1 semantic) is answered against the updated sequence.
    State lives in the model's :class:`~repro.serving.cache.UserSequenceStore`,
    so capacity eviction and TTL expiry bound its footprint.
    """

    name = "update"

    def parse(self, payload: dict, defaults: ServeDefaults) -> UpdateRequest:
        payload = require_mapping(payload, self.name)
        if "user_id" not in payload:
            raise ProtocolError(ERR_BAD_REQUEST,
                                "update request is missing 'user_id'")
        if "events" not in payload:
            raise ProtocolError(ERR_BAD_REQUEST,
                                "update request is missing 'events'")
        user_id = parse_int(payload["user_id"], "user_id")
        if user_id < 0:
            raise ProtocolError(ERR_BAD_REQUEST,
                                f"'user_id' must be >= 0, got {user_id}")
        events = parse_int_list(payload["events"], "events")
        if not events:
            raise ProtocolError(ERR_BAD_REQUEST,
                                "'events' must be a non-empty list")
        return UpdateRequest(user_id=user_id, events=tuple(events))

    def execute(self, batcher: MicroBatcher, requests: Sequence) -> List[dict]:
        store = batcher.sequence_store
        if store is None:
            raise ProtocolError(
                ERR_BAD_REQUEST,
                "the update head needs a user-sequence store; this batcher "
                "has none attached",
            )
        results = []
        for request in requests:
            entry = store.record(request.user_id, request.events)
            results.append({
                "user_id": request.user_id,
                "appended": len(request.events),
                "history_len": len(entry.fingerprint),
            })
        return results

    def serialize(self, result: dict) -> dict:
        return result

    def rows(self, results: Sequence) -> int:
        return sum(result["appended"] for result in results)

    def batch_stats(self, batcher, entry, cache, results) -> dict:
        return {
            "requests": len(results),
            "events_appended": self.rows(results),
            "users_resident": len(entry.sequence_store),
            **cache_stats_payload(cache),
        }

    def describe(self, response: dict) -> str:
        stats = response["stats"]
        return (f"appended {stats['events_appended']} events across "
                f"{stats['requests']} users ({stats['users_resident']} resident)")


class StatusHead(Head):
    """The operational-state head: answer about the server, not a model.

    One request, one payload (an empty mapping — reserved keys may arrive
    later), one result: the router's :meth:`ServingRouter.status_payload` —
    per-model store residency, cache and WAL/durability counters, the
    retrieval backend and the retrain lineage.  Per-code error counts come
    from the serve loop's summary when one is attached.
    """

    name = "status"
    wants_router = True

    def parse(self, payload: dict, defaults: ServeDefaults) -> dict:
        return require_mapping(payload, self.name)

    def execute(self, batcher: MicroBatcher, requests: Sequence) -> List:
        raise ProtocolError(
            ERR_BAD_REQUEST,
            "the status head reports server state and is only served by the "
            "streaming endpoints (serve); it has no one-shot batch form",
        )

    def execute_with_router(self, router: "ServingRouter",
                            requests: Sequence) -> List[dict]:
        payload = router.status_payload()
        return [payload for _ in requests]

    def serialize(self, result: dict) -> dict:
        return result

    def rows(self, results: Sequence) -> int:
        return 0  # status answers carry no scored rows

    def describe(self, response: dict) -> str:
        models = response.get("result", {}).get("models", {})
        return f"status over {len(models)} models"


# --------------------------------------------------------------------------- #
# Registry of heads
# --------------------------------------------------------------------------- #
class HeadRegistry:
    """Named heads, dispatched by every serving front-end.

    Registration order is preserved (it is the order operators see in error
    messages and docs).  Registering over an existing name requires
    ``overwrite=True`` — the same silent-replacement guard the model registry
    applies.
    """

    def __init__(self, heads: Sequence[Head] = ()):
        self._heads: Dict[str, Head] = {}
        for head in heads:
            self.register(head)

    def register(self, head: Head, overwrite: bool = False) -> Head:
        if not head.name:
            raise ValueError("a head must declare a non-empty name")
        if head.name in self._heads and not overwrite:
            raise ValueError(
                f"a head is already registered as {head.name!r}; pass "
                "overwrite=True to replace it"
            )
        self._heads[head.name] = head
        return head

    def get(self, name: str) -> Head:
        if name not in self._heads:
            raise ProtocolError(
                ERR_UNKNOWN_HEAD,
                f"unknown head {name!r}; expected one of {self.names()}",
            )
        return self._heads[name]

    def names(self) -> Tuple[str, ...]:
        return tuple(self._heads)

    def __contains__(self, name: str) -> bool:
        return name in self._heads

    def __iter__(self) -> Iterator[Head]:
        return iter(self._heads.values())

    def __len__(self) -> int:
        return len(self._heads)


_DEFAULT_HEADS: Optional[HeadRegistry] = None


def default_heads() -> HeadRegistry:
    """The process-wide registry holding every built-in head.

    Built lazily so that importing :mod:`repro.serving` does not drag the
    retrieval subsystem in; the ``recommend`` head lives with the pipeline it
    drives (:mod:`repro.retrieval.pipeline`) and registers here on first use.
    """
    global _DEFAULT_HEADS
    if _DEFAULT_HEADS is None:
        from repro.retrieval.pipeline import RecommendHead

        _DEFAULT_HEADS = HeadRegistry([
            ScoringHead("score", "score"),
            ScoringHead("rank", "score"),
            ScoringHead("classify", "classify"),
            ScoringHead("regress", "regress"),
            RankTopKHead(),
            RecommendHead(),
            UpdateHead(),
            StatusHead(),
        ])
    return _DEFAULT_HEADS


# --------------------------------------------------------------------------- #
# Router
# --------------------------------------------------------------------------- #
def render_response(envelope: Envelope, head: Head, results: Sequence):
    """The response body for one answered envelope.

    Legacy (auto-upgraded v0) documents get the pre-protocol shapes; v1
    envelopes get the versioned response mirror — ``result`` for a single
    payload, ``results`` for a batched one, ``id`` echoed when present.
    """
    if envelope.legacy:
        return head.legacy_response(results, envelope.batched)
    body: Dict[str, Any] = {"v": PROTOCOL_VERSION, "head": head.name}
    if envelope.model is not None:
        body["model"] = envelope.model
    if envelope.request_id is not None:
        body["id"] = envelope.request_id
    serialized = [head.serialize(result) for result in results]
    if envelope.batched:
        body["results"] = serialized
    else:
        body["result"] = serialized[0]
    return body


class ServingRouter:
    """Dispatch envelopes to (model, head) groups, one micro-batcher each.

    The router is the per-request-routing half of the protocol: a mixed
    stream may interleave envelopes targeting any registered model and head;
    each distinct (model, head) pair lazily gets its own
    :class:`~repro.serving.batcher.MicroBatcher` (sharing the model's
    engine and user-sequence store) and its counters; each line is scored
    as its own batch.
    """

    def __init__(
        self,
        registry,
        default_model: Optional[str] = None,
        heads: Optional[HeadRegistry] = None,
        max_batch_size: int = 256,
        defaults: ServeDefaults = ServeDefaults(),
    ):
        self.registry = registry
        self.default_model = default_model
        self.heads = heads if heads is not None else default_heads()
        self.max_batch_size = max_batch_size
        self.defaults = defaults
        #: (model, head) → (entry, its retriever at build time, batcher);
        #: the first two validate cache freshness against the registry.
        self._batchers: Dict[Tuple[str, str], Tuple[Any, Any, MicroBatcher]] = {}

    def batcher_for(self, model: Optional[str], head_name: str):
        """The (entry, batcher) pair serving one (model, head) group.

        Created on first use, then reused so a group's counters accumulate
        — but never served stale: a cached pair is
        dropped and rebuilt when the registry's entry for the name was
        replaced (``register(overwrite=True)``) or its retrieval pipeline
        swapped (index rebuild / hot-swap), so a long-lived router always
        answers with the currently registered model.  Propagates the
        underlying lookup errors (`ProtocolError`/:class:`KeyError`) —
        callers serving a stream convert them to structured error lines,
        callers validating a configuration let them raise.
        """
        name = model if model is not None else self.default_model
        if name is None:
            raise ProtocolError(
                ERR_UNKNOWN_MODEL,
                "the envelope names no model and the router has no default",
            )
        head = self.heads.get(head_name)
        key = (name, head.name)
        entry = self.registry.get(name)
        cached = self._batchers.get(key)
        if cached is not None and cached[0] is entry \
                and cached[1] is entry.retriever:
            return cached[0], cached[2]
        batcher = entry.batcher(max_batch_size=self.max_batch_size,
                                head=head.name, heads=self.heads)
        self._batchers[key] = (entry, entry.retriever, batcher)
        return entry, batcher

    def defaults_for(self, envelope: Envelope) -> ServeDefaults:
        """The parse defaults one envelope's payloads see.

        v1 envelopes get the stored-history semantic (a request omitting
        ``history`` reads the server-side sequence); auto-upgraded legacy
        documents keep the historical missing-means-empty behaviour.
        """
        defaults = self.defaults
        if not envelope.legacy and not defaults.stored_history:
            defaults = ServeDefaults(k=defaults.k, n_retrieve=defaults.n_retrieve,
                                     stored_history=True)
        return defaults

    def parse_requests(self, head: Head, envelope: Envelope):
        """Parse every payload of ``envelope`` through ``head``, in one call."""
        return head.parse_all(envelope.payloads, self.defaults_for(envelope))

    def execute(self, envelope: Envelope):
        """Answer one envelope; returns ``(response_body, rows, head)``.

        Raises :class:`ProtocolError` for protocol-level failures (unknown
        head/model, bad payloads); execution errors out of the engine
        propagate as-is for the caller's error policy.
        """
        head = self.heads.get(envelope.head)
        if head.wants_router:
            requests = self.parse_requests(head, envelope)
            results = head.execute_with_router(self, requests)
            return render_response(envelope, head, results), head.rows(results), head
        try:
            _, batcher = self.batcher_for(envelope.model, envelope.head)
        except KeyError as error:
            raise ProtocolError(ERR_UNKNOWN_MODEL, str(error.args[0])) from None
        requests = self.parse_requests(head, envelope)
        results = head.execute(batcher, requests)
        return render_response(envelope, head, results), head.rows(results), head

    def status_payload(self) -> dict:
        """The operational-state document the ``status`` head serves.

        Covers every registered model: store residency and cache counters,
        WAL/durability counters when the store is durable, the retrieval
        backend's ``n_probe`` dial, and — once the online promotion
        pipeline has attached a :class:`~repro.online.promotion.ModelLineage`
        — a ``retrain`` block with the version lineage (active tag,
        promoted/rejected counts, consumed cursor).  Serve loops attach
        their :class:`~repro.serving.service.ServeSummary` as
        ``router.summary`` so per-code error counts appear too.
        """
        models: Dict[str, dict] = {}
        for model_name in self.registry.names():
            entry = self.registry.get(model_name)
            store = entry.sequence_store
            stats = store.stats
            info: Dict[str, Any] = {
                "users_resident": len(store),
                "cache": {"hits": stats.hits, "misses": stats.misses,
                          "evictions": stats.evictions},
            }
            wal_status = getattr(store, "wal_status", None)
            if wal_status is not None:
                info["wal"] = wal_status()
            if entry.retriever is not None:
                searcher = getattr(entry.retriever, "searcher", None)
                info["index"] = {
                    "backend": type(searcher).__name__,
                    "n_probe": getattr(searcher, "n_probe", None),
                }
            lineage = getattr(entry, "lineage", None)
            if lineage is not None:
                info["retrain"] = lineage.status_payload()
            models[model_name] = info
        payload: Dict[str, Any] = {
            "models": models,
            "heads": list(self.heads.names()),
        }
        summary = getattr(self, "summary", None)
        if summary is not None:
            payload["stream"] = summary.counts()
        return payload
