"""The serving protocol's registries agree with each other, checked live.

Each registry is easy to extend and easy to extend *incompletely*: a head
class nobody registers, an ``ERR_*`` constant missing from the stable-code
contract, a head the CLI cannot route to, a store mutation whose journal op
recovery cannot replay, a retrain outcome nobody declared.  Nothing crashes;
clients meet a server that silently lacks an endpoint, or a restart rejects
its own log.  These tests read the objects the server runs with —
``default_heads()``, ``ERROR_CODES``, the ``serve`` parser, ``WAL_OPS``,
``RETRAIN_STATUSES`` — so they see exactly what a client would.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro.retrieval
import repro.serving
from repro.experiments.cli import COMMAND_HEADS, build_serving_parser
from repro.online.retrain import RETRAIN_STATUSES, RetrainReport
from repro.serving import UserSequenceStore, protocol
from repro.serving.durability import WAL_OPS
from repro.serving.protocol import (
    ERROR_CODES,
    Head,
    ProtocolError,
    default_heads,
    error_response,
)


# --------------------------------------------------------------------------- #
# (a) every named Head class in repro is a default head
# --------------------------------------------------------------------------- #
def _import_serving_modules() -> None:
    """Import every module that may define a head, so its classes exist."""
    for package in (repro.serving, repro.retrieval):
        for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
            importlib.import_module(info.name)


def _all_subclasses(cls):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from _all_subclasses(subclass)


def named_repro_heads():
    """``Head`` subclasses defined in ``repro.*`` with a class-level wire name.

    Name-parameterised heads (``ScoringHead``) and abstract bases carry no
    class-level ``name`` and are skipped; so are classes defined outside the
    package, such as test-local heads.
    """
    _import_serving_modules()
    return sorted({cls for cls in _all_subclasses(Head)
                   if cls.__module__.startswith("repro.")
                   and vars(cls).get("name")},
                  key=lambda cls: cls.__qualname__)


@pytest.mark.parametrize("head_class", [
    pytest.param(cls, id=cls.__qualname__) for cls in named_repro_heads()])
def test_named_head_class_is_a_default_head(head_class):
    heads = default_heads()
    assert head_class.name in heads, (
        f"{head_class.__module__}.{head_class.__qualname__} (wire name "
        f"{head_class.name!r}) is never registered in default_heads()")
    assert isinstance(heads.get(head_class.name), head_class)


def test_head_walk_finds_the_class_named_heads():
    found = {cls.name for cls in named_repro_heads()}
    assert {"rank-topk", "recommend", "update", "status"} <= found


def test_head_walk_ignores_classes_defined_outside_repro():
    class OutsideHead(Head):
        name = "outside"

    assert OutsideHead not in named_repro_heads()


# --------------------------------------------------------------------------- #
# (b) every ERR_* constant is a stable code, and nothing else is
# --------------------------------------------------------------------------- #
ERR_CONSTANTS = sorted(name for name, value in vars(protocol).items()
                       if name.startswith("ERR_") and isinstance(value, str))


@pytest.mark.parametrize("constant", ERR_CONSTANTS)
def test_error_constant_is_in_error_codes(constant):
    assert getattr(protocol, constant) in ERROR_CODES, (
        f"{constant} is missing from ERROR_CODES")


def test_error_codes_are_exactly_the_err_constants():
    values = [getattr(protocol, name) for name in ERR_CONSTANTS]
    assert sorted(ERROR_CODES) == sorted(values)
    assert len(set(ERROR_CODES)) == len(ERROR_CODES)


@pytest.mark.parametrize("code", ERROR_CODES)
def test_error_response_carries_a_declared_code(code):
    body = error_response(code, "message", line=3, request_id=7)
    assert body == {"error": {"code": code, "message": "message",
                              "line": 3, "id": 7}}


@pytest.mark.parametrize("make", [
    pytest.param(lambda: error_response("bad-requst", "typo"), id="error_response"),
    pytest.param(lambda: ProtocolError("bad-requst", "typo"), id="ProtocolError"),
])
def test_undeclared_error_code_never_reaches_the_wire(make):
    with pytest.raises(ValueError, match="unknown error code 'bad-requst'"):
        make()


# --------------------------------------------------------------------------- #
# (c) every default head is routable from the CLI
# --------------------------------------------------------------------------- #
def _serve_head_choices():
    parser = build_serving_parser("serve")
    action = next(action for action in parser._actions if action.dest == "head")
    return set(action.choices)


@pytest.mark.parametrize("head", default_heads().names())
def test_default_head_has_a_cli_route(head):
    routes = _serve_head_choices() | set(COMMAND_HEADS.values())
    assert head in routes, (
        f"head {head!r} is in neither 'serve --head' choices nor COMMAND_HEADS")


def test_every_cli_route_names_a_default_head():
    routes = _serve_head_choices() | set(COMMAND_HEADS.values())
    assert routes <= set(default_heads().names())


# --------------------------------------------------------------------------- #
# (d) the store journal emits exactly WAL_OPS
# --------------------------------------------------------------------------- #
class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def drive_every_mutator():
    """Every ``UserSequenceStore`` mutator through a recording journal."""
    clock = _Clock()
    store = UserSequenceStore(max_seq_len=4, capacity=2, ttl=10.0, clock=clock)
    records = []
    store.set_journal(records.append)
    store.record(1, [1])              # record
    store.append_event(1, 2)          # append
    store.encode(2, [5])              # put (re-encode on a miss)
    store.encode(2, [5])              # touch (read hit)
    store.invalidate(2)               # del
    clock.now = 20.0
    assert store.history(1) is None   # expire (TTL)
    store.record(3, [1])
    store.record(4, [1])
    store.record(5, [1])              # evict (capacity 2)
    store.clear()                     # clear
    return records


def test_journal_emits_exactly_the_wal_ops():
    emitted = {record["op"] for record in drive_every_mutator()}
    assert emitted - set(WAL_OPS) == set(), "emitted ops recovery cannot replay"
    assert set(WAL_OPS) - emitted == set(), "declared ops no mutator emits"


def test_every_emitted_record_replays():
    replica = UserSequenceStore(max_seq_len=4, capacity=2)
    for record in drive_every_mutator():
        replica.apply_journal(record)
    assert len(replica) == 0


def test_replay_rejects_an_undeclared_op():
    with pytest.raises(ValueError, match="unknown journal op"):
        UserSequenceStore(max_seq_len=4).apply_journal({"op": "wipe"})


# --------------------------------------------------------------------------- #
# (e) a retrain report carries a declared status
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("status", RETRAIN_STATUSES)
def test_declared_retrain_status_constructs(status):
    report = RetrainReport(status=status, model="m", start_seq=0, end_seq=0)
    assert report.as_dict()["status"] == status


def test_undeclared_retrain_status_raises():
    with pytest.raises(ValueError, match="RETRAIN_STATUSES"):
        RetrainReport(status="typo", model="m", start_seq=0, end_seq=0)
