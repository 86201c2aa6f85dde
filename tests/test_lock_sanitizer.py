"""The runtime lock sanitizer: unit contracts and the observed ⊆ static check.

The unit tests drive :class:`LockSanitizer` through explicitly named locks:
a deliberate inversion raises :class:`LockOrderViolation` online (with the
cycle spelled out), reentrant ``RLock`` use and same-identity siblings
record nothing, and consistent nesting never trips.  The integration tests
install the ``threading.Lock``/``RLock`` monkeypatch for real: repo-created
locks come back wrapped and named after their source identity, and a
durable-store workload's observed acquisition edges all appear in the
static graph.  The final, env-gated test is the ``make sanitize``
cross-validation over the whole instrumented session.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from repro.analysis import static_lock_edges
from repro.analysis.sanitizer import (
    LockOrderViolation,
    LockSanitizer,
    active_sanitizer,
    enabled_from_env,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------------- #
# Unit contracts, via explicitly named locks
# --------------------------------------------------------------------------- #
class TestSanitizerUnit:
    def test_deliberate_inversion_raises_with_the_cycle(self):
        sanitizer = LockSanitizer()
        a = sanitizer.named_lock("A._lock")
        b = sanitizer.named_lock("B._lock")
        with a:
            with b:
                pass
        with pytest.raises(LockOrderViolation) as excinfo:
            with b:
                with a:
                    pass
        message = str(excinfo.value)
        assert "A._lock" in message and "B._lock" in message
        assert "inversion" in message

    def test_violation_releases_the_lock_it_was_raised_from(self):
        sanitizer = LockSanitizer()
        a = sanitizer.named_lock("A._lock")
        b = sanitizer.named_lock("B._lock")
        with a:
            with b:
                pass
        with pytest.raises(LockOrderViolation):
            with b:
                with a:
                    pass
        # Neither lock is wedged: the failed acquisition rolled back.
        assert not a._real.locked() and not b._real.locked()

    def test_longer_cycle_through_three_locks_is_caught(self):
        sanitizer = LockSanitizer()
        a = sanitizer.named_lock("A._lock")
        b = sanitizer.named_lock("B._lock")
        c = sanitizer.named_lock("C._lock")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with pytest.raises(LockOrderViolation) as excinfo:
            with c:
                with a:
                    pass
        assert "C._lock" in str(excinfo.value)

    def test_consistent_order_never_trips(self):
        sanitizer = LockSanitizer()
        a = sanitizer.named_lock("A._lock")
        b = sanitizer.named_lock("B._lock")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert sanitizer.observed_edges() == [("A._lock", "B._lock")]

    def test_reentrant_rlock_records_no_edge(self):
        sanitizer = LockSanitizer()
        lock = sanitizer.named_lock("R._lock", kind="RLock")
        with lock:
            with lock:
                pass
        assert sanitizer.observed_edges() == []

    def test_same_identity_siblings_record_no_edge(self):
        # Two shard locks share the source identity 'Shard._lock'; nesting
        # them is ordered by shard id at runtime, which a name-level graph
        # cannot (and must not pretend to) distinguish.
        sanitizer = LockSanitizer()
        first = sanitizer.named_lock("Shard._lock")
        second = sanitizer.named_lock("Shard._lock")
        with first:
            with second:
                pass
        assert sanitizer.observed_edges() == []

    def test_dump_writes_the_observed_graph_as_json(self, tmp_path):
        sanitizer = LockSanitizer()
        a = sanitizer.named_lock("A._lock")
        b = sanitizer.named_lock("B._lock")
        with a:
            with b:
                pass
        target = tmp_path / "results" / "graph.json"
        sanitizer.dump(target)
        data = json.loads(target.read_text(encoding="utf-8"))
        assert data["edges"] == [
            {"src": "A._lock", "dst": "B._lock", "count": 1}]


# --------------------------------------------------------------------------- #
# Monkeypatch installation against the real runtime
# --------------------------------------------------------------------------- #
class TestSanitizerInstall:
    def test_install_wraps_repo_created_locks_and_uninstall_restores(self):
        from repro.serving.cache import UserSequenceStore

        sanitizer = LockSanitizer()
        sanitizer.install()
        try:
            store = UserSequenceStore(max_seq_len=4)
            assert getattr(store._lock, "name", None) == \
                "UserSequenceStore._lock"
        finally:
            sanitizer.uninstall()
        assert threading.Lock is sanitizer._real_lock
        assert threading.RLock is sanitizer._real_rlock

    def test_locks_created_outside_the_repo_pass_through(self):
        sanitizer = LockSanitizer()
        sanitizer.install()
        try:
            # This file lives in tests/, not under a /repro/ path: the
            # factory must hand back a real, unwrapped lock.
            plain_lock = threading.Lock()
            assert not hasattr(plain_lock, "name")
        finally:
            sanitizer.uninstall()

    def test_durable_store_workload_edges_are_subset_of_static(
            self, tmp_path):
        from repro.serving.durability import DurableSequenceStore

        sanitizer = LockSanitizer()
        sanitizer.install()
        try:
            store = DurableSequenceStore(tmp_path / "state", max_seq_len=4)
            store.record(1, [3, 4])
            store.record(2, [5])
            store.append_event(1, 6)
            store.checkpoint()
        finally:
            sanitizer.uninstall()
        observed = set(sanitizer.observed_edges())
        assert observed, "the workload should nest at least one lock pair"
        static = static_lock_edges([REPO_ROOT / "src"], root=REPO_ROOT)
        unexplained = observed - static
        assert not unexplained, (
            f"runtime acquisition edges missing from the static graph "
            f"(add the code path or a '# repro: lock-edge[...]' "
            f"declaration): {sorted(unexplained)}")


# --------------------------------------------------------------------------- #
# The `make sanitize` cross-validation: the whole instrumented session
# --------------------------------------------------------------------------- #
@pytest.mark.skipif(not enabled_from_env(),
                    reason="observed-graph cross-validation only runs under "
                           "REPRO_LOCK_SANITIZER=1 (make sanitize)")
def test_session_observed_edges_are_subset_of_static_graph():
    """Every acquisition order a real interleaving produced this session
    must already be in the static graph (derived or declared).  This file
    runs last in the ``make sanitize`` file list so the session's edge set
    is as full as it gets.
    """
    sanitizer = active_sanitizer()
    assert sanitizer is not None, "conftest should have installed the sanitizer"
    observed = set(sanitizer.observed_edges())
    static = static_lock_edges([REPO_ROOT / "src"], root=REPO_ROOT)
    unexplained = observed - static
    assert not unexplained, (
        f"runtime acquisition edges missing from the static graph: "
        f"{sorted(unexplained)}")
