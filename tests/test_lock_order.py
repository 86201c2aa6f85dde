"""The interprocedural concurrency rules on fixture snippets.

``lock-order`` is exercised on genuine 2-lock inversions (lexical,
annotation-propagated, call-chain-propagated, and declared via
``lock-edge`` comments), on the consistently-ordered nesting that must
*not* be flagged, and on self-deadlocks (plain ``Lock`` vs reentrant
``RLock``).  ``blocking-under-lock`` pins the fsync-under-lock and
``Future.result``-under-lock shapes plus the transitive-callee and
annotated-helper reporting contracts.  ``shared-state-drift`` covers the
undeclared-but-consistently-locked inference and every staleness shape.
The real-tree tests at the bottom keep the repo's own static lock graph
acyclic and its intended edges present.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import (
    BlockingUnderLockRule,
    LockDisciplineRule,
    LockOrderRule,
    SharedStateDriftRule,
    analyze,
    static_lock_edges,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def run(tmp_path, files, rules, baseline=()):
    """Write ``files`` (path → snippet) under tmp_path and analyze them."""
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return analyze([tmp_path], rules, root=tmp_path, baseline=list(baseline))


# --------------------------------------------------------------------------- #
# lock-order: cycles
# --------------------------------------------------------------------------- #
class TestLockOrderCycles:
    def test_two_lock_inversion_across_methods_is_a_deadlock_finding(
            self, tmp_path):
        report = run(tmp_path, {"pair.py": """\
            import threading

            class Pair:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()

                def forward(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass

                def backward(self):
                    with self._b_lock:
                        with self._a_lock:
                            pass
            """}, [LockOrderRule()])
        assert [f.rule for f in report.findings] == ["lock-order"]
        message = report.findings[0].message
        assert "potential deadlock" in message
        assert "Pair._a_lock -> Pair._b_lock" in message
        assert "Pair._b_lock -> Pair._a_lock" in message
        # The finding names the functions that witness each hop.
        assert "Pair.forward" in message and "Pair.backward" in message

    def test_annotation_propagated_cycle_is_found(self, tmp_path):
        # _drain never takes _lock lexically: the '# repro: locked' entry
        # contract is what puts _lock under the _flush_lock acquisition.
        report = run(tmp_path, {"store.py": """\
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._flush_lock = threading.Lock()

                def _drain(self):  # repro: locked[_lock]
                    with self._flush_lock:
                        pass

                def flush(self):
                    with self._flush_lock:
                        with self._lock:
                            pass
            """}, [LockOrderRule()])
        assert [f.rule for f in report.findings] == ["lock-order"]
        assert "Store._flush_lock" in report.findings[0].message
        assert "Store._lock" in report.findings[0].message

    def test_call_chain_propagated_cycle_is_found(self, tmp_path):
        # Neither method nests two with-blocks; only the propagation of
        # held-lock sets through self-calls exposes the inversion.
        report = run(tmp_path, {"pipe.py": """\
            import threading

            class Pipe:
                def __init__(self):
                    self._in_lock = threading.Lock()
                    self._out_lock = threading.Lock()

                def push(self):
                    with self._in_lock:
                        self._emit()

                def _emit(self):
                    with self._out_lock:
                        pass

                def pull(self):
                    with self._out_lock:
                        self._absorb()

                def _absorb(self):
                    with self._in_lock:
                        pass
            """}, [LockOrderRule()])
        assert [f.rule for f in report.findings] == ["lock-order"]
        message = report.findings[0].message
        assert "Pipe._in_lock" in message and "Pipe._out_lock" in message

    def test_declared_lock_edge_comment_closes_a_cycle(self, tmp_path):
        # The AST sees _lock -> _journal_lock; the callback-mediated
        # reverse acquisition is declared — together they deadlock.
        report = run(tmp_path, {"journal.py": """\
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._journal_lock = threading.Lock()

                def put(self):
                    with self._lock:
                        with self._journal_lock:
                            pass

            # the journal calls back into the store under its own lock:
            # repro: lock-edge[Store._journal_lock -> Store._lock]
            """}, [LockOrderRule()])
        assert [f.rule for f in report.findings] == ["lock-order"]
        assert "Store._journal_lock" in report.findings[0].message

    def test_consistent_nesting_order_is_not_flagged(self, tmp_path):
        report = run(tmp_path, {"consistent.py": """\
            import threading

            class Consistent:
                def __init__(self):
                    self._first_lock = threading.Lock()
                    self._second_lock = threading.Lock()

                def a(self):
                    with self._first_lock:
                        with self._second_lock:
                            pass

                def b(self):
                    with self._first_lock:
                        with self._second_lock:
                            pass
            """}, [LockOrderRule()])
        assert report.ok and not report.findings

    def test_self_deadlock_on_plain_lock_via_call_chain(self, tmp_path):
        report = run(tmp_path, {"naive.py": """\
            import threading

            class Naive:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """}, [LockOrderRule()])
        assert [f.rule for f in report.findings] == ["lock-order"]
        message = report.findings[0].message
        assert "self-deadlock" in message and "Naive.inner" in message

    def test_reentrant_rlock_is_not_a_self_deadlock(self, tmp_path):
        report = run(tmp_path, {"naive.py": """\
            import threading

            class Fine:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """}, [LockOrderRule()])
        assert report.ok and not report.findings


# --------------------------------------------------------------------------- #
# blocking-under-lock
# --------------------------------------------------------------------------- #
class TestBlockingUnderLock:
    def test_fsync_and_file_write_under_lock_are_flagged(self, tmp_path):
        report = run(tmp_path, {"log.py": """\
            import os
            import threading

            class Log:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._file = open("log", "ab")

                def append(self, data):
                    with self._lock:
                        self._file.write(data)
                        os.fsync(self._file.fileno())
            """}, [BlockingUnderLockRule()])
        assert [(f.rule, f.line) for f in report.findings] == \
            [("blocking-under-lock", 11), ("blocking-under-lock", 12)]
        assert "os.fsync()" in report.findings[1].message
        assert "Log._lock" in report.findings[1].message

    def test_future_result_under_pending_lock_is_flagged(self, tmp_path):
        report = run(tmp_path, {"router.py": """\
            import threading

            class Router:
                def __init__(self):
                    self._pending_lock = threading.Lock()

                def wait_one(self, future):
                    with self._pending_lock:
                        return future.result()
            """}, [BlockingUnderLockRule()])
        assert [f.line for f in report.findings] == [9]
        assert ".result()" in report.findings[0].message
        assert "Router._pending_lock" in report.findings[0].message

    def test_transitively_blocking_callee_is_flagged_at_the_call(
            self, tmp_path):
        report = run(tmp_path, {"log.py": """\
            import os
            import threading

            class Log:
                def __init__(self):
                    self._lock = threading.Lock()

                def flush(self):
                    with self._lock:
                        self._write_all()

                def _write_all(self):
                    os.fsync(1)
            """}, [BlockingUnderLockRule()])
        assert [f.line for f in report.findings] == [10]
        assert "Log._write_all" in report.findings[0].message
        assert "blocking I/O" in report.findings[0].message

    def test_annotated_helper_reports_once_at_its_own_definition(
            self, tmp_path):
        # The '# repro: locked' contract moves the report to the helper;
        # callers that hold the lock are not re-flagged for the same I/O.
        report = run(tmp_path, {"log.py": """\
            import os
            import threading

            class Log:
                def __init__(self):
                    self._lock = threading.Lock()

                def _sync(self):  # repro: locked[_lock]
                    os.fsync(1)

                def flush(self):
                    with self._lock:
                        self._sync()
            """}, [BlockingUnderLockRule()])
        assert [f.line for f in report.findings] == [9]
        assert "Log._sync" in report.findings[0].message

    def test_allow_comment_suppresses_a_deliberate_fsync(self, tmp_path):
        report = run(tmp_path, {"wal.py": """\
            import os
            import threading

            class Wal:
                def __init__(self):
                    self._lock = threading.Lock()

                def sync(self, fd):
                    with self._lock:
                        os.fsync(fd)  # repro: allow[blocking-under-lock]
            """}, [BlockingUnderLockRule()])
        assert report.ok and len(report.suppressed) == 1

    def test_string_join_and_unlocked_sleep_are_not_flagged(self, tmp_path):
        report = run(tmp_path, {"misc.py": """\
            import threading
            import time

            class Render:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._parts = []

                def text(self):
                    with self._lock:
                        return ", ".join(self._parts)

                def idle(self):
                    time.sleep(0.01)
            """}, [BlockingUnderLockRule()])
        assert report.ok and not report.findings


# --------------------------------------------------------------------------- #
# shared-state-drift
# --------------------------------------------------------------------------- #
def drift_rule(shared_state):
    """The rule against an explicit map, anchor check relaxed for tmp trees."""
    return SharedStateDriftRule(shared_state=shared_state, require_anchor=False)


STORE_SNIPPET = """\
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = {}

        def put(self, key, value):
            with self._lock:
                self._items[key] = value

        def drop(self, key):
            with self._lock:
                self._items.pop(key)
    """


class TestSharedStateDrift:
    def test_consistently_locked_attribute_is_suggested(self, tmp_path):
        report = run(tmp_path, {"store.py": STORE_SNIPPET}, [drift_rule({})])
        assert [f.rule for f in report.findings] == ["shared-state-drift"]
        message = report.findings[0].message
        assert "Store._items" in message
        assert '"_items": "_lock"' in message

    def test_declared_attribute_is_not_suggested(self, tmp_path):
        report = run(tmp_path, {"store.py": STORE_SNIPPET},
                     [drift_rule({"store.py": {"Store": {"_items": "_lock"}}})])
        assert report.ok and not report.findings

    def test_mixed_locked_and_unlocked_writes_are_not_suggested(
            self, tmp_path):
        # The inference only proposes attributes whose *every* mutation is
        # under the same lock; an unlocked write is lock-discipline's beat.
        report = run(tmp_path, {"store.py": """\
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, key, value):
                    with self._lock:
                        self._items[key] = value

                def reset(self):
                    self._items = {}
            """}, [drift_rule({})])
        assert report.ok and not report.findings

    def test_stale_module_class_and_attribute_entries_are_reported(
            self, tmp_path):
        report = run(tmp_path, {"store.py": STORE_SNIPPET}, [drift_rule({
            "gone.py": {"X": {"_y": "_lock"}},
            "store.py": {
                "Ghost": {"_x": "_lock"},
                "Store": {"_items": "_lock", "_gone": "_lock"},
            },
        })])
        messages = "\n".join(f.message for f in report.findings)
        assert len(report.findings) == 3
        assert "no module matches 'gone.py'" in messages
        assert "'Ghost' not found" in messages
        assert "'Store._gone' is never assigned" in messages


# --------------------------------------------------------------------------- #
# '# repro: locked' above decorators (the lock-discipline regression)
# --------------------------------------------------------------------------- #
class TestAnnotationAboveDecorator:
    RULE = LockDisciplineRule(
        shared_state={"store.py": {"Store": {"_items": "_lock"}}})

    def test_annotation_above_decorated_method_is_honoured(self, tmp_path):
        report = run(tmp_path, {"store.py": """\
            class Store:
                # repro: locked[_lock]
                @property
                def head(self):
                    return self._items.pop(0)
            """}, [self.RULE])
        assert report.ok and not report.findings

    def test_decorated_method_without_annotation_is_still_flagged(
            self, tmp_path):
        report = run(tmp_path, {"store.py": """\
            class Store:
                @property
                def head(self):
                    return self._items.pop(0)
            """}, [self.RULE])
        assert [(f.rule, f.line) for f in report.findings] == \
            [("lock-discipline", 4)]


# --------------------------------------------------------------------------- #
# The call graph behind the rules, via the static-edge surface
# --------------------------------------------------------------------------- #
class TestStaticLockEdges:
    def test_attribute_type_inference_crosses_class_boundaries(self, tmp_path):
        (tmp_path / "pair.py").write_text(textwrap.dedent("""\
            import threading

            class Inner:
                def __init__(self):
                    self._inner_lock = threading.Lock()

                def poke(self):
                    with self._inner_lock:
                        pass

            class Outer:
                def __init__(self):
                    self._outer_lock = threading.Lock()
                    self._inner = Inner()

                def run(self):
                    with self._outer_lock:
                        self._inner.poke()
            """), encoding="utf-8")
        edges = static_lock_edges([tmp_path], root=tmp_path)
        assert ("Outer._outer_lock", "Inner._inner_lock") in edges

    def test_repo_static_lock_graph_is_acyclic(self):
        edges = static_lock_edges([REPO_ROOT / "src"], root=REPO_ROOT)
        adjacency = {}
        for src, dst in edges:
            adjacency.setdefault(src, set()).add(dst)
        # Kahn's algorithm: everything drains iff the graph is acyclic.
        nodes = set(adjacency) | {d for ds in adjacency.values() for d in ds}
        indegree = {node: 0 for node in nodes}
        for dsts in adjacency.values():
            for dst in dsts:
                indegree[dst] += 1
        ready = [node for node in nodes if indegree[node] == 0]
        drained = 0
        while ready:
            node = ready.pop()
            drained += 1
            for dst in adjacency.get(node, ()):
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    ready.append(dst)
        assert drained == len(nodes), f"cycle among {sorted(edges)}"

    def test_repo_graph_contains_the_intended_serving_edges(self):
        edges = static_lock_edges([REPO_ROOT / "src"], root=REPO_ROOT)
        # The journal callback (declared) and the checkpoint path (derived).
        assert ("UserSequenceStore._lock", "WriteAheadLog._lock") in edges
        assert ("DurableSequenceStore._checkpoint_lock",
                "WriteAheadLog._lock") in edges
