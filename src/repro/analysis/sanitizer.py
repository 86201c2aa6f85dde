"""The runtime lock sanitizer: observed acquisition edges vs the static graph.

The static ``lock-order`` rule (:mod:`repro.analysis.lock_order`) proves the
*declared* world acyclic; this module checks the *actual* one.  It is the
TSan/lockdep idiom scaled to this repo: an opt-in instrumented lock wrapper
that

* records, per thread, the order in which locks are acquired — every
  acquisition while another lock is held contributes an observed
  ``held-top -> acquired`` edge keyed by the locks' *source identities*
  (``UserSequenceStore._lock``, inferred at creation time from the frame
  that called ``threading.Lock()``);
* asserts acyclicity **online**: an acquisition that would close a cycle in
  the observed graph raises :class:`LockOrderViolation` immediately, with
  the full path — the test that triggered it fails on the spot, not in a
  post-mortem;
* dumps the observed graph (:meth:`LockSanitizer.dump`) so the
  ``make sanitize`` run leaves an artifact, and exposes it to the
  cross-validation test that asserts observed ⊆ static — the check that
  keeps the annotations honest in *both* directions (an undeclared runtime
  edge fails the subset test; a declared-but-impossible edge is visible as
  dead weight in the static graph).

Only edges between *adjacent* stack entries are recorded — exactly what a
thread's acquisition order proves — so the observed graph is comparable
against the static graph's held → acquired edges without transitive closure.
Re-acquiring a lock already on the thread's stack (reentrant ``RLock`` use)
records nothing.

Installation is opt-in, never ambient: ``REPRO_LOCK_SANITIZER=1`` makes the
session-scoped pytest fixture (``tests/conftest.py``) monkeypatch
``threading.Lock`` / ``threading.RLock`` for the whole run — ``make
sanitize`` wires this around the durability and online-learning suites.
Locks created outside the repo's own source tree (pytest internals,
``concurrent.futures`` plumbing, test-local helpers) pass through
uninstrumented; unit tests build instrumented locks directly with
:meth:`LockSanitizer.named_lock`.
"""

from __future__ import annotations

import json
import linecache
import os
import re
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Environment flag the pytest fixture keys installation off.
ENV_FLAG = "REPRO_LOCK_SANITIZER"

#: Only locks created from files whose path contains this fragment are
#: instrumented: the repo's own runtime, not pytest/stdlib internals.
_DEFAULT_PATH_FRAGMENT = "/repro/"

#: ``self._lock = threading.Lock()`` — the attribute the lock lands on.
_ATTR_PATTERN = re.compile(r"self\.(\w*lock\w*)\s*[:=]", re.IGNORECASE)
#: ``write_lock = threading.Lock()`` — a function-local lock variable.
_VAR_PATTERN = re.compile(r"(\w*lock\w*)\s*=", re.IGNORECASE)


class LockOrderViolation(AssertionError):
    """An acquisition closed a cycle in the observed lock-order graph."""


class _SanitizedLock:
    """A lock wrapper that reports acquisitions/releases to the sanitizer."""

    __slots__ = ("_real", "name", "_sanitizer")

    def __init__(self, real, name: str, sanitizer: "LockSanitizer"):
        self._real = real
        self.name = name
        self._sanitizer = sanitizer

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._real.acquire(blocking, timeout)
        if got:
            try:
                self._sanitizer._on_acquire(self)
            except LockOrderViolation:
                # Surface the inversion without wedging the lock for
                # whatever code (test teardown, other threads) runs next.
                self._real.release()
                raise
        return got

    def release(self) -> None:
        self._sanitizer._on_release(self)
        self._real.release()

    def locked(self) -> bool:
        return self._real.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<sanitized {self.name!r} wrapping {self._real!r}>"


class LockSanitizer:
    """Observed per-thread lock acquisition edges, checked online."""

    def __init__(self, path_fragment: str = _DEFAULT_PATH_FRAGMENT):
        self.path_fragment = path_fragment
        self._guard = _REAL_LOCK()
        self._tls = threading.local()
        #: (src, dst) -> acquisition count.
        self._edges: Dict[Tuple[str, str], int] = {}
        self._real_lock = _REAL_LOCK
        self._real_rlock = _REAL_RLOCK
        self._installed = False

    # ------------------------------------------------------------------ #
    # Lock construction
    # ------------------------------------------------------------------ #
    def named_lock(self, name: str, kind: str = "Lock") -> _SanitizedLock:
        """An instrumented lock with an explicit identity (for unit tests)."""
        real = self._real_rlock() if kind == "RLock" else self._real_lock()
        return _SanitizedLock(real, name, self)

    def _factory(self, kind: str):
        def make_lock():
            real = self._real_rlock() if kind == "RLock" \
                else self._real_lock()
            name = self._name_from_caller(sys._getframe(1))
            if name is None:
                return real
            return _SanitizedLock(real, name, self)
        make_lock.__name__ = kind
        return make_lock

    def _name_from_caller(self, frame) -> Optional[str]:
        """``Class.attr`` / ``function.var`` from the creating statement."""
        code = frame.f_code
        filename = code.co_filename.replace(os.sep, "/")
        if self.path_fragment not in filename or \
                filename.endswith("repro/analysis/sanitizer.py"):
            return None
        qualname = getattr(code, "co_qualname", None)
        if qualname is not None:
            owner = qualname.split(".")[0] if "." not in qualname \
                else qualname.rsplit(".", 1)[0].split(".")[-1]
        else:  # Python 3.10: derive the class from the bound self, if any
            self_object = frame.f_locals.get("self")
            owner = type(self_object).__name__ if self_object is not None \
                else code.co_name
        line = linecache.getline(code.co_filename, frame.f_lineno)
        attr_match = _ATTR_PATTERN.search(line)
        if attr_match:
            return f"{owner}.{attr_match.group(1)}"
        var_match = _VAR_PATTERN.search(line)
        if var_match:
            return f"{code.co_name}.{var_match.group(1)}"
        return None

    # ------------------------------------------------------------------ #
    # Acquisition tracking
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def _on_acquire(self, lock: _SanitizedLock) -> None:
        stack = self._stack()
        reentrant = any(ident == id(lock) for ident, _ in stack)
        if stack and not reentrant:
            top_name = stack[-1][1]
            if top_name != lock.name:
                self._record_edge(top_name, lock.name)
        stack.append((id(lock), lock.name))

    def _on_release(self, lock: _SanitizedLock) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index][0] == id(lock):
                del stack[index]
                return

    def _record_edge(self, src: str, dst: str) -> None:
        with self._guard:
            known = (src, dst) in self._edges
            self._edges[(src, dst)] = self._edges.get((src, dst), 0) + 1
            if known:
                return
            cycle = self._find_cycle(dst, src)
        if cycle is not None:
            raise LockOrderViolation(
                "lock-order inversion: acquiring "
                f"'{dst}' while holding '{src}' closes the cycle "
                + " -> ".join([src, dst] + cycle[1:]))

    def _find_cycle(self, start: str, target: str) -> Optional[List[str]]:
        """A path ``start -> ... -> target`` in the observed graph, if any."""
        parents: Dict[str, str] = {}
        queue = [start]
        seen = {start}
        while queue:
            node = queue.pop(0)
            for (src, dst) in self._edges:
                if src != node or dst in seen:
                    continue
                parents[dst] = node
                if dst == target:
                    path = [dst]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                seen.add(dst)
                queue.append(dst)
        return None

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def observed_edges(self) -> List[Tuple[str, str]]:
        """Every distinct (held, acquired) pair seen so far, sorted."""
        with self._guard:
            return sorted(self._edges)

    def to_dict(self) -> dict:
        with self._guard:
            return {
                "edges": [{"src": src, "dst": dst, "count": count}
                          for (src, dst), count in sorted(self._edges.items())],
            }

    def dump(self, path: Path) -> None:
        """Write the observed graph as JSON (the ``make sanitize`` artifact)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")

    # ------------------------------------------------------------------ #
    # Monkeypatch installation
    # ------------------------------------------------------------------ #
    def install(self) -> "LockSanitizer":
        """Route ``threading.Lock`` / ``threading.RLock`` through the wrapper."""
        if self._installed:
            return self
        threading.Lock = self._factory("Lock")
        threading.RLock = self._factory("RLock")
        self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            threading.Lock = self._real_lock
            threading.RLock = self._real_rlock
            self._installed = False


#: The genuine factories, captured at import time (before any patching).
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock

_ACTIVE: Optional[LockSanitizer] = None


def enabled_from_env() -> bool:
    """Whether ``REPRO_LOCK_SANITIZER`` asks for an instrumented run."""
    return os.environ.get(ENV_FLAG, "") == "1"


def install_sanitizer() -> LockSanitizer:
    """Install (once) and return the process-wide sanitizer."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = LockSanitizer()
    return _ACTIVE.install()


def uninstall_sanitizer() -> Optional[LockSanitizer]:
    """Restore the real factories; returns the sanitizer for inspection."""
    if _ACTIVE is not None:
        _ACTIVE.uninstall()
    return _ACTIVE


def active_sanitizer() -> Optional[LockSanitizer]:
    """The installed sanitizer, if :func:`install_sanitizer` ran."""
    return _ACTIVE
