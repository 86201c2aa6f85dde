"""lock-discipline: shared state may only be mutated while its lock is held.

The serving runtime's shared state (sequence store, WAL, serve summary, fault
injector) is thread-safe because every mutation of it happens inside
``with self.<lock>:`` — a property tests sample but cannot prove for the
*next* edit.  This rule makes it
syntactic: a per-module map declares which attributes of which classes are
shared and which lock guards each one; any write (``self.attr = ...``,
``self.attr += ...``, ``self.attr[k] = ...``, ``del self.attr``) or mutating
method call (``self.attr.append(...)``, ``.pop()``, ``.clear()``, ...) on a
declared attribute outside the guarding ``with`` block is a finding.

Three escape hatches, all visible in the code under review:

* ``__init__`` / ``__post_init__`` / ``__new__`` are exempt — construction
  happens before the object is published to other threads;
* a method whose ``def`` line (or the line above it) carries
  ``# repro: locked[<lock>]`` asserts its callers hold ``<lock>`` — the
  documented contract for internal helpers like
  :meth:`repro.serving.cache.UserSequenceStore._peek`;
* the generic ``# repro: allow[lock-discipline]`` suppression.

Nested functions defined inside a method start with *no* held locks: a
closure may run on another thread long after the enclosing ``with`` exited,
so lexically inheriting the lock would be unsound.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional

from repro.analysis.core import Finding, Module, Rule, attribute_on

#: Methods that mutate their receiver — calling one on a shared attribute is
#: a write for the purposes of this rule.
MUTATING_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "move_to_end", "pop", "popitem", "popleft", "put", "remove", "restore",
    "reverse", "setdefault", "sort", "update",
})

#: Methods that run before the object is visible to any other thread.
CONSTRUCTION_METHODS = frozenset({"__init__", "__post_init__", "__new__"})

#: ``# repro: locked`` / ``# repro: locked[_lock]`` — the caller-holds-the-
#: lock annotation for helpers that are only ever invoked under the lock.
_LOCKED_COMMENT = re.compile(r"#\s*repro:\s*locked(?:\[([\w, ]+)\])?")


def annotated_locks(module: Module,
                    method: ast.AST) -> Optional[FrozenSet[str]]:
    """Locks a ``# repro: locked`` annotation asserts the method's callers hold.

    ``None`` means a bare annotation (all locks); an empty set means no
    annotation at all.  The comment may sit on the ``def`` line, the line
    above it, or — for decorated methods, whose ``def`` is pushed down —
    the line above the topmost decorator.
    """
    lines = module.source.splitlines()
    candidates = [method.lineno, method.lineno - 1]
    decorators = getattr(method, "decorator_list", [])
    if decorators:
        candidates.append(decorators[0].lineno - 1)
    for line_number in candidates:
        if 1 <= line_number <= len(lines):
            match = _LOCKED_COMMENT.search(lines[line_number - 1])
            if match:
                if match.group(1) is None:
                    return None
                return frozenset(part.strip()
                                 for part in match.group(1).split(","))
    return frozenset()

#: The repo's shared-state map: module suffix → class → attribute → lock.
#: Seeded from the concurrency-bearing modules of :mod:`repro.serving`; new
#: shared attributes (and new modules) are declared here as the runtime grows.
DEFAULT_SHARED_STATE: Dict[str, Dict[str, Dict[str, str]]] = {
    "repro/serving/cache.py": {
        "UserSequenceStore": {
            "_cache": "_lock",
            "_hits": "_lock",
            "_misses": "_lock",
            "_expired": "_lock",
            "_journal": "_lock",
        },
    },
    "repro/serving/service.py": {
        "ServeSummary": {
            "rows": "_lock",
            "lines": "_lock",
            "errors": "_lock",
            "error_codes": "_lock",
        },
    },
    "repro/serving/durability.py": {
        "WriteAheadLog": {
            "_last_seq": "_lock",
            "_synced_seq": "_lock",
            "_appends": "_lock",
            "_fsyncs": "_lock",
            "_pending": "_lock",
            "_file": "_lock",
            "_broken": "_lock",
        },
        "DurableSequenceStore": {
            "_snapshot_seq": "_checkpoint_lock",
        },
    },
    "repro/serving/faults.py": {
        "FaultInjector": {
            "_specs": "_lock",
        },
    },
    "repro/online/log_reader.py": {
        "InteractionLogReader": {
            # The persisted cursor: read by tail(), advanced by the promotion
            # pipeline — possibly from another thread than the serve loop.
            "_cursor": "_lock",
        },
    },
}


class LockDisciplineRule(Rule):
    """Flag writes to declared shared attributes outside their lock."""

    rule_id = "lock-discipline"
    description = ("shared attributes (per-module map) may only be mutated "
                   "inside 'with self.<lock>:' or a '# repro: locked' method")

    def __init__(self, shared_state: Optional[Mapping[str, Dict[str, Dict[str, str]]]] = None):
        self.shared_state = dict(shared_state if shared_state is not None
                                 else DEFAULT_SHARED_STATE)

    def check_module(self, module: Module) -> Iterable[Finding]:
        for suffix, classes in self.shared_state.items():
            if module.matches(suffix):
                return self._check_classes(module, classes)
        return ()

    def _check_classes(self, module: Module,
                       classes: Dict[str, Dict[str, str]]) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name in classes:
                guarded = classes[node.name]
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._check_method(module, node.name, guarded, item,
                                           findings)
        return findings

    def _check_method(self, module: Module, class_name: str,
                      guarded: Dict[str, str],
                      method: ast.FunctionDef, findings: List[Finding]) -> None:
        if method.name in CONSTRUCTION_METHODS:
            return
        held = annotated_locks(module, method)
        if held is None:  # bare '# repro: locked' — every lock held
            return
        for statement in method.body:
            self._visit(module, class_name, guarded, statement, held, findings)

    # ------------------------------------------------------------------ #
    # Lexical walk, tracking which 'with self.<lock>:' blocks enclose us
    # ------------------------------------------------------------------ #
    def _visit(self, module: Module, class_name: str, guarded: Dict[str, str],
               node: ast.AST, held: FrozenSet[str],
               findings: List[Finding]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested function may outlive the enclosing 'with': no lock is
            # lexically inherited (its own annotation may re-assert one).
            inner = annotated_locks(module, node) \
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else frozenset()
            if inner is None:
                return
            body = node.body if not isinstance(node, ast.Lambda) else [node.body]
            for child in body:
                self._visit(module, class_name, guarded, child, inner, findings)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set(held)
            for item in node.items:
                lock = attribute_on(item.context_expr, "self")
                if lock is not None:
                    acquired.add(lock)
            for child in node.body:
                self._visit(module, class_name, guarded, child,
                            frozenset(acquired), findings)
            # context expressions themselves execute before the lock is held
            for item in node.items:
                self._scan_expression(module, class_name, guarded,
                                      item.context_expr, held, findings)
            return

        self._check_statement(module, class_name, guarded, node, held, findings)
        for child in ast.iter_child_nodes(node):
            self._visit(module, class_name, guarded, child, held, findings)

    def _check_statement(self, module: Module, class_name: str,
                         guarded: Dict[str, str], node: ast.AST,
                         held: FrozenSet[str], findings: List[Finding]) -> None:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._check_target(module, class_name, guarded, target, held,
                                   findings)
        elif isinstance(node, ast.AugAssign) or (
                isinstance(node, ast.AnnAssign) and node.value is not None):
            self._check_target(module, class_name, guarded, node.target, held,
                               findings)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._check_target(module, class_name, guarded, target, held,
                                   findings)
        elif isinstance(node, ast.Call):
            self._check_call(module, class_name, guarded, node, held, findings)

    def _check_target(self, module: Module, class_name: str,
                      guarded: Dict[str, str], target: ast.AST,
                      held: FrozenSet[str], findings: List[Finding]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(module, class_name, guarded, element, held,
                                   findings)
            return
        if isinstance(target, (ast.Subscript, ast.Starred)):
            self._check_target(module, class_name, guarded, target.value, held,
                               findings)
            return
        attr = attribute_on(target, "self")
        if attr is not None and attr in guarded and guarded[attr] not in held:
            findings.append(self._finding(
                module, target,
                f"write to shared '{class_name}.{attr}' outside "
                f"'with self.{guarded[attr]}:'"))

    def _check_call(self, module: Module, class_name: str,
                    guarded: Dict[str, str], node: ast.Call,
                    held: FrozenSet[str], findings: List[Finding]) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in MUTATING_METHODS:
            return
        attr = attribute_on(func.value, "self")
        if attr is not None and attr in guarded and guarded[attr] not in held:
            findings.append(self._finding(
                module, node,
                f"mutating call self.{attr}.{func.attr}() on shared "
                f"'{class_name}.{attr}' outside 'with self.{guarded[attr]}:'"))

    def _scan_expression(self, module: Module, class_name: str,
                         guarded: Dict[str, str], node: ast.AST,
                         held: FrozenSet[str], findings: List[Finding]) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self._check_call(module, class_name, guarded, child, held,
                                 findings)

    def _finding(self, module: Module, node: ast.AST, message: str) -> Finding:
        return Finding(path=module.path, line=node.lineno,
                       col=node.col_offset + 1, rule=self.rule_id,
                       message=message)
