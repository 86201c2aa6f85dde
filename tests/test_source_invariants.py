"""Three invariants of ``src/``, checked on the live tree's AST.

pytest samples behaviour; these checks hold on every line. Each is a plain
function of a parsed tree that returns its violations:

* :func:`kernel_violations` — ``repro/nn/kernels.py`` stays vectorised and
  side-effect free: no Python loops, no store, in-place update or mutating
  call on a caller's array, no one-argument ``sum``/``min``/``max``. The two
  block sweeps in :data:`BLOCK_SWEEPS` may loop, by function name.
* :func:`numerics_violations` — no module compares against a float literal
  with ``==``/``!=``, calls the legacy global ``np.random.*`` API, or builds
  ``default_rng()``/``RandomState()`` without a seed.
* :func:`lock_violations` — an attribute :data:`DEFAULT_SHARED_STATE` declares
  is written only inside ``with self.<lock>:``, in construction, or in a
  helper :data:`LOCKED_HELPERS` says is only called with the lock held. A
  closure under a ``with`` block does not inherit the lock: it may run later.

Every allow-list entry must name something the tree still defines, so the
lists cannot go stale. Planted snippets show each check still fires.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
KERNELS = "repro/nn/kernels.py"

# --------------------------------------------------------------------------- #
# Kernel purity
# --------------------------------------------------------------------------- #
#: Kernels whose one loop is a block sweep: O(rows / block_size) iterations of
#: one BLAS call each, to bound scratch memory, not a per-element loop.
BLOCK_SWEEPS = {
    "blocked_topk_matmul": "one matmul and one top_k per row block of the matrix",
    "kmeans_assign": "one (block, k) distance matrix per block of points",
}

#: ndarray methods that mutate the receiver in place.
MUTATING_ARRAY_METHODS = frozenset({
    "fill", "itemset", "partition", "put", "resize", "setfield", "setflags",
    "sort",
})


def _is_loop(node: ast.AST) -> bool:
    return isinstance(node, (ast.For, ast.AsyncFor, ast.While))


def _stored_names(target: ast.AST) -> List[str]:
    """Names whose array a store to ``target`` writes into (``a[i] = ...``)."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for element in target.elts for name in _stored_names(element)]
    if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
        return [target.value.id]
    return []


def kernel_violations(tree: ast.Module,
                      block_sweeps: Mapping[str, str] = BLOCK_SWEEPS) -> List[str]:
    """Loops, caller-array mutation and builtin reductions in top-level functions.

    A parameter the kernel rebinds (``x = np.asarray(x)``) is its own array
    from then on, and may be updated.
    """
    found = []
    for function in tree.body:
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        arguments = function.args
        parameters = {arg.arg for arg in
                      arguments.posonlyargs + arguments.args + arguments.kwonlyargs}
        rebound = {target.id for node in ast.walk(function) if isinstance(node, ast.Assign)
                   for target in node.targets if isinstance(target, ast.Name)}
        caller_owned = parameters - rebound
        where = f"kernel '{function.name}'"
        for node in ast.walk(function):
            if _is_loop(node) and function.name not in block_sweeps:
                found.append(f"line {node.lineno}: Python loop in {where}")
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name for target in targets for name in _stored_names(target)]
                if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                    names.append(node.target.id)
                for name in names:
                    if name in caller_owned:
                        found.append(f"line {node.lineno}: {where} writes into "
                                     f"parameter '{name}'")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in MUTATING_ARRAY_METHODS \
                        and isinstance(func.value, ast.Name) and func.value.id in caller_owned:
                    found.append(f"line {node.lineno}: {where} calls mutating "
                                 f"'{func.value.id}.{func.attr}()' on a parameter")
                elif isinstance(func, ast.Name) and func.id in ("sum", "min", "max") \
                        and len(node.args) == 1 and not node.keywords:
                    found.append(f"line {node.lineno}: {where} reduces through "
                                 f"builtin '{func.id}()'")
    return found


# --------------------------------------------------------------------------- #
# Numerics hygiene
# --------------------------------------------------------------------------- #
#: Legacy global-RNG entry points: process-global state, no local seeding.
LEGACY_GLOBAL_RNG = frozenset({
    "beta", "binomial", "bytes", "choice", "exponential", "gamma",
    "geometric", "normal", "permutation", "poisson", "rand", "randint",
    "randn", "random", "random_sample", "ranf", "sample", "seed", "shuffle",
    "standard_normal", "uniform",
})

#: Constructors that are fine with a seed argument and flagged without one.
SEEDABLE_CONSTRUCTORS = frozenset({"default_rng", "RandomState"})


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def numerics_violations(tree: ast.Module) -> List[str]:
    """Float-literal equality, the legacy global RNG and unseeded generators."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for operator, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(operator, (ast.Eq, ast.NotEq)) and any(
                        isinstance(side, ast.Constant) and isinstance(side.value, float)
                        for side in (left, right)):
                    found.append(f"line {node.lineno}: equality against a float "
                                 "literal; compare with a tolerance or an inequality")
        elif isinstance(node, ast.Call):
            module, _, name = (_dotted_name(node.func) or "").rpartition(".")
            if module in ("np.random", "numpy.random") and name in LEGACY_GLOBAL_RNG:
                found.append(f"line {node.lineno}: process-global RNG "
                             f"'np.random.{name}()'; use a seeded default_rng(seed)")
            elif module in ("", "np.random", "numpy.random") \
                    and name in SEEDABLE_CONSTRUCTORS and not node.args and not node.keywords:
                found.append(f"line {node.lineno}: unseeded '{name}()'")
    return found


# --------------------------------------------------------------------------- #
# Lock discipline
# --------------------------------------------------------------------------- #
#: The shared-state map: module → class → attribute → the lock guarding it.
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

#: Helpers only ever called with the lock held: (class, method) → lock.
LOCKED_HELPERS: Dict[Tuple[str, str], str] = {
    ("UserSequenceStore", "_journal_op"): "_lock",
    ("UserSequenceStore", "_journal_put"): "_lock",
    ("UserSequenceStore", "_peek"): "_lock",
    ("UserSequenceStore", "_touch"): "_lock",
    ("UserSequenceStore", "_lookup"): "_lock",
    ("WriteAheadLog", "_sync_locked"): "_lock",
    ("FaultInjector", "_due"): "_lock",
}

#: Methods that run before the object is visible to any other thread.
CONSTRUCTION_METHODS = frozenset({"__init__", "__post_init__", "__new__"})

#: Methods that mutate their receiver: calling one on a shared attribute writes it.
MUTATING_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "move_to_end", "pop", "popitem", "popleft", "put", "remove", "restore",
    "reverse", "setdefault", "sort", "update",
})


def _self_attribute(node: ast.AST) -> Optional[str]:
    """``x`` for ``self.x``, else ``None``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def _written(node: ast.AST) -> List[ast.AST]:
    """The targets a statement writes and the receivers a call mutates."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = list(node.targets)
    elif isinstance(node, ast.AugAssign) or (isinstance(node, ast.AnnAssign) and node.value):
        targets = [node.target]
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in MUTATING_METHODS:
        return [node.func.value]
    else:
        return []
    written = []
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, (ast.Subscript, ast.Starred)):
            targets.append(target.value)
        else:
            written.append(target)
    return written


def lock_violations(tree: ast.Module, shared: Mapping[str, Mapping[str, str]],
                    helpers: Mapping[Tuple[str, str], str] = LOCKED_HELPERS) -> List[str]:
    """Writes to ``shared`` class → attribute → lock outside that lock."""
    found = []

    def visit(class_name: str, node: ast.AST, held: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            held = frozenset()  # a closure may outlive the enclosing 'with'
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = held | {lock for item in node.items
                               if (lock := _self_attribute(item.context_expr))}
            for item in node.items:  # evaluated before the lock is taken
                visit(class_name, item, held)
            for child in node.body:
                visit(class_name, child, acquired)
            return
        guarded = shared[class_name]
        for target in _written(node):
            attr = _self_attribute(target)
            if attr in guarded and guarded[attr] not in held:
                found.append(f"line {target.lineno}: write to shared "
                             f"'{class_name}.{attr}' outside 'with self.{guarded[attr]}:'")
        for child in ast.iter_child_nodes(node):
            visit(class_name, child, held)

    for class_def in ast.walk(tree):
        if not isinstance(class_def, ast.ClassDef) or class_def.name not in shared:
            continue
        for method in class_def.body:
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and method.name not in CONSTRUCTION_METHODS:
                lock = helpers.get((class_def.name, method.name))
                for statement in method.body:
                    visit(class_def.name, statement, frozenset([lock] if lock else []))
    return found


# --------------------------------------------------------------------------- #
# The live tree holds all three
# --------------------------------------------------------------------------- #
def _parse(module: str) -> ast.Module:
    return ast.parse((SRC / module).read_text(encoding="utf-8"))


def _functions(tree: ast.AST) -> Dict[str, ast.AST]:
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _classes(module: str) -> Dict[str, ast.ClassDef]:
    return {node.name: node for node in ast.walk(_parse(module))
            if isinstance(node, ast.ClassDef)}


SOURCE_MODULES = sorted(path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py"))


def test_kernels_are_pure():
    violations = kernel_violations(_parse(KERNELS))
    assert not violations, f"src/{KERNELS}: {violations}"


@pytest.mark.parametrize("module", SOURCE_MODULES)
def test_numerics_hygiene(module):
    violations = numerics_violations(_parse(module))
    assert not violations, f"src/{module}: {violations}"


@pytest.mark.parametrize("module", sorted(DEFAULT_SHARED_STATE))
def test_shared_state_is_written_under_its_lock(module):
    violations = lock_violations(_parse(module), DEFAULT_SHARED_STATE[module])
    assert not violations, f"src/{module}: {violations}"


@pytest.mark.parametrize("name", sorted(BLOCK_SWEEPS))
def test_block_sweep_entry_names_a_looping_kernel(name):
    function = _functions(_parse(KERNELS)).get(name)
    assert function is not None, f"src/{KERNELS} defines no kernel {name}; drop its entry"
    assert any(_is_loop(node) for node in ast.walk(function)), (
        f"src/{KERNELS}: {name} no longer loops; drop its BLOCK_SWEEPS entry")


@pytest.mark.parametrize("class_name,method,lock", [
    pytest.param(class_name, method, lock, id=f"{class_name}.{method}")
    for (class_name, method), lock in sorted(LOCKED_HELPERS.items())])
def test_locked_helper_entry_names_a_method(class_name, method, lock):
    modules = [module for module, classes in DEFAULT_SHARED_STATE.items()
               if class_name in classes]
    assert modules, f"LOCKED_HELPERS names {class_name}, which DEFAULT_SHARED_STATE does not"
    class_def = _classes(modules[0])[class_name]
    assert method in _functions(class_def), (
        f"src/{modules[0]}: {class_name} defines no method {method}; drop its entry")
    assert lock in DEFAULT_SHARED_STATE[modules[0]][class_name].values(), (
        f"LOCKED_HELPERS names {lock}, which guards nothing of {class_name}")


# --------------------------------------------------------------------------- #
# DEFAULT_SHARED_STATE stays true to the tree, in both directions
# --------------------------------------------------------------------------- #
LOCK_FACTORIES = frozenset({"threading.Lock", "threading.RLock"})


def _is_lock_factory(node) -> bool:
    return isinstance(node, ast.Call) and _dotted_name(node.func) in LOCK_FACTORIES


def _constructed(class_def: ast.ClassDef) -> dict:
    """Attribute → value node for everything construction sets.

    That is ``self.<x> = ...`` in ``__init__``/``__post_init__``/``__new__``
    plus class-level annotated fields (a dataclass's ``__init__``).
    """
    assigned = {}
    for item in class_def.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            assigned[item.target.id] = item.value
        elif isinstance(item, ast.FunctionDef) and item.name in CONSTRUCTION_METHODS:
            for node in ast.walk(item):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    attr = _self_attribute(target)
                    if attr is not None:
                        assigned[attr] = node.value
    return assigned


DECLARED_STATE = [
    pytest.param(module, class_name, attr, lock, id=f"{class_name}.{attr}")
    for module, classes in sorted(DEFAULT_SHARED_STATE.items())
    for class_name, attrs in sorted(classes.items())
    for attr, lock in sorted(attrs.items())
]


def _lock_sites():
    """``self.<x> = threading.Lock()/RLock()`` anywhere in a class under src/."""
    sites = []
    for module in SOURCE_MODULES:
        if "threading" not in (SRC / module).read_text(encoding="utf-8"):
            continue
        for class_def in _classes(module).values():
            for node in ast.walk(class_def):
                if isinstance(node, ast.Assign) and _is_lock_factory(node.value):
                    for target in node.targets:
                        lock = _self_attribute(target)
                        if lock is not None:
                            sites.append(pytest.param(
                                module, class_def.name, lock,
                                id=f"{class_def.name}.{lock}"))
    return sites


@pytest.mark.parametrize("module,class_name,attr,lock", DECLARED_STATE)
def test_declared_shared_state_exists(module, class_name, attr, lock):
    """No stale entry: module, class, attribute and lock are all real."""
    assert (SRC / module).is_file(), f"no module {module}"
    class_def = _classes(module).get(class_name)
    assert class_def is not None, f"{module} defines no class {class_name}"
    constructed = _constructed(class_def)
    assert attr in constructed, f"{class_name} never sets {attr} at construction"
    assert _is_lock_factory(constructed.get(lock)), (
        f"{class_name} does not create {lock} from threading.Lock()/RLock()")


@pytest.mark.parametrize("module,class_name,lock", _lock_sites())
def test_every_lock_guards_declared_state(module, class_name, lock):
    """No undeclared lock: each one guards something the map names."""
    guarded = DEFAULT_SHARED_STATE.get(module, {}).get(class_name, {})
    assert lock in guarded.values(), (
        f"{module}: {class_name}.{lock} guards no attribute declared in "
        "DEFAULT_SHARED_STATE")


# --------------------------------------------------------------------------- #
# Planted snippets: each check still fires, and honours its exemptions
# --------------------------------------------------------------------------- #
def _lines(violations: List[str]) -> List[int]:
    """The sorted line numbers of ``violations`` (``ast.walk`` is breadth-first)."""
    return sorted(int(violation.split(":")[0].split()[1]) for violation in violations)


def _tree(source: str) -> ast.Module:
    return ast.parse(textwrap.dedent(source))


class TestKernelCheck:
    def test_loop_over_data_is_flagged(self):
        violations = kernel_violations(_tree("""\
            def score(rows):
                total = 0.0
                for row in rows:
                    total = total + row
                while total > 1:
                    total = total / 2
                return total
            """))
        assert _lines(violations) == [3, 5]
        assert "loop in kernel 'score'" in violations[0]

    def test_parameter_mutation_is_flagged(self):
        violations = kernel_violations(_tree("""\
            def normalise(scores, out):
                out[:] = scores
                out += 1.0
                out.sort()
                (out[0], scores[1]) = (0.0, 0.0)
            """))
        assert _lines(violations) == [2, 3, 4, 5, 5]

    def test_builtin_reduction_is_flagged_but_scalar_min_is_not(self):
        violations = kernel_violations(_tree("""\
            def reduce(scores, k):
                top = min(k, 10)
                return sum(scores) + top
            """))
        assert _lines(violations) == [3]
        assert "'sum()'" in violations[0]

    def test_vectorised_kernel_with_rebound_parameter_passes(self):
        assert kernel_violations(_tree("""\
            import numpy as np

            def score(matrix, query):
                query = np.asarray(query, dtype=np.float64)
                query /= np.linalg.norm(query)
                query[0] = 0.0
                return matrix @ query
            """)) == []

    def test_block_sweep_may_loop_by_name_but_not_mutate(self):
        violations = kernel_violations(_tree("""\
            def kmeans_assign(points, block):
                for start in range(0, 10, block):
                    points[start] = 0.0
            def other(points, block):
                for start in range(0, 10, block):
                    pass
            """))
        assert _lines(violations) == [3, 5]


class TestNumericsCheck:
    def test_float_equality_is_flagged(self):
        violations = numerics_violations(_tree("""\
            def check(x):
                return x == 0.3 or 1.0 != x
            """))
        assert _lines(violations) == [2, 2]

    def test_integer_equality_and_inequalities_pass(self):
        assert numerics_violations(_tree("""\
            def check(x):
                return x == 0 or x <= 0.5 or x is None
            """)) == []

    def test_unseeded_rng_and_global_rng_are_flagged(self):
        violations = numerics_violations(_tree("""\
            import numpy as np
            from numpy.random import default_rng
            a = np.random.default_rng()
            b = np.random.rand(3)
            c = numpy.random.seed(0)
            d = default_rng()
            e = np.random.RandomState()
            """))
        assert _lines(violations) == [3, 4, 5, 6, 7]

    def test_seeded_rng_passes(self):
        assert numerics_violations(_tree("""\
            import numpy as np
            a = np.random.default_rng(7)
            b = np.random.default_rng(seed=7)
            c = np.random.RandomState(7).rand(3)
            d = a.random(3)
            """)) == []


SHARED = {"Store": {"_items": "_lock"}}


class TestLockCheck:
    def test_unlocked_write_and_mutating_call_are_flagged(self):
        violations = lock_violations(_tree("""\
            class Store:
                def drop(self, key):
                    self._items.pop(key)
                    self._items[key] = 1
                    del self._items
                    self._other = 1
            """), SHARED)
        assert _lines(violations) == [3, 4, 5]
        assert "'Store._items'" in violations[0]

    def test_write_inside_with_lock_passes(self):
        assert lock_violations(_tree("""\
            class Store:
                def drop(self, key):
                    with self._lock:
                        self._items.pop(key)
                        self._items = {}
            """), SHARED) == []

    def test_wrong_lock_does_not_count(self):
        violations = lock_violations(_tree("""\
            class Store:
                def drop(self, key):
                    with self._other_lock:
                        self._items = {}
            """), SHARED)
        assert _lines(violations) == [4]

    def test_construction_is_exempt(self):
        assert lock_violations(_tree("""\
            class Store:
                def __init__(self):
                    self._items = {}
            """), SHARED) == []

    def test_locked_helper_is_exempt_by_name(self):
        source = """\
            class Store:
                def _drop(self, key):
                    self._items.pop(key)
            """
        assert lock_violations(_tree(source), SHARED,
                               helpers={("Store", "_drop"): "_lock"}) == []
        assert _lines(lock_violations(_tree(source), SHARED,
                                      helpers={("Other", "_drop"): "_lock"})) == [3]

    def test_nested_function_does_not_inherit_the_lock(self):
        violations = lock_violations(_tree("""\
            class Store:
                def schedule(self):
                    with self._lock:
                        def later():
                            self._items = {}
                        return later, lambda: self._items.clear()
            """), SHARED)
        assert _lines(violations) == [5, 6]

    def test_decorated_method_is_still_checked(self):
        violations = lock_violations(_tree("""\
            class Store:
                @property
                def head(self):
                    return self._items.pop(0)
            """), SHARED)
        assert _lines(violations) == [4]
