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
* :func:`thread_import_violations` — no module imports ``threading``,
  ``_thread``, ``concurrent.futures`` or ``multiprocessing``: the program
  runs one thread per process, so it holds no locks.

Every allow-list entry must name something the tree still defines, so the
list cannot go stale. Planted snippets show each check still fires.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Dict, List, Mapping, Optional

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
# One thread per process
# --------------------------------------------------------------------------- #
#: Modules that start threads or processes, or hand work to them.
CONCURRENCY_MODULES = frozenset({
    "threading", "_thread", "concurrent.futures", "multiprocessing",
})


def _is_concurrency_module(name: str) -> bool:
    return any(name == module or name.startswith(module + ".")
               for module in CONCURRENCY_MODULES)


def thread_import_violations(tree: ast.Module) -> List[str]:
    """Imports of a threading or multiprocessing module, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            if _is_concurrency_module(name):
                found.append(f"line {node.lineno}: imports '{name}'; the program "
                             "runs one thread per process")
                break
    return found


# --------------------------------------------------------------------------- #
# The live tree holds all three
# --------------------------------------------------------------------------- #
def _parse(module: str) -> ast.Module:
    return ast.parse((SRC / module).read_text(encoding="utf-8"))


def _functions(tree: ast.AST) -> Dict[str, ast.AST]:
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


SOURCE_MODULES = sorted(path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py"))


def test_kernels_are_pure():
    violations = kernel_violations(_parse(KERNELS))
    assert not violations, f"src/{KERNELS}: {violations}"


@pytest.mark.parametrize("module", SOURCE_MODULES)
def test_numerics_hygiene(module):
    violations = numerics_violations(_parse(module))
    assert not violations, f"src/{module}: {violations}"


@pytest.mark.parametrize("module", SOURCE_MODULES)
def test_no_thread_imports(module):
    violations = thread_import_violations(_parse(module))
    assert not violations, f"src/{module}: {violations}"


@pytest.mark.parametrize("name", sorted(BLOCK_SWEEPS))
def test_block_sweep_entry_names_a_looping_kernel(name):
    function = _functions(_parse(KERNELS)).get(name)
    assert function is not None, f"src/{KERNELS} defines no kernel {name}; drop its entry"
    assert any(_is_loop(node) for node in ast.walk(function)), (
        f"src/{KERNELS}: {name} no longer loops; drop its BLOCK_SWEEPS entry")


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


class TestThreadImportCheck:
    def test_threading_and_executor_imports_are_flagged(self):
        violations = thread_import_violations(_tree("""\
            import threading
            from concurrent.futures import ThreadPoolExecutor
            import multiprocessing.pool as pool
            from concurrent import futures
            def later():
                import _thread
            """))
        assert _lines(violations) == [1, 2, 3, 4, 6]
        assert "'threading'" in violations[0]

    def test_unrelated_and_relative_imports_pass(self):
        assert thread_import_violations(_tree("""\
            import time
            import threadpoolctl
            from collections import OrderedDict
            from .threading import helper
            """)) == []
