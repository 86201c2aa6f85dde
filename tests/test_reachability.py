"""Every public top-level name under ``src/repro`` is reached by the system.

A public function, class or constant defined at the top level of a module is
*reached* when some file in ``src/``, ``bench/`` or ``benchmarks/`` loads it
(as a ``Name`` or an ``Attribute``) outside its own definition, or a
```python fence of the README or the architecture guide does.  Tests do not
count: surface that only its own tests reach is deleted, not kept.  Package
``__init__`` re-exports and ``__all__`` strings do not count either; a
constant defined in an ``__init__`` (a registry, say) is checked like any
other.

The survivors are listed in :data:`ALLOWED`, each with the reason it stays.
An entry whose name is gone, or is now reached, fails too, so the list
cannot go stale.

The scan is by name, so it errs towards keeping: any load of ``foo``
anywhere counts for every top-level ``foo``.
"""

from __future__ import annotations

import ast
import importlib.util
from functools import lru_cache
from pathlib import Path
from typing import Dict, Set

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "bench", "benchmarks")
DOCS = ("README.md", "docs/ARCHITECTURE.md")

_KERNEL_PIN = "bench/trace.py pins it by name in _KERNEL_GROUPS"
_SIGNIFICANCE = ("the paired verdict ROADMAP.md plans for every 'A beats B' "
                 "claim calls it")

#: module → {name: why it stays although nothing in the system loads it}.
ALLOWED: Dict[str, Dict[str, str]] = {
    "repro.autograd.grad_check": {
        "check_gradients": "public API: finite-difference check of any Tensor function",
    },
    "repro.core.interpret": {
        "attention_maps": "the view tests compare the model's attention against it",
        "view_contributions": "the interpret tests check it sums to the interaction term",
    },
    "repro.core.serialization": {
        "save_weights": "public API: weights-only checkpoint of any Module (baselines too)",
        "load_weights": "public API: the reader of save_weights",
    },
    "repro.core.tasks": {
        "SeqFMClassifier": "public API: the Section IV-B head, exported by `repro`",
        "SeqFMRegressor": "public API: the Section IV-C head, exported by `repro`",
    },
    "repro.eval.significance": {
        "bootstrap_confidence_interval": _SIGNIFICANCE,
        "paired_bootstrap_test": _SIGNIFICANCE,
        "sign_test": _SIGNIFICANCE,
        "per_case_hit_scores": _SIGNIFICANCE,
    },
    "repro.nn.kernels": {
        "attend_with_cached_kv": _KERNEL_PIN,
        "mean_pool": _KERNEL_PIN,
        "masked_mean_pool": _KERNEL_PIN,
    },
    "repro.nn.optim": {
        "SGD": "public API: the plain optimiser beside Adam, exported by `repro.nn`",
    },
    "repro.serving.durability": {
        "WAL_OPS": "the declared journal ops; the protocol-registry test holds the "
                   "store's mutators to exactly this set",
    },
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _loads(node: ast.AST) -> Set[str]:
    """Names ``node`` loads, bare or as the last part of an attribute."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            names.add(child.attr)
    return names


def _public_definitions(tree: ast.Module) -> Dict[str, ast.stmt]:
    """Top-level public functions, classes and assigned names → their statement."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    found[target.id] = node
    return {name: node for name, node in found.items() if not name.startswith("_")}


def _fence_loads() -> Set[str]:
    spec = importlib.util.spec_from_file_location("check_docs", ROOT / "docs" / "check_docs.py")
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)
    names = set()
    for doc in DOCS:
        for block in check_docs.extract_python_blocks((ROOT / doc).read_text()):
            names |= _loads(ast.parse(block))
    return names


@lru_cache(maxsize=None)
def _scan() -> Dict[str, Dict[str, bool]]:
    """module → {public name: reached?} for every module under ``src/repro``."""
    trees = {path: ast.parse(path.read_text())
             for directory in CALLER_DIRS
             for path in sorted((ROOT / directory).rglob("*.py"))}
    file_loads = {path: _loads(tree) for path, tree in trees.items()}
    external = _fence_loads()
    result = {}
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        definitions = _public_definitions(tree)
        if not definitions:
            continue
        elsewhere = set(external)
        for other, loads in file_loads.items():
            if other != path:
                elsewhere |= loads
        # Per top-level statement, so a definition's own body is left out.
        statement_loads = [(node, _loads(node)) for node in tree.body]
        result[_module_name(path)] = {
            name: name in elsewhere or any(
                name in loads for node, loads in statement_loads if node is not definition)
            for name, definition in definitions.items()
        }
    return result


MODULES = sorted(_scan())


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_reached(module):
    reached = _scan()[module]
    allowed = ALLOWED.get(module, {})
    unreached = sorted(name for name, hit in reached.items() if not hit and name not in allowed)
    assert not unreached, (
        f"{module}: {unreached} reached by no file in {'/, '.join(CALLER_DIRS)}/ "
        "and no docs fence; delete them, or give each an ALLOWED entry with a reason")
    gone = sorted(name for name in allowed if name not in reached)
    assert not gone, f"{module}: ALLOWED names {gone} that the module no longer defines"
    now_reached = sorted(name for name in allowed if reached.get(name))
    assert not now_reached, f"{module}: ALLOWED names {now_reached} are reached; drop the entries"


def test_allowed_names_only_scanned_modules():
    assert sorted(set(ALLOWED) - set(MODULES)) == []

