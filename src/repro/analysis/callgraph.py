"""A repo-wide call graph the project rules can query via :class:`Project`.

The lock-order analysis (:mod:`repro.analysis.lock_order`) needs to know,
for every ``with self._lock:`` block, *which functions the guarded calls can
reach* — an interprocedural question the per-module rules cannot answer.
This module builds that graph once per analysis run and caches it on the
:class:`~repro.analysis.core.Project`:

* every class and function in the analyzed tree is indexed under a stable
  qualified name (``path::Class.method`` / ``path::function``);
* ``self.method(...)`` calls resolve through the defining class and its
  bases (``SlowScoringHead -> ScoringHead -> Head``);
* ``self.attr.method(...)`` calls resolve through a deliberately *shallow*
  type inference: direct constructor assignments (``self._wal =
  WriteAheadLog(...)``), parameter annotations (``injector:
  Optional[FaultInjector]``), return annotations (``def
  _make_sequence_store(...) -> UserSequenceStore``) and container value
  types (``self._entries: Dict[str, RegisteredModel]`` makes
  ``self._entries[name].batcher()`` resolve);
* bare ``function(...)`` calls resolve to same-module functions first, then
  to a unique intra-package definition (``read_wal``, ``atomic_write_text``);
* attribute reads that land on an ``@property`` count as calls — a property
  that takes a lock is an acquisition site like any other.

The graph is *seeded* (for reachability queries) by the runtime's natural
entry points: ``main`` functions of the CLI modules and the ``parse`` /
``execute`` methods of every registered :class:`Head` subclass.  Resolution
is best-effort and unambiguous-only: a call that could mean two different
functions resolves to both targets; a call the index cannot place resolves
to none.  Soundness for the lock rules comes from the explicit
``# repro: lock-edge[...]`` escape hatch, not from pretending the inference
is complete.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.core import Module, Project, attribute_on, dotted_name

#: Cache key under which the built graph is stashed on the Project.
_CACHE_KEY = "callgraph"

#: Container heads whose subscript / ``.pop`` / ``.get`` yields the declared
#: value type (``Dict[K, V]`` -> ``V``, ``List[T]`` / ``Optional[T]`` -> ``T``).
_CONTAINER_HEADS = frozenset({"Dict", "dict", "List", "list", "Mapping",
                              "MutableMapping", "DefaultDict", "OrderedDict"})
_WRAPPER_HEADS = frozenset({"Optional", "Union"})

#: ``self._shards.pop(k)`` / ``.get(k)`` / ``self._shards[k]`` produce values.
_VALUE_PRODUCING_METHODS = frozenset({"pop", "get", "setdefault"})


@dataclass
class FunctionInfo:
    """One function or method definition, as the graph resolves calls to it."""

    path: str                 # module path (repo-relative, POSIX)
    qualname: str             # 'Class.method' or 'function'
    name: str                 # bare name
    class_name: Optional[str]
    node: ast.AST             # FunctionDef | AsyncFunctionDef
    module: Module
    is_property: bool = False

    @property
    def key(self) -> str:
        """Stable identity: ``path::qualname``."""
        return f"{self.path}::{self.qualname}"


@dataclass
class ClassInfo:
    """One class definition plus everything inferred about its attributes."""

    name: str
    path: str
    node: ast.ClassDef
    module: Module
    base_names: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.attr`` -> set of class names the attribute may hold.
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)
    #: ``self.attr`` -> 'Lock' | 'RLock' for threading lock constructors.
    lock_attrs: Dict[str, str] = field(default_factory=dict)
    #: Attributes ever assigned anywhere in the class body (staleness checks).
    assigned_attrs: Set[str] = field(default_factory=set)


@dataclass(frozen=True)
class CallSite:
    """One resolved call: where it happens and what it reaches."""

    callee: "FunctionInfo"
    line: int


class CallGraph:
    """Class/function index plus resolved call edges for one project."""

    def __init__(self, project: Project):
        self.project = project
        self.classes: Dict[str, List[ClassInfo]] = {}
        self.functions: Dict[str, FunctionInfo] = {}          # key -> info
        self.module_functions: Dict[str, Dict[str, FunctionInfo]] = {}
        self._callees: Dict[str, List[CallSite]] = {}
        self._index()
        self._infer_attr_types()
        for info in self.functions.values():
            self._callees[info.key] = self._resolve_calls(info)

    # ------------------------------------------------------------------ #
    # Public queries
    # ------------------------------------------------------------------ #
    def callees(self, info: FunctionInfo) -> List[CallSite]:
        """Every resolved call out of ``info``, in source order."""
        return self._callees.get(info.key, [])

    def lookup_class(self, name: str) -> Optional[ClassInfo]:
        """The unique class called ``name``, if exactly one exists."""
        candidates = self.classes.get(name, [])
        return candidates[0] if len(candidates) == 1 else None

    def resolve_method(self, class_name: str,
                       method: str) -> Optional[FunctionInfo]:
        """``Class.method`` through the MRO of same-named indexed classes."""
        seen: Set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.lookup_class(current)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            queue.extend(info.base_names)
        return None

    def entry_points(self) -> List[FunctionInfo]:
        """The graph's seeds: CLI ``main`` functions and head protocol hooks.

        Every registered head reaches the runtime through ``parse`` /
        ``execute``; every command line reaches it through ``main``.
        """
        seeds: List[FunctionInfo] = []
        head_classes = self._subclasses_of("Head")
        for info in sorted(self.functions.values(), key=lambda f: f.key):
            if info.class_name is None and info.name == "main":
                seeds.append(info)
            elif info.class_name in head_classes and \
                    info.name in ("parse", "execute"):
                seeds.append(info)
        return seeds

    def reachable(self, roots: Iterable[FunctionInfo]) -> Set[str]:
        """Keys of every function reachable from ``roots`` (inclusive)."""
        seen: Set[str] = set()
        queue = [root.key for root in roots]
        while queue:
            key = queue.pop()
            if key in seen:
                continue
            seen.add(key)
            for site in self._callees.get(key, []):
                queue.append(site.callee.key)
        return seen

    def _subclasses_of(self, root: str) -> Set[str]:
        names = {root}
        changed = True
        while changed:
            changed = False
            for name, infos in self.classes.items():
                for info in infos:
                    if name not in names and names & set(info.base_names):
                        names.add(name)
                        changed = True
        return names

    # ------------------------------------------------------------------ #
    # Indexing
    # ------------------------------------------------------------------ #
    def _index(self) -> None:
        for module in self.project.modules:
            self.module_functions[module.path] = {}
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = FunctionInfo(path=module.path, qualname=node.name,
                                        name=node.name, class_name=None,
                                        node=node, module=module)
                    self.functions[info.key] = info
                    self.module_functions[module.path][node.name] = info
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    self._index_class(module, node)

    def _index_class(self, module: Module, node: ast.ClassDef) -> None:
        info = ClassInfo(name=node.name, path=module.path, node=node,
                         module=module)
        for base in node.bases:
            name = dotted_name(base)
            if name is not None:
                info.base_names.append(name.split(".")[-1])
        for item in node.body:
            # Class-level declarations (dataclass fields) are attributes too.
            if isinstance(item, ast.AnnAssign) and \
                    isinstance(item.target, ast.Name):
                info.assigned_attrs.add(item.target.id)
                info.attr_types.setdefault(item.target.id, set()).update(
                    _annotation_types(item.annotation, container_values=True))
            elif isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name):
                        info.assigned_attrs.add(target.id)
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = FunctionInfo(
                    path=module.path, qualname=f"{node.name}.{item.name}",
                    name=item.name, class_name=node.name, node=item,
                    module=module, is_property=_is_property(item))
                info.methods[item.name] = method
                self.functions[method.key] = method
        self.classes.setdefault(node.name, []).append(info)

    # ------------------------------------------------------------------ #
    # Shallow attribute-type inference
    # ------------------------------------------------------------------ #
    def _infer_attr_types(self) -> None:
        for infos in self.classes.values():
            for cls in infos:
                for method in cls.methods.values():
                    params = _param_annotations(method.node)
                    for stmt in ast.walk(method.node):
                        self._record_attr_assign(cls, stmt, params)

    def _record_attr_assign(self, cls: ClassInfo, stmt: ast.AST,
                            params: Dict[str, Set[str]]) -> None:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        annotation: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value, annotation = [stmt.target], stmt.value, \
                stmt.annotation
        elif isinstance(stmt, ast.AugAssign):
            targets = [stmt.target]
        else:
            return
        for target in targets:
            if isinstance(target, (ast.Subscript, ast.Starred)):
                target = target.value  # self.attr[k] = v assigns *into* attr
                if attribute_on(target, "self") is not None:
                    cls.assigned_attrs.add(attribute_on(target, "self"))
                continue
            attr = attribute_on(target, "self")
            if attr is None:
                continue
            cls.assigned_attrs.add(attr)
            if annotation is not None:
                cls.attr_types.setdefault(attr, set()).update(
                    _annotation_types(annotation, container_values=True))
            if value is not None:
                lock_kind = _lock_constructor(value)
                if lock_kind is not None:
                    cls.lock_attrs[attr] = lock_kind
                    continue
                inferred = self._expression_types(cls, value, params, {})
                if inferred:
                    cls.attr_types.setdefault(attr, set()).update(inferred)

    def _expression_types(self, cls: ClassInfo, node: ast.AST,
                          params: Dict[str, Set[str]],
                          local_types: Dict[str, Set[str]]) -> Set[str]:
        """Class names ``node`` may evaluate to (shallow, unambiguous-only)."""
        if isinstance(node, ast.IfExp):
            return (self._expression_types(cls, node.body, params, local_types)
                    | self._expression_types(cls, node.orelse, params,
                                             local_types))
        if isinstance(node, ast.Name):
            if node.id in local_types:
                return set(local_types[node.id])
            if node.id in params:
                return set(params[node.id])
            return self._global_var_types(node.id)
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None:
                bare = name.split(".")[-1]
                if bare in self.classes:
                    return {bare}
            # self._method(...) with a return annotation
            method_name = _self_method_call(node)
            if method_name is not None:
                target = self.resolve_method(cls.name, method_name)
                returns = getattr(target.node, "returns", None) \
                    if target is not None else None
                if returns is not None:
                    return _annotation_types(returns)
            # self._shards.pop(k) and friends produce the container value type
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _VALUE_PRODUCING_METHODS:
                return self._receiver_value_types(cls, node.func.value,
                                                 params, local_types)
            return set()
        if isinstance(node, ast.Attribute):
            attr = attribute_on(node, "self")
            if attr is not None:
                return set(cls.attr_types.get(attr, ()))
            return set()
        if isinstance(node, ast.Subscript):
            return self._receiver_value_types(cls, node.value, params,
                                              local_types)
        return set()

    def _receiver_value_types(self, cls: ClassInfo, receiver: ast.AST,
                              params: Dict[str, Set[str]],
                              local_types: Dict[str, Set[str]]) -> Set[str]:
        """Value types of an annotated container, for ``recv[k]`` / ``.pop``."""
        attr = attribute_on(receiver, "self")
        if attr is not None:
            return set(cls.attr_types.get(attr, ()))
        return set()

    def _global_var_types(self, name: str) -> Set[str]:
        """Types of module-level ``NAME = ClassName(...)`` singletons."""
        found: Set[str] = set()
        for module in self.project.modules:
            for node in module.tree.body:
                if isinstance(node, ast.Assign) and node.value is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name) and target.id == name:
                            if isinstance(node.value, ast.Call):
                                callee = dotted_name(node.value.func)
                                if callee is not None and \
                                        callee.split(".")[-1] in self.classes:
                                    found.add(callee.split(".")[-1])
        return found

    # ------------------------------------------------------------------ #
    # Call resolution
    # ------------------------------------------------------------------ #
    def _resolve_calls(self, info: FunctionInfo) -> List[CallSite]:
        cls = self.lookup_class(info.class_name) if info.class_name else None
        params = _param_annotations(info.node)
        local_types = self._local_types(info, cls, params)
        sites: List[CallSite] = []
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                for target in self._call_targets(info, cls, node, params,
                                                 local_types):
                    sites.append(CallSite(callee=target, line=node.lineno))
            elif isinstance(node, ast.Attribute) and cls is not None:
                # property reads: self.attr.prop where prop is an @property
                for target in self._property_targets(cls, node, params,
                                                     local_types):
                    sites.append(CallSite(callee=target, line=node.lineno))
        sites.sort(key=lambda site: (site.line, site.callee.key))
        return sites

    def _local_types(self, info: FunctionInfo, cls: Optional[ClassInfo],
                     params: Dict[str, Set[str]]) -> Dict[str, Set[str]]:
        """Types of local variables assigned from inferable expressions."""
        local_types: Dict[str, Set[str]] = {}
        owner = cls if cls is not None else _DETACHED_CLASS
        for stmt in ast.walk(info.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                    isinstance(stmt.targets[0], ast.Name):
                inferred = self._expression_types(owner, stmt.value, params,
                                                 local_types)
                if inferred:
                    local_types.setdefault(stmt.targets[0].id,
                                           set()).update(inferred)
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                inferred = _annotation_types(stmt.annotation,
                                             container_values=True)
                if inferred:
                    local_types.setdefault(stmt.target.id,
                                           set()).update(inferred)
        return local_types

    def _call_targets(self, info: FunctionInfo, cls: Optional[ClassInfo],
                      node: ast.Call, params: Dict[str, Set[str]],
                      local_types: Dict[str, Set[str]]) -> List[FunctionInfo]:
        func = node.func
        targets: List[FunctionInfo] = []
        # self.method(...)
        if cls is not None:
            method = _self_method_call(node)
            if method is not None:
                resolved = self.resolve_method(cls.name, method)
                return [resolved] if resolved is not None else []
        if isinstance(func, ast.Attribute):
            # <receiver>.method(...): resolve through the receiver's types
            receiver_types = self._receiver_types(cls, func.value, params,
                                                  local_types)
            for type_name in sorted(receiver_types):
                resolved = self.resolve_method(type_name, func.attr)
                if resolved is not None:
                    targets.append(resolved)
            # ClassName.method(...) direct
            if not targets and isinstance(func.value, ast.Name) and \
                    func.value.id in self.classes:
                resolved = self.resolve_method(func.value.id, func.attr)
                if resolved is not None:
                    targets.append(resolved)
            return targets
        if isinstance(func, ast.Name):
            # ClassName(...) constructs: route to __init__
            if func.id in self.classes:
                resolved = self.resolve_method(func.id, "__init__")
                return [resolved] if resolved is not None else []
            # function(...): same module first, then unique across the tree
            same_module = self.module_functions.get(info.path, {})
            if func.id in same_module:
                return [same_module[func.id]]
            matches = [candidates[func.id]
                       for candidates in self.module_functions.values()
                       if func.id in candidates]
            if len(matches) == 1:
                return matches
        return targets

    def _receiver_types(self, cls: Optional[ClassInfo], receiver: ast.AST,
                        params: Dict[str, Set[str]],
                        local_types: Dict[str, Set[str]]) -> Set[str]:
        owner = cls if cls is not None else _DETACHED_CLASS
        return self._expression_types(owner, receiver, params, local_types)

    def _property_targets(self, cls: ClassInfo, node: ast.Attribute,
                          params: Dict[str, Set[str]],
                          local_types: Dict[str, Set[str]]
                          ) -> List[FunctionInfo]:
        receiver_types = self._receiver_types(cls, node.value, params,
                                              local_types)
        targets = []
        for type_name in sorted(receiver_types):
            resolved = self.resolve_method(type_name, node.attr)
            if resolved is not None and resolved.is_property:
                targets.append(resolved)
        return targets


#: Receiver-type lookups for module-level functions have no owning class.
_DETACHED_CLASS = ClassInfo(name="<module>", path="", node=None, module=None)


def get_callgraph(project: Project) -> CallGraph:
    """The project's call graph, built once and cached on the project."""
    return project.cache(_CACHE_KEY, CallGraph)


# --------------------------------------------------------------------------- #
# AST helpers
# --------------------------------------------------------------------------- #
def _is_property(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", []):
        name = dotted_name(decorator)
        if name in ("property", "functools.cached_property", "cached_property"):
            return True
    return False


def _lock_constructor(node: ast.AST) -> Optional[str]:
    """'Lock' / 'RLock' for ``threading.Lock()`` / ``threading.RLock()``."""
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("threading.Lock", "Lock"):
            return "Lock"
        if name in ("threading.RLock", "RLock"):
            return "RLock"
    return None


def _self_method_call(node: ast.Call) -> Optional[str]:
    """The method name for ``self.method(...)`` calls."""
    if isinstance(node.func, ast.Attribute):
        if isinstance(node.func.value, ast.Name) and \
                node.func.value.id == "self":
            return node.func.attr
    return None


def _param_annotations(node: ast.AST) -> Dict[str, Set[str]]:
    """Parameter name -> annotated class names, ``self`` excluded."""
    params: Dict[str, Set[str]] = {}
    args = getattr(node, "args", None)
    if args is None:
        return params
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        if arg.annotation is not None and arg.arg != "self":
            types = _annotation_types(arg.annotation)
            if types:
                params[arg.arg] = types
    return params


def _annotation_types(node: ast.AST, container_values: bool = False) -> Set[str]:
    """Class names an annotation can denote.

    ``Optional[X]`` / ``Union[X, Y]`` unwrap to their members; with
    ``container_values`` set, ``Dict[K, V]`` contributes ``V`` (the type a
    subscript or ``.pop`` yields) and ``List[T]`` contributes ``T``.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return set()
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = dotted_name(node)
        if name is None:
            return set()
        bare = name.split(".")[-1]
        return set() if bare in ("None", "Any") else {bare}
    if isinstance(node, ast.Subscript):
        head = dotted_name(node.value)
        head = head.split(".")[-1] if head else ""
        elements = node.slice.elts if isinstance(node.slice, ast.Tuple) \
            else [node.slice]
        if head in _WRAPPER_HEADS:
            found: Set[str] = set()
            for element in elements:
                found |= _annotation_types(element, container_values)
            return found
        if container_values and head in _CONTAINER_HEADS:
            return _annotation_types(elements[-1], container_values=False)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return (_annotation_types(node.left, container_values)
                | _annotation_types(node.right, container_values))
    return set()
