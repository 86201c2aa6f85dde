"""The static-analysis framework: findings, rules, suppressions.

pytest can only *sample* the invariants the serving runtime and the kernels
live by — a lock left off one new ``self._pending`` write or a Python loop
snuck into a kernel are bugs a test suite catches only if someone thought to
write that exact test.  This package enforces those invariants
*syntactically*, on every line of every file, before any test runs.

The moving parts:

* :class:`Finding` — one diagnostic, pinned to ``file:line:col`` with a
  stable rule id.
* :class:`Rule` — one per-file invariant, implemented by
  :meth:`Rule.check_module`.
* **Suppressions** — a ``# repro: allow[rule-id]`` comment on the offending
  line (or the line above it) silences one finding, in the code, where a
  reviewer can see it.

:func:`analyze` wires it together and returns a deterministic
:class:`AnalysisReport` — findings sorted by (path, line, col, rule), so the
output is stable across platforms and dict orders.  Files that do not parse
become ``syntax-error`` findings, never a crash.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Rule id the framework itself emits for files `ast.parse` rejects.
SYNTAX_ERROR_RULE = "syntax-error"

#: Inline suppression: a ``repro: allow[rule-a]`` (or ``allow[rule-a,rule-b]``)
#: comment.
ALLOW_COMMENT = re.compile(r"#\s*repro:\s*allow\[([\w\-, ]+)\]")


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: where it is, which invariant it breaks, and why.

    Ordering is (path, line, col, rule, message) — exactly the deterministic
    report order.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def render_github(self) -> str:
        """A GitHub workflow annotation, shown inline on the PR diff."""
        return (f"::error file={self.path},line={self.line},col={self.col},"
                f"title={self.rule}::{self.message}")


@dataclass
class Module:
    """One parsed source file as the rules see it."""

    path: str  # repository-relative, POSIX separators
    source: str
    tree: ast.Module

    def matches(self, suffix: str) -> bool:
        """Whether this module is the file a path-scoped rule configures."""
        return self.path.endswith(suffix)

    def allowed_rules(self, line: int) -> frozenset:
        """Rule ids suppressed at ``line`` (same line or the line above)."""
        allowed = set()
        lines = self.source.splitlines()
        for candidate in (line, line - 1):
            if 1 <= candidate <= len(lines):
                match = ALLOW_COMMENT.search(lines[candidate - 1])
                if match:
                    allowed.update(part.strip()
                                   for part in match.group(1).split(","))
        return frozenset(allowed)


class Rule:
    """One enforced per-file invariant."""

    #: Stable identifier: the ``# repro: allow[...]`` / ``--select`` name.
    rule_id: str = ""
    #: One operator-facing line, shown by ``--list-rules``.
    description: str = ""

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Findings in one file."""
        return ()


@dataclass
class AnalysisReport:
    """What one analysis run concluded, deterministically ordered.

    ``findings`` fail the run; ``suppressed`` carried an inline allow
    comment.
    """

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def parse_module(path: Path, root: Path) -> Tuple[Optional[Module], Optional[Finding]]:
    """Parse one file; a syntax error becomes a finding, never an exception."""
    relative = _relative_posix(path, root)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        return None, Finding(path=relative, line=1, col=1,
                             rule=SYNTAX_ERROR_RULE,
                             message=f"file could not be read: {error}")
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return None, Finding(
            path=relative,
            line=error.lineno or 1,
            col=(error.offset or 1),
            rule=SYNTAX_ERROR_RULE,
            message=f"file does not parse: {error.msg}",
        )
    return Module(path=relative, source=source, tree=tree), None


def _relative_posix(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``.py`` file under ``paths`` (files kept, directories walked)."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(candidate for candidate in path.rglob("*.py")
                                if "__pycache__" not in candidate.parts))
        else:
            files.append(path)
    unique: Dict[str, Path] = {str(path.resolve()): path for path in files}
    return [unique[key] for key in sorted(unique)]


def analyze(
    paths: Sequence[Path],
    rules: Sequence[Rule],
    root: Optional[Path] = None,
) -> AnalysisReport:
    """Run ``rules`` over every Python file under ``paths``.

    Findings are bucketed into failing / suppressed and sorted by (path,
    line, col, rule) so two runs over the same tree — any platform, any
    filesystem order — render byte-identical reports.
    """
    root = root if root is not None else Path.cwd()
    modules: Dict[str, Module] = {}
    raw_findings: List[Finding] = []
    for path in collect_files(paths):
        module, failure = parse_module(path, root)
        if failure is not None:
            raw_findings.append(failure)
        if module is not None:
            modules[module.path] = module

    for rule in rules:
        for module in modules.values():
            raw_findings.extend(rule.check_module(module))

    report = AnalysisReport()
    for finding in sorted(raw_findings):
        module = modules.get(finding.path)
        if module is not None and finding.rule in module.allowed_rules(finding.line):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    return report


# --------------------------------------------------------------------------- #
# Shared AST helpers for the rules
# --------------------------------------------------------------------------- #
def attribute_on(node: ast.AST, base: str) -> Optional[str]:
    """The attribute name if ``node`` is ``<base>.<attr>``, else ``None``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == base:
        return node.attr
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """The called name for ``name(...)`` calls, else ``None``."""
    return node.func.id if isinstance(node.func, ast.Name) else None


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as a string for pure attribute chains, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
