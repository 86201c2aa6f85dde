"""The static analyzer: each rule on fixture snippets, plus the CLI contract.

Every rule is exercised three ways — a bad snippet flagged at the expected
line, a good snippet that passes, and the escape hatches (``with self._lock:``
scoping, ``# repro: locked`` annotations, ``# repro: allow[...]``
suppressions).  The CLI tests pin the exit-code contract (0 clean / 1
findings / 2 usage error) and the real-tree tests keep ``src`` + ``tests`` +
``benchmarks`` free of findings forever.
"""

from __future__ import annotations

import ast
import io
import textwrap
import tokenize
from pathlib import Path

import pytest

from repro.analysis import (
    KernelPurityRule,
    LockDisciplineRule,
    NumericsHygieneRule,
    SYNTAX_ERROR_RULE,
    analyze,
    default_rules,
)
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.core import ALLOW_COMMENT, attribute_on, dotted_name
from repro.analysis.lock_discipline import CONSTRUCTION_METHODS, DEFAULT_SHARED_STATE

REPO_ROOT = Path(__file__).resolve().parent.parent


def run(tmp_path, files, rules):
    """Write ``files`` (path → snippet) under tmp_path and analyze them."""
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return analyze([tmp_path], rules, root=tmp_path)


# --------------------------------------------------------------------------- #
# lock-discipline
# --------------------------------------------------------------------------- #
LOCK_RULE = LockDisciplineRule(
    shared_state={"store.py": {"Store": {"_items": "_lock"}}})


class TestLockDiscipline:
    def test_unlocked_write_is_flagged_at_its_line(self, tmp_path):
        report = run(tmp_path, {"store.py": """\
            class Store:
                def drop(self, key):
                    self._items.pop(key)
            """}, [LOCK_RULE])
        assert [(f.rule, f.line) for f in report.findings] == \
            [("lock-discipline", 3)]
        assert "_items.pop()" in report.findings[0].message

    def test_write_inside_with_lock_passes(self, tmp_path):
        report = run(tmp_path, {"store.py": """\
            class Store:
                def drop(self, key):
                    with self._lock:
                        self._items.pop(key)
                        self._items = {}
            """}, [LOCK_RULE])
        assert report.ok and not report.suppressed

    def test_wrong_lock_does_not_count(self, tmp_path):
        report = run(tmp_path, {"store.py": """\
            class Store:
                def drop(self, key):
                    with self._other_lock:
                        self._items = {}
            """}, [LOCK_RULE])
        assert [f.line for f in report.findings] == [4]

    def test_init_is_exempt(self, tmp_path):
        report = run(tmp_path, {"store.py": """\
            class Store:
                def __init__(self):
                    self._items = {}
            """}, [LOCK_RULE])
        assert report.ok

    def test_locked_annotation_asserts_callers_hold_the_lock(self, tmp_path):
        report = run(tmp_path, {"store.py": """\
            class Store:
                def _drop(self, key):  # repro: locked[_lock]
                    self._items.pop(key)
            """}, [LOCK_RULE])
        assert report.ok

    def test_nested_function_does_not_inherit_the_lock(self, tmp_path):
        report = run(tmp_path, {"store.py": """\
            class Store:
                def schedule(self):
                    with self._lock:
                        def later():
                            self._items = {}
                        return later
            """}, [LOCK_RULE])
        assert [f.line for f in report.findings] == [5]

    def test_allow_comment_suppresses(self, tmp_path):
        report = run(tmp_path, {"store.py": """\
            class Store:
                def drop(self, key):
                    self._items.pop(key)  # repro: allow[lock-discipline]
            """}, [LOCK_RULE])
        assert report.ok and len(report.suppressed) == 1

    def test_annotation_above_decorated_method_is_honoured(self, tmp_path):
        report = run(tmp_path, {"store.py": """\
            class Store:
                # repro: locked[_lock]
                @property
                def head(self):
                    return self._items.pop(0)
            """}, [LOCK_RULE])
        assert report.ok and not report.findings

    def test_decorated_method_without_annotation_is_still_flagged(
            self, tmp_path):
        report = run(tmp_path, {"store.py": """\
            class Store:
                @property
                def head(self):
                    return self._items.pop(0)
            """}, [LOCK_RULE])
        assert [(f.rule, f.line) for f in report.findings] == \
            [("lock-discipline", 4)]


# --------------------------------------------------------------------------- #
# kernel-purity
# --------------------------------------------------------------------------- #
KERNEL_RULE = KernelPurityRule(kernel_modules=("kern.py",))


class TestKernelPurity:
    def test_loop_over_data_is_flagged(self, tmp_path):
        report = run(tmp_path, {"kern.py": """\
            def score(rows):
                total = 0.0
                for row in rows:
                    total = total + row
                return total
            """}, [KERNEL_RULE])
        assert [(f.rule, f.line) for f in report.findings] == \
            [("kernel-purity", 3)]

    def test_parameter_mutation_is_flagged(self, tmp_path):
        report = run(tmp_path, {"kern.py": """\
            def normalise(scores, out):
                out[:] = scores
                out += 1.0
                out.sort()
            """}, [KERNEL_RULE])
        assert [f.line for f in report.findings] == [2, 3, 4]

    def test_builtin_reduction_is_flagged_but_scalar_min_is_not(self, tmp_path):
        report = run(tmp_path, {"kern.py": """\
            def reduce(scores, k):
                top = min(k, 10)
                return sum(scores) + top
            """}, [KERNEL_RULE])
        assert [f.line for f in report.findings] == [3]
        assert "sum()" in report.findings[0].message

    def test_vectorised_kernel_with_rebound_parameter_passes(self, tmp_path):
        report = run(tmp_path, {"kern.py": """\
            import numpy as np

            def score(matrix, query):
                query = np.asarray(query, dtype=np.float64)
                query /= np.linalg.norm(query)
                return matrix @ query
            """}, [KERNEL_RULE])
        assert report.ok

    def test_allowed_block_sweep_passes(self, tmp_path):
        report = run(tmp_path, {"kern.py": """\
            def sweep(matrix, block):
                for start in range(0, 10, block):  # repro: allow[kernel-purity]
                    pass
            """}, [KERNEL_RULE])
        assert report.ok and len(report.suppressed) == 1

    def test_non_kernel_module_is_ignored(self, tmp_path):
        report = run(tmp_path, {"other.py": """\
            def anything(rows):
                for row in rows:
                    pass
            """}, [KERNEL_RULE])
        assert report.ok


# --------------------------------------------------------------------------- #
# numerics-hygiene
# --------------------------------------------------------------------------- #
NUM_RULE = NumericsHygieneRule()


class TestNumericsHygiene:
    def test_float_equality_is_flagged(self, tmp_path):
        report = run(tmp_path, {"maths.py": """\
            def check(x):
                return x == 0.3
            """}, [NUM_RULE])
        assert [(f.rule, f.line) for f in report.findings] == \
            [("numerics-hygiene", 2)]
        assert "== 0.3" in report.findings[0].message

    def test_integer_equality_and_inequalities_pass(self, tmp_path):
        report = run(tmp_path, {"maths.py": """\
            def check(x):
                return x == 0 or x <= 0.5
            """}, [NUM_RULE])
        assert report.ok

    def test_unseeded_rng_and_global_rng_are_flagged(self, tmp_path):
        report = run(tmp_path, {"rng.py": """\
            import numpy as np
            a = np.random.default_rng()
            b = np.random.rand(3)
            """}, [NUM_RULE])
        assert [f.line for f in report.findings] == [2, 3]

    def test_seeded_rng_passes(self, tmp_path):
        report = run(tmp_path, {"rng.py": """\
            import numpy as np
            a = np.random.default_rng(7)
            b = np.random.default_rng(seed=7)
            """}, [NUM_RULE])
        assert report.ok

    def test_tests_and_benchmarks_are_exempt(self, tmp_path):
        snippet = "import numpy as np\nx = np.random.rand(3)\n"
        report = run(tmp_path, {"tests/test_x.py": snippet,
                                "benchmarks/bench_x.py": snippet}, [NUM_RULE])
        assert report.ok


# --------------------------------------------------------------------------- #
# Framework: suppressions, syntax errors, determinism
# --------------------------------------------------------------------------- #
class TestFramework:
    def test_allow_comment_on_the_line_above_suppresses(self, tmp_path):
        report = run(tmp_path, {"maths.py": """\
            # repro: allow[numerics-hygiene]
            x = 1 == 0.3
            """}, [NUM_RULE])
        assert report.ok and [f.line for f in report.suppressed] == [2]

    def test_allow_comment_for_another_rule_does_not_suppress(self, tmp_path):
        report = run(tmp_path, {"maths.py":
                                "x = 1 == 0.3  # repro: allow[kernel-purity]\n"},
                     [NUM_RULE])
        assert [f.rule for f in report.findings] == ["numerics-hygiene"]
        assert not report.suppressed

    def test_unparseable_file_is_a_finding_not_a_crash(self, tmp_path):
        report = run(tmp_path, {"broken.py": "def broken(:\n",
                                "fine.py": "x = 1\n"}, [NUM_RULE])
        assert [f.rule for f in report.findings] == [SYNTAX_ERROR_RULE]
        assert report.findings[0].path == "broken.py"

    def test_report_order_is_deterministic(self, tmp_path):
        files = {"b.py": "x = 1 == 0.3\n", "a.py": "y = 2 == 0.5\nz = 3 == 0.5\n"}
        first = run(tmp_path, files, [NUM_RULE])
        second = analyze([tmp_path / "b.py", tmp_path / "a.py"], [NUM_RULE],
                         root=tmp_path)
        rendered = [f.render() for f in first.findings]
        assert rendered == [f.render() for f in second.findings]
        assert rendered == sorted(rendered)


# --------------------------------------------------------------------------- #
# CLI: exit codes and output formats
# --------------------------------------------------------------------------- #
class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n", encoding="utf-8")
        assert analysis_main([str(tmp_path), "--root", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().err

    def test_exit_one_on_findings_with_location(self, tmp_path, capsys):
        (tmp_path / "dirty.py").write_text("x = 1 == 0.3\n", encoding="utf-8")
        assert analysis_main([str(tmp_path), "--root", str(tmp_path)]) == 1
        assert "dirty.py:1:5: numerics-hygiene" in capsys.readouterr().out

    def test_github_format_renders_annotations(self, tmp_path, capsys):
        (tmp_path / "dirty.py").write_text("x = 1 == 0.3\n", encoding="utf-8")
        assert analysis_main([str(tmp_path), "--root", str(tmp_path),
                              "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=dirty.py,line=1,col=5,"
                              "title=numerics-hygiene::")

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n", encoding="utf-8")
        assert analysis_main([str(tmp_path), "--select", "no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert analysis_main([str(tmp_path / "absent")]) == 2
        assert "no such path" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--baseline", "--write-baseline"])
    def test_removed_baseline_options_are_usage_errors(self, tmp_path, capsys,
                                                       flag):
        """There is no grandfather ledger; an old command line fails loudly."""
        with pytest.raises(SystemExit) as info:
            analysis_main([str(tmp_path), flag, "x"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} x" in capsys.readouterr().err

    def test_inline_suppressions_are_counted_in_the_summary(self, tmp_path,
                                                            capsys):
        (tmp_path / "ok.py").write_text(
            "x = 1 == 0.3  # repro: allow[numerics-hygiene]\n", encoding="utf-8")
        assert analysis_main([str(tmp_path), "--root", str(tmp_path)]) == 0
        assert "0 finding(s), 1 suppressed inline" in capsys.readouterr().err

    def test_select_restricts_the_rules_run(self, tmp_path, capsys):
        (tmp_path / "dirty.py").write_text("x = 1 == 0.3\n", encoding="utf-8")
        assert analysis_main([str(tmp_path), "--root", str(tmp_path),
                              "--select", "kernel-purity"]) == 0
        capsys.readouterr()

    def test_removed_parallel_parse_option_is_a_usage_error(self, tmp_path,
                                                            capsys):
        """Parsing is serial; an old command line fails loudly."""
        with pytest.raises(SystemExit) as info:
            analysis_main([str(tmp_path), "--jobs", "4"])
        assert info.value.code == 2
        assert "unrecognized arguments: --jobs 4" in capsys.readouterr().err

    def test_list_rules_names_the_three_rules(self, capsys):
        """Exactly these three: the protocol registries are checked at run
        time (tests/test_protocol_registries.py), not by an AST rule."""
        assert analysis_main(["--list-rules"]) == 0
        listed = [line.split(":")[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == ["kernel-purity", "lock-discipline",
                          "numerics-hygiene"]


# --------------------------------------------------------------------------- #
# The real tree is clean
# --------------------------------------------------------------------------- #
def test_src_tree_is_clean(capsys):
    exit_code = analysis_main([str(REPO_ROOT / "src"), "--root", str(REPO_ROOT)])
    captured = capsys.readouterr()
    assert exit_code == 0, captured.out


def test_full_tree_is_clean(capsys):
    """``make lint`` scope: src + tests + benchmarks."""
    exit_code = analysis_main([
        str(REPO_ROOT / "src"),
        str(REPO_ROOT / "tests"),
        str(REPO_ROOT / "benchmarks"),
        "--root", str(REPO_ROOT),
    ])
    captured = capsys.readouterr()
    assert exit_code == 0, captured.out


@pytest.mark.parametrize("expected", [
    "src/repro/serving/cache.py",  # _peek carries '# repro: locked[_lock]'
    "src/repro/nn/kernels.py",     # block sweeps carry inline allows
])
def test_escape_hatches_stay_visible_in_the_tree(expected):
    source = (REPO_ROOT / expected).read_text(encoding="utf-8")
    assert "# repro: " in source


# --------------------------------------------------------------------------- #
# DEFAULT_SHARED_STATE stays true to the tree, in both directions
# --------------------------------------------------------------------------- #
SRC = REPO_ROOT / "src"
LOCK_FACTORIES = frozenset({"threading.Lock", "threading.RLock"})


def _is_lock_factory(node) -> bool:
    return isinstance(node, ast.Call) and dotted_name(node.func) in LOCK_FACTORIES


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
                    attr = attribute_on(target, "self")
                    if attr is not None:
                        assigned[attr] = node.value
    return assigned


def _classes(module: str) -> dict:
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    return {node.name: node for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)}


DECLARED_STATE = [
    pytest.param(module, class_name, attr, lock, id=f"{class_name}.{attr}")
    for module, classes in sorted(DEFAULT_SHARED_STATE.items())
    for class_name, attrs in sorted(classes.items())
    for attr, lock in sorted(attrs.items())
]


def _lock_sites():
    """``self.<x> = threading.Lock()/RLock()`` anywhere in a class under src/."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        if "threading" not in source:
            continue
        module = path.relative_to(SRC).as_posix()
        for class_def in ast.walk(ast.parse(source)):
            if not isinstance(class_def, ast.ClassDef):
                continue
            for node in ast.walk(class_def):
                if isinstance(node, ast.Assign) and _is_lock_factory(node.value):
                    for target in node.targets:
                        lock = attribute_on(target, "self")
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
# Every suppression names a rule that still runs
# --------------------------------------------------------------------------- #
def _suppression_sites():
    """One case per rule id in a ``# repro: allow[...]`` comment.  Only real
    comments count, not fixture strings."""
    sites = []
    for root in ("src", "tests", "benchmarks"):
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            if "repro:" not in source:
                continue
            relative = path.relative_to(REPO_ROOT).as_posix()
            for token in tokenize.generate_tokens(io.StringIO(source).readline):
                match = ALLOW_COMMENT.search(token.string) \
                    if token.type == tokenize.COMMENT else None
                if match:
                    for rule_id in match.group(1).split(","):
                        sites.append(pytest.param(
                            rule_id.strip(),
                            id=f"{relative}:{token.start[0]}"))
    return sites


@pytest.mark.parametrize("rule_id", _suppression_sites())
def test_suppressions_name_a_registered_rule(rule_id):
    assert rule_id in {rule.rule_id for rule in default_rules()}
