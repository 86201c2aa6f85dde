"""The ``python -m repro.analysis`` command-line front-end.

Exit codes follow the usual linter contract::

    0  no findings (clean, or everything suppressed inline)
    1  findings
    2  usage error (unknown rule, missing path, unknown option)

``--format github`` renders findings as GitHub workflow annotations so the
CI ``lint`` job surfaces them inline on the PR diff.  Output ordering is
deterministic — findings sort by (path, line, col, rule) — so two runs over
the same tree are byte-identical on any platform.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis import analyze, default_rules

USAGE_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Run the repo-invariant static analyzer.",
    )
    parser.add_argument("paths", nargs="*", type=Path, default=None,
                        help="files or directories to analyze (default: src)")
    parser.add_argument("--format", dest="output_format", default="text",
                        choices=("text", "github"),
                        help="finding format: human text or GitHub workflow "
                             "annotations (default: text)")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--root", type=Path, default=None,
                        help="repository root findings are reported relative "
                             "to (default: current directory)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    rules = default_rules()

    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}: {rule.description}")
        return 0

    if args.select is not None:
        known = {rule.rule_id: rule for rule in rules}
        selected: List = []
        for rule_id in (part.strip() for part in args.select.split(",")):
            if rule_id not in known:
                print(f"error: unknown rule {rule_id!r}; expected one of "
                      f"{sorted(known)}", file=sys.stderr)
                return USAGE_ERROR
            selected.append(known[rule_id])
        rules = selected

    paths = args.paths if args.paths else [Path("src")]
    for path in paths:
        if not path.exists():
            print(f"error: no such path: {path}", file=sys.stderr)
            return USAGE_ERROR

    report = analyze(paths, rules, root=args.root)

    for finding in report.findings:
        print(finding.render() if args.output_format == "text"
              else finding.render_github())

    summary = [f"{len(report.findings)} finding(s)"]
    if report.suppressed:
        summary.append(f"{len(report.suppressed)} suppressed inline")
    print("repro.analysis: " + ", ".join(summary), file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
