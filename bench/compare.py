"""``python -m bench.compare BASE.json NEW.json`` — two records, one verdict each.

Both files are records written by ``python -m bench.run --out FILE``.  One row
per (workload, end-to-end metric): base, new, the ratio new/base, and a verdict
from ``BENCHMARK.json``'s bounds:

* ``better`` / ``worse`` — the value moved by more than the metric's bound
  *and* by more than the spread either record reports for it (how far the
  estimates from its odd and its even passes alone lie apart);
* ``same`` — it moved by no more than the bound and the spread is within it;
* ``unresolved`` — the spread is wider than the bound (or than the movement),
  so the two records cannot tell the commits apart.

Exit code 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one metric."""
    change = (new["value"] - base["value"]) / abs(base["value"])
    worsening = change if better == "lower" else -change
    # a record's own noise gauge: odd-pass vs even-pass estimate (absent: 0)
    spread = max(base.get("spread", 0.0), new.get("spread", 0.0))
    if abs(worsening) <= bound:
        return "same" if spread <= bound else "unresolved"
    if abs(worsening) <= spread:
        return "unresolved"
    return "worse" if worsening > 0 else "better"


def compare(base: dict, new: dict, declared: dict) -> List[dict]:
    rows = []
    for workload in declared["workloads"]:
        name = workload["name"]
        if name not in base["workloads"] or name not in new["workloads"]:
            continue
        for metric in declared["end_to_end"]:
            old = base["workloads"][name]["end_to_end"][metric["name"]]
            now = new["workloads"][name]["end_to_end"][metric["name"]]
            rows.append({
                "workload": name, "metric": metric["name"], "unit": metric["unit"],
                "base": old["value"], "new": now["value"],
                "ratio": now["value"] / old["value"],
                "verdict": verdict(old, now, metric["better"], metric["bound"]),
            })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(base, new, declared)
    print(f"{'workload':18s} {'metric':16s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s}  verdict")
    for row in rows:
        print(f"{row['workload']:18s} {row['metric']:16s} {row['base']:12.6g} "
              f"{row['new']:12.6g} {row['ratio']:9.3f}  {row['verdict']}"
              f"  (base {row['base']:.6g} {row['unit']})")
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
