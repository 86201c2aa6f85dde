"""Result tables, their JSON export, and text reporting for the experiment runners."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.serialization import PathLike, atomic_write_text


@dataclass
class ResultTable:
    """A (row × column) table of floats, e.g. models × metrics.

    Attributes
    ----------
    title:
        Table caption (printed above the table).
    columns:
        Ordered column names (metrics).
    rows:
        Mapping ``row name → {column → value}``; insertion order is preserved
        and used when printing.
    metadata:
        Free-form extra information (dataset sizes, runtimes, ...).
    """

    title: str
    columns: List[str]
    rows: Dict[str, Dict[str, float]] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    def add_row(self, name: str, values: Mapping[str, float]) -> None:
        missing = [column for column in self.columns if column not in values]
        if missing:
            raise KeyError(f"row {name!r} is missing columns {missing}")
        self.rows[name] = {column: float(values[column]) for column in self.columns}

    def get(self, row: str, column: str) -> float:
        return self.rows[row][column]

    def best_row(self, column: str, maximise: bool = True) -> str:
        """Name of the row with the best value in ``column``."""
        if not self.rows:
            raise ValueError("table has no rows")
        chooser = max if maximise else min
        return chooser(self.rows, key=lambda name: self.rows[name][column])

    def __str__(self) -> str:
        return format_table(self)


def save_result_table(table: ResultTable, path: PathLike) -> None:
    """Export a ResultTable (title, columns, rows, metadata) as JSON."""
    payload = {
        "title": table.title,
        "columns": list(table.columns),
        "rows": {name: dict(values) for name, values in table.rows.items()},
        "metadata": _jsonable(table.metadata),
    }
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True))


def _jsonable(value):
    """Best-effort conversion of metadata values into JSON-serialisable types."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def format_table(table: ResultTable, precision: int = 3, width: int = 10) -> str:
    """Render a :class:`ResultTable` as fixed-width text."""
    name_width = max([len(name) for name in table.rows] + [len("model"), 12])
    header = "model".ljust(name_width) + "".join(column.rjust(width) for column in table.columns)
    lines = [table.title, "=" * len(header), header, "-" * len(header)]
    for name, values in table.rows.items():
        cells = "".join(f"{values[column]:.{precision}f}".rjust(width) for column in table.columns)
        lines.append(name.ljust(name_width) + cells)
    return "\n".join(lines)


def compare_to_paper(
    measured: ResultTable,
    paper: Mapping[str, Mapping[str, float]],
    columns: Optional[Sequence[str]] = None,
    precision: int = 3,
) -> str:
    """Side-by-side "measured vs. paper" text for rows present in both."""
    columns = list(columns or measured.columns)
    lines = [f"{measured.title} — measured (this repo) vs. paper"]
    header = "model".ljust(14) + "".join(
        f"{column} (ours/paper)".rjust(24) for column in columns
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, values in measured.rows.items():
        if name not in paper:
            continue
        cells = []
        for column in columns:
            ours = values.get(column)
            theirs = paper[name].get(column)
            if ours is None or theirs is None:
                cells.append("n/a".rjust(24))
            else:
                cells.append(f"{ours:.{precision}f} / {theirs:.{precision}f}".rjust(24))
        lines.append(name.ljust(14) + "".join(cells))
    return "\n".join(lines)


def relative_improvement(better: float, worse: float) -> float:
    """Relative improvement of ``better`` over ``worse`` (positive = better is larger)."""
    if worse == 0:
        return float("inf") if better > 0 else 0.0
    return (better - worse) / abs(worse)
