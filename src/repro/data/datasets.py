"""Table I statistics for an interaction log (the paper's six datasets are
named in :mod:`repro.experiments.registry`)."""

from __future__ import annotations

from typing import Dict

from repro.data.interactions import InteractionLog


def dataset_statistics(log: InteractionLog, max_seq_len: int = 20) -> Dict[str, int]:
    """Table I columns for an interaction log.

    The "#Feature(Sparse)" column of the paper counts the total number of
    sparse feature dimensions, i.e. the static vocabulary (users + objects)
    plus the dynamic vocabulary (objects + padding) — reported here the same
    way so synthetic and paper numbers are comparable in kind.
    """
    stats = log.statistics()
    stats["features"] = stats["users"] + 2 * stats["objects"] + 1
    stats["max_seq_len"] = max_seq_len
    return stats
