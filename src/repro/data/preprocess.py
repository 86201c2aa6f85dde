"""Preprocessing: activity filtering and chronological ordering.

The paper filters out "inactive users with less than 10 interacted objects and
unpopular objects visited by less than 10 users" (Section V-A).  Because
removing unpopular objects can push a user below the activity threshold (and
vice versa), :func:`filter_by_activity` iterates the two filters to a fixed
point, the standard k-core style procedure used throughout the recommender
literature the paper builds on.
"""

from __future__ import annotations

from collections import Counter

from repro.data.interactions import InteractionLog


def chronological_sort(log: InteractionLog) -> InteractionLog:
    """Return a new log with interactions globally sorted by timestamp.

    Ties are broken by (user, object) so the output is deterministic.
    """
    ordered = sorted(
        log.interactions,
        key=lambda event: (event.timestamp, event.user_id, event.object_id),
    )
    return InteractionLog(interactions=ordered, name=log.name)


def filter_by_activity(
    log: InteractionLog,
    min_user_interactions: int = 10,
    min_object_interactions: int = 10,
    max_iterations: int = 50,
) -> InteractionLog:
    """Iteratively drop inactive users and unpopular objects (paper §V-A).

    Parameters
    ----------
    log:
        The raw interaction log.
    min_user_interactions:
        Minimum number of events a user must have to be kept.
    min_object_interactions:
        Minimum number of distinct users an object must be touched by.
    max_iterations:
        Safety bound on the fixed-point iteration.
    """
    if min_user_interactions < 1 or min_object_interactions < 1:
        raise ValueError("activity thresholds must be at least 1")

    interactions = list(log.interactions)
    for _ in range(max_iterations):
        user_counts = Counter(event.user_id for event in interactions)
        object_user_counts: Counter = Counter()
        seen_pairs = set()
        for event in interactions:
            pair = (event.object_id, event.user_id)
            if pair not in seen_pairs:
                seen_pairs.add(pair)
                object_user_counts[event.object_id] += 1

        kept = [
            event
            for event in interactions
            if user_counts[event.user_id] >= min_user_interactions
            and object_user_counts[event.object_id] >= min_object_interactions
        ]
        if len(kept) == len(interactions):
            break
        interactions = kept

    return InteractionLog(interactions=interactions, name=log.name)

