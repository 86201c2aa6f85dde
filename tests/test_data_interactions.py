"""Tests for interaction-log data structures and preprocessing."""

from __future__ import annotations

import pytest

from repro.data.interactions import Interaction, InteractionLog
from repro.data.preprocess import chronological_sort, filter_by_activity


class TestInteractionLog:
    def test_len_and_iteration(self, tiny_log):
        assert len(tiny_log) == 24
        assert sum(1 for _ in tiny_log) == 24

    def test_users_and_objects(self, tiny_log):
        assert tiny_log.users == {0, 1, 2, 3}
        assert tiny_log.objects == {10, 11, 12, 13, 14, 15}
        assert tiny_log.num_users() == 4
        assert tiny_log.num_objects() == 6

    def test_by_user_is_chronological(self, tiny_log):
        for user_id, sequence in tiny_log.by_user().items():
            timestamps = [event.timestamp for event in sequence]
            assert timestamps == sorted(timestamps)

    def test_user_sequence_unknown_user(self, tiny_log):
        assert tiny_log.user_sequence(99) == []

    def test_append_invalidates_cache(self, tiny_log):
        initial = len(tiny_log.user_sequence(0))
        tiny_log.append(Interaction(user_id=0, object_id=10, timestamp=1e6))
        assert len(tiny_log.user_sequence(0)) == initial + 1

    def test_extend(self):
        log = InteractionLog()
        log.extend([Interaction(1, 2, 0.0), Interaction(1, 3, 1.0)])
        assert len(log) == 2

    def test_objects_of_user(self, tiny_log):
        assert tiny_log.objects_of_user(0) == {10, 11, 12, 13, 14, 15}

    def test_has_ratings(self, tiny_log):
        assert tiny_log.has_ratings()
        implicit = InteractionLog([Interaction(1, 2, 0.0)])
        assert not implicit.has_ratings()

    def test_statistics(self, tiny_log):
        stats = tiny_log.statistics()
        assert stats == {"instances": 24, "users": 4, "objects": 6}


class TestChronologicalSort:
    def test_sorted_by_timestamp(self, poi_log):
        ordered = chronological_sort(poi_log)
        timestamps = [event.timestamp for event in ordered]
        assert timestamps == sorted(timestamps)

    def test_preserves_count_and_name(self, poi_log):
        ordered = chronological_sort(poi_log)
        assert len(ordered) == len(poi_log)
        assert ordered.name == poi_log.name


class TestActivityFilter:
    def test_removes_inactive_users(self):
        log = InteractionLog()
        # user 0: 5 interactions; user 1: only 1.
        for step in range(5):
            log.append(Interaction(0, step % 2, float(step)))
        log.append(Interaction(1, 0, 10.0))
        filtered = filter_by_activity(log, min_user_interactions=3, min_object_interactions=1)
        assert filtered.users == {0}

    def test_removes_unpopular_objects(self):
        log = InteractionLog()
        for user in range(4):
            log.append(Interaction(user, 100, float(user)))       # popular object
        log.append(Interaction(0, 200, 10.0))                      # unpopular object
        filtered = filter_by_activity(log, min_user_interactions=1, min_object_interactions=3)
        assert filtered.objects == {100}

    def test_iterates_to_fixed_point(self):
        # Removing the unpopular object drops user 1 below the activity bar.
        log = InteractionLog()
        for step in range(3):
            log.append(Interaction(0, 1, float(step)))
            log.append(Interaction(1, 1, float(step) + 0.5))
        log.append(Interaction(1, 99, 10.0))
        log.append(Interaction(1, 98, 11.0))
        filtered = filter_by_activity(log, min_user_interactions=4, min_object_interactions=2)
        assert 1 not in filtered.users or len(filtered.user_sequence(1)) >= 4

    def test_invalid_thresholds(self, tiny_log):
        with pytest.raises(ValueError):
            filter_by_activity(tiny_log, min_user_interactions=0)

    def test_keeps_everything_when_thresholds_met(self, tiny_log):
        filtered = filter_by_activity(tiny_log, min_user_interactions=2, min_object_interactions=2)
        assert len(filtered) == len(tiny_log)

