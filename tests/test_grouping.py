"""Intimacy scoring, graph building, group extraction, and emotion."""

from __future__ import annotations

import math

import numpy as np
import pytest

import crowdcast as cc
from crowdcast.core import DataError
from crowdcast.grouping import (
    build_intimacy_graph,
    extract_groups,
    group_center_trajectory,
    group_emotion,
    group_emotion_for_prediction,
    make_group_state,
    pairwise_intimacy,
)

from conftest import STEP, line_track, random_track


def _pair_at_distance(d, n=12):
    a = line_track("a", 0, n, (0.0, 0.0), (1.0, 0.0))
    b = line_track("b", 0, n, (0.0, d), (1.0, 0.0))
    return a, b


class TestPairwiseIntimacy:
    @pytest.mark.parametrize("dist,expected", [
        (0.3, 1.0), (0.45, 1.0), (0.46, 0.5), (1.2, 0.5), (1.21, 0.0),
    ])
    def test_thresholds(self, cfg, dist, expected):
        a, b = _pair_at_distance(dist)
        assert pairwise_intimacy(a, b, cfg) == expected

    def test_worst_frame_decides(self, cfg):
        # close most of the time, briefly far apart: not a pair
        a = line_track("a", 0, 12, (0.0, 0.0), (1.0, 0.0))
        pos = np.column_stack([np.arange(12) * STEP,
                               np.full(12, 0.3)])
        pos[6, 1] = 2.5
        b = cc.Trajectory.from_frame_grid("b", np.arange(12), pos, STEP)
        assert pairwise_intimacy(a, b, cfg) == 0.0

    def test_overlap_minimum(self, cfg):
        a = line_track("a", 0, 9, (0.0, 0.0), (1.0, 0.0))
        b = line_track("b", 0, 9, (0.0, 0.2), (1.0, 0.0))
        assert pairwise_intimacy(a, b, cfg) == 0.0
        a, b = _pair_at_distance(0.2, n=10)
        assert pairwise_intimacy(a, b, cfg) == 1.0

    def test_disjoint_frames(self, cfg):
        a = line_track("a", 0, 12, (0.0, 0.0), (1.0, 0.0))
        b = line_track("b", 40, 12, (0.0, 0.1), (1.0, 0.0))
        assert pairwise_intimacy(a, b, cfg) == 0.0


class TestGraphAndGroups:
    def test_prefilter_matches_exhaustive(self, cfg):
        rng = np.random.default_rng(12)
        tracks = []
        for i in range(18):
            base = random_track(rng, f"p{i}", first_frame=0, n=15, scale=2.0)
            tracks.append(base)
        graph = build_intimacy_graph(tracks, cfg)
        for i, a in enumerate(tracks):
            for b in tracks[i + 1:]:
                expected = pairwise_intimacy(a, b, cfg)
                assert graph.level(a.agent_id, b.agent_id) == expected

    def test_chained_components_merge(self, cfg):
        a = line_track("a", 0, 12, (0.0, 0.0), (1.0, 0.0))
        b = line_track("b", 0, 12, (0.0, 1.0), (1.0, 0.0))
        c = line_track("c", 0, 12, (0.0, 2.0), (1.0, 0.0))
        d = line_track("d", 0, 12, (0.0, 30.0), (1.0, 0.0))
        groups = extract_groups(build_intimacy_graph([a, b, c, d], cfg))
        assert groups == [("a", "b", "c"), ("d",)]

    def test_duplicate_ids_rejected(self, cfg):
        a = line_track("a", 0, 12, (0.0, 0.0), (1.0, 0.0))
        with pytest.raises(DataError):
            build_intimacy_graph([a, a], cfg)


class TestGroupCenter:
    def test_mean_over_shared_frames(self):
        a = line_track("a", 0, 6, (0.0, 0.0), (1.0, 0.0))
        b = line_track("b", 2, 6, (0.0, 1.0), (1.0, 0.0))
        center = group_center_trajectory([a, b])
        assert list(center.frames) == [2, 3, 4, 5]
        expected = (a.positions[2:] + b.positions[:4]) / 2.0
        assert np.allclose(center.positions, expected)

    def test_never_co_present_rejected(self):
        a = line_track("a", 0, 4, (0.0, 0.0), (1.0, 0.0))
        b = line_track("b", 10, 4, (0.0, 1.0), (1.0, 0.0))
        with pytest.raises(DataError):
            group_center_trajectory([a, b])

    def test_singleton_center_is_the_track(self):
        a = line_track("a", 0, 4, (0.0, 0.0), (1.0, 0.0))
        center = group_center_trajectory([a])
        assert np.array_equal(center.positions, a.positions)


class TestGroupEmotion:
    def test_both_standing_still(self, cfg):
        a = line_track("a", 0, 6, (0.0, 0.0), (0.0, 0.0))
        b = line_track("b", 0, 6, (0.3, 0.0), (0.0, 0.0))
        # no cosine contribution, no speed difference: score 1 - 2 = -1
        expected = 1.0 / (1.0 + math.exp(1.0))
        assert abs(group_emotion([a, b], 3, cfg) - expected) <= 1e-12

    def test_one_still_one_moving(self, cfg):
        a = line_track("a", 0, 6, (0.0, 0.0), (0.0, 0.0))
        b = line_track("b", 0, 6, (0.3, 0.0), (1.0, 0.0))
        # cosine skipped, speed difference 1 both ways: score 1 - 1 - 2 = -2
        expected = 1.0 / (1.0 + math.exp(2.0))
        assert abs(group_emotion([a, b], 3, cfg) - expected) <= 1e-9

    def test_emotion_in_open_interval(self, cfg):
        rng = np.random.default_rng(9)
        for _ in range(50):
            members = [random_track(rng, str(i), first_frame=0, n=6)
                       for i in range(int(rng.integers(2, 5)))]
            e = group_emotion(members, 3, cfg)
            assert 0.0 < e < 1.0

    def test_windowed_mean_matches_constant_case(self, cfg):
        a = line_track("a", 0, 20, (0.0, 0.0), (1.0, 0.0))
        b = line_track("b", 0, 20, (0.0, 0.3), (1.0, 0.0))
        assert abs(group_emotion_for_prediction([a, b], cfg) - 0.5) <= 1e-9

    def test_empty_group_rejected(self, cfg):
        with pytest.raises(DataError):
            group_emotion([], 0, cfg)

    def test_score_beyond_exp_range_gives_zero(self):
        # one member still, one moving 1 m per 1 ms step: the speed term
        # pushes the score far below -709, where exp(-score) overflows
        cfg = cc.Config(step_duration=0.001)
        a = line_track("a", 0, 6, (0.0, 0.0), (0.0, 0.0), 0.001)
        b = line_track("b", 0, 6, (0.3, 0.0), (1000.0, 0.0), 0.001)
        assert group_emotion([a, b], 3, cfg) == 0.0


class TestGroupState:
    def test_offsets_anchored_and_balanced(self, cfg):
        a = line_track("a", 0, 12, (0.0, 0.0), (1.0, 0.0))
        b = line_track("b", 0, 12, (0.0, 0.4), (1.0, 0.0))
        state = make_group_state([a, b], cfg)
        assert state.members == ("a", "b")
        total = state.member_offsets["a"] + state.member_offsets["b"]
        assert np.allclose(total, [0.0, 0.0], atol=1e-12)
        anchor = int(state.center_trajectory.frames[-1])
        recon = state.center_trajectory.positions[-1] + state.member_offsets["a"]
        assert np.allclose(recon, a.position_at(anchor))

    def test_singleton_emotion_is_one(self, cfg):
        a = line_track("a", 0, 12, (0.0, 0.0), (1.0, 0.0))
        state = make_group_state([a], cfg)
        assert state.emotion == 1.0
