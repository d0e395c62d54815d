"""Intimacy scoring, graph building, group extraction, and emotion."""

from __future__ import annotations

import functools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdcast as cc
from crowdcast import grouping
from crowdcast.core import DataError
from crowdcast.grouping import (
    build_intimacy_graph,
    extract_groups,
    group_center_trajectory,
    group_emotion,
    make_group_state,
    pairwise_intimacy,
    window_group_states,
)
from crowdcast.pipeline import known_window_tracks

import grouping_oracle as oracle
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
        assert abs(make_group_state([a, b], cfg).emotion - 0.5) <= 1e-9

    def test_empty_group_rejected(self, cfg):
        with pytest.raises(DataError):
            group_emotion([], 0, cfg)
        empty = cc.Trajectory("e", np.empty(0, dtype=np.int64), np.empty(0),
                              np.empty((0, 2)))
        with pytest.raises(DataError, match="no points"):
            make_group_state([empty], cfg)

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


def _gappy_track(rng, agent_id, first, n, start, scale=0.3):
    """Random walk over ``n`` frames from ``first``, with random frames dropped."""
    frames = np.arange(first, first + n)
    keep = rng.random(n) > 0.2
    keep[[0, -1]] = True
    steps = rng.normal(0.0, scale, size=(n, 2))
    pos = np.asarray(start, dtype=np.float64) + np.cumsum(steps, axis=0)
    return cc.Trajectory.from_frame_grid(agent_id, frames[keep], pos[keep], STEP)


# -1.5497 and -0.8611: b - a crosses a power of two, so it rounds, and
# a + personal_distance rounds below b
CUTOFF_ORIGINS = (0.0, 7.3, -1.5496659014108836, -0.8610632758893614, -1e3, 1e8, -9e8)


class TestGraphMatchesOracle:
    """The dense graph against the scalar pair loop in ``grouping_oracle``:
    same nodes, same levels, same edge insertion order."""

    @staticmethod
    def check(tracks, cfg):
        got = build_intimacy_graph(tracks, cfg)
        ref = oracle.build_intimacy_graph(tracks, cfg)
        assert got.nodes == ref.nodes
        assert list(got.edges.items()) == list(ref.edges.items())
        return got

    @pytest.mark.parametrize("min_overlap", [1, 4, 10])
    def test_random_spans_and_gaps(self, min_overlap):
        cfg = cc.Config(min_overlap_frames=min_overlap)
        rng = np.random.default_rng(40 + min_overlap)
        levels = set()
        for _ in range(12):
            tracks = []
            for i in range(int(rng.integers(1, 30))):
                first = int(rng.integers(0, 25))
                n = int(rng.integers(1, 30))
                start = rng.uniform(-2.0, 2.0, size=2)
                if rng.random() < 0.5:
                    tracks.append(_gappy_track(rng, f"g{i}", first, n, start, 0.05))
                else:
                    tracks.append(random_track(rng, f"g{i}", first, n, scale=2.0))
            graph = self.check(tracks, cfg)
            levels |= set(graph.edges.values())
        assert levels == {0.5, 1.0}

    def test_shared_window(self, cfg):
        # the production shape: every track covers the same frames
        rng = np.random.default_rng(7)
        tracks = []
        for g in range(20):
            center = rng.uniform(0.0, 15.0, size=2)
            for m in range(int(rng.integers(1, 5))):
                offset = rng.uniform(-0.7, 0.7, size=2)
                tracks.append(line_track(f"p{g}.{m}", 100, 30, center + offset,
                                         (1.0, 0.2)))
        assert len(self.check(tracks, cfg).edges) > 10

    @pytest.mark.parametrize("dist", [0.45, 1.2])
    def test_distance_exactly_at_threshold(self, cfg, dist):
        a, b = _pair_at_distance(dist)
        c, d = _pair_at_distance(np.nextafter(dist, 2.0))
        tracks = [a, b, cc.Trajectory("c", c.frames, c.times, c.positions + 5.0),
                  cc.Trajectory("d", d.frames, d.times, d.positions + 5.0)]
        graph = self.check(tracks, cfg)
        assert graph.level("a", "b") == (1.0 if dist == 0.45 else 0.5)
        assert graph.level("c", "d") == (0.5 if dist == 0.45 else 0.0)

    def test_overlap_just_short(self, cfg):
        # 9 co-present frames at 0.1 m: too few; 10: a pair
        a = line_track("a", 0, 20, (0.0, 0.0), (1.0, 0.0))
        b = line_track("b", 11, 9, (11 * STEP, 0.1), (1.0, 0.0))
        c = line_track("c", 10, 10, (10 * STEP, -0.1), (1.0, 0.0))
        graph = self.check([a, b, c], cfg)
        assert graph.level("a", "b") == 0.0
        assert graph.level("a", "c") == 1.0

    def test_degenerate_inputs(self, cfg):
        empty = cc.Trajectory("e", np.empty(0, dtype=np.int64), np.empty(0),
                              np.empty((0, 2)))
        one = line_track("o", 3, 1, (0.0, 0.0), (0.0, 0.0))
        assert build_intimacy_graph([], cfg).nodes == ()
        self.check([empty], cfg)
        self.check([empty, one, line_track("p", 0, 12, (0.0, 0.1), (0.0, 0.0))],
                   cfg)
        # empty tracks among rows present on the last frame
        graph = self.check([line_track("q", 0, 12, (0.0, 0.0), (1.0, 0.0)), empty,
                            line_track("r", 0, 12, (0.0, 0.3), (1.0, 0.0))], cfg)
        assert list(graph.edges) == [("q", "r")]

    @pytest.mark.parametrize(
        "origin, axis", [(o, axis) for axis in (0, 1) for o in CUTOFF_ORIGINS],
        ids=[f"{o!r}{'-y' * axis}" for axis in (0, 1) for o in CUTOFF_ORIGINS])
    def test_last_frame_dx_at_the_cutoff(self, cfg, origin, axis):
        # shared-window pairs standing still on one line along the axis: a,
        # and b at the largest float whose distance from a is within the
        # personal distance, or one float either side. The cell list must
        # not drop the first two before scoring.
        pd = cfg.personal_distance
        a = origin
        b = a + pd
        while b - a > pd:
            b = np.nextafter(b, -np.inf)
        while np.nextafter(b, np.inf) - a <= pd:
            b = np.nextafter(b, np.inf)
        tracks = []
        for y, name, bx in ((0.0, "lo", np.nextafter(b, -np.inf)), (5.0, "at", b),
                            (10.0, "hi", np.nextafter(b, np.inf))):
            for end, along in (("a", a), ("b", bx)):
                point = (along, y) if axis == 0 else (y, along)
                tracks.append(_still_track(f"{name}.{end}", 0, 12, point))
        graph = self.check(tracks, cfg)
        assert graph.level("lo.a", "lo.b") == graph.level("at.a", "at.b") == 0.5
        assert graph.level("hi.a", "hi.b") == 0.0

    def test_many_ties_in_x(self, cfg):
        # three columns, each sharing one x on every frame, so every pair
        # of a column is a candidate; rows are about 0.5 m apart in y, and
        # the first two columns the personal distance apart in x
        rng = np.random.default_rng(31)
        tracks = []
        for c, x in enumerate((0.0, cfg.personal_distance, 4.0)):
            for r in range(15):
                pos = np.column_stack([np.full(10, x),
                                       0.5 * r + rng.normal(0.0, 0.02, 10)])
                tracks.append(cc.Trajectory.from_frame_grid(
                    f"c{c}.{r:02d}", np.arange(10), pos, STEP))
        assert len(self.check(tracks, cfg).edges) > 20

    def test_rows_absent_from_the_last_frame(self):
        # tracks that end early or skip the last frame, among tracks present
        # there, close to and far from each other
        cfg = cc.Config(min_overlap_frames=3)
        rng = np.random.default_rng(17)
        for _ in range(10):
            tracks = []
            for i in range(24):
                first = int(rng.integers(0, 6))
                n = 20 - first - int(rng.integers(0, 6)) * (i % 2)
                start = rng.uniform(-1.5, 1.5, size=2)
                tr = _gappy_track(rng, f"a{i:02d}", first, n, start, 0.05)
                if i % 3 == 0 and tr.frames[-1] == 19:
                    tr = cc.Trajectory(tr.agent_id, tr.frames[:-1], tr.times[:-1],
                                       tr.positions[:-1])
                tracks.append(tr)
            last = [tr.frames[-1] == 19 for tr in tracks]
            assert any(last) and not all(last)
            self.check(tracks, cfg)

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_candidate_blocks(self, monkeypatch, block):
        # candidates are scored in blocks of about _PAIR_BLOCK terms; small
        # blocks split every candidate list, across rows too
        monkeypatch.setattr(grouping, "_PAIR_BLOCK", block)
        cfg = cc.Config(min_overlap_frames=4)
        rng = np.random.default_rng(block)
        tracks = [_gappy_track(rng, f"k{i}", int(rng.integers(0, 3)), 12,
                               rng.uniform(-1.5, 1.5, size=2), 0.05)
                  for i in range(25)]
        assert self.check(tracks, cfg).edges


def test_graph_cost_follows_nearby_pairs(cfg):
    # 20,000 shared-window agents 2 m apart in a line along x: no pair is
    # within the personal distance on the last frame, so none is scored,
    # where a pass over every pair would score 2e8 of them
    n = 20_000
    frames = np.arange(cfg.min_overlap_frames)
    tracks = [cc.Trajectory(f"w{i:05d}", frames, frames * STEP,
                            np.column_stack([np.full(len(frames), 2.0 * i),
                                             0.1 * frames]))
              for i in range(n)]
    t0 = time.perf_counter()
    graph = build_intimacy_graph(tracks, cfg)
    assert time.perf_counter() - t0 < 10.0
    assert len(graph.nodes) == n and graph.edges == {}


def _line_of_agents(n, axis, frames):
    """``n`` shared-window agents 2 m apart in a line along the axis,
    each drifting 0.1 m per frame across it."""
    out = []
    for i in range(n):
        pos = np.empty((len(frames), 2))
        pos[:, axis] = 2.0 * i
        pos[:, 1 - axis] = 0.1 * frames
        out.append(cc.Trajectory(f"w{i:05d}", frames, frames * STEP, pos))
    return out


def test_grouping_cost_does_not_depend_on_the_axis(cfg):
    # the broad phase is a 2-D cell list: a line along y costs what the
    # same line along x does, where a sweep over x alone scores every pair
    frames = np.arange(cfg.known_time_steps)
    took = {}
    for axis in (0, 1):
        tracks = _line_of_agents(4000, axis, frames)
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            known, states = cc.detect_groups(tracks, int(frames[-1]), cfg)
            runs.append(time.perf_counter() - t0)
            assert len(states) == 4000
        took[axis] = sorted(runs)[1]
    assert took[1] < 2.0 * took[0], took


def test_window_reach_cost_follows_nearby_groups(monkeypatch):
    # singletons on a 50-column lattice. 100 m apart, none is within reach
    # of another, and each rollout simulates its own group alone. 12 m
    # apart, all of them chain into one reach component, and each rollout
    # simulates all of them with pairs only between neighbours. A reach
    # matrix over every group per rollout costs O(G³) per window, and a
    # broad phase per rollout O(G²): the window runs the broad phase once
    from crowdcast import dynamics

    cfg = cc.Config(known_time_steps=5, predict_time_steps=2, k_candidates=1)
    params = cc.ForceParams.from_config(cfg, substeps=1)
    frames = np.arange(5)
    broad_phases = []
    near_pairs = dynamics.near_pairs

    def spy(*args):
        broad_phases.append(args)
        return near_pairs(*args)

    monkeypatch.setattr(dynamics, "near_pairs", spy)
    for n, spacing, budget in ((2000, 100.0, 10.0), (1000, 12.0, 20.0)):
        tracks = [cc.Trajectory.from_frame_grid(
            f"s{i:04d}", frames, np.column_stack([np.full(5, spacing * (i % 50)),
                                                  spacing * (i // 50) + 0.5 * frames]),
            STEP) for i in range(n)]
        db = cc.build_database(tracks, cfg, 4)
        broad_phases.clear()
        t0 = time.perf_counter()
        out = cc.predict_at_endtime(tracks, 4, db, cfg, params, cc.SceneGeometry.empty())
        assert time.perf_counter() - t0 < budget, (n, spacing)
        assert len(out) == n
        assert len(broad_phases) == 1, (n, spacing)


def _still_track(agent_id, first, n, start):
    return line_track(agent_id, first, n, start, (0.0, 0.0))


def reference_center(members):
    """The center and offsets by their definition: frames held by every
    member, the per-frame mean of the member positions there, and each
    member's position at the last of them minus the center's."""
    common = functools.reduce(np.intersect1d, [tr.frames for tr in members])
    rows = [np.searchsorted(tr.frames, common) for tr in members]
    positions = np.mean([tr.positions[r] for tr, r in zip(members, rows)], axis=0)
    anchor = int(common[-1])
    offsets = {tr.agent_id: tr.position_at(anchor) - positions[-1] for tr in members}
    return common, members[0].times[rows[0]], positions, offsets


class TestEmotionMatchesOracle:
    """``make_group_state`` and ``group_emotion`` against the scalar loop in
    ``grouping_oracle``, and the center and offsets against
    ``reference_center``, compared with ``==``."""

    @staticmethod
    def check(members, cfg):
        state = make_group_state(members, cfg)
        assert state.emotion == oracle.emotion_for_prediction(members, cfg)
        for f in state.center_trajectory.frames:
            assert group_emotion(members, int(f), cfg) == \
                oracle.group_emotion(members, int(f), cfg)
        frames, times, positions, offsets = reference_center(members)
        center = state.center_trajectory
        for got, want in ((center.frames, frames), (center.times, times),
                          (center.positions, positions)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert list(state.member_offsets) == list(offsets)
        for agent_id, offset in offsets.items():
            assert state.member_offsets[agent_id].tobytes() == offset.tobytes()
        return state.emotion

    def test_random_groups(self, cfg):
        rng = np.random.default_rng(23)
        for trial in range(60):
            n = 2 + trial % 5
            members = []
            for m in range(n):
                first = int(rng.integers(0, 4))
                kind = rng.integers(0, 3)
                if kind == 0:
                    members.append(random_track(rng, f"m{m}", first, 12))
                elif kind == 1:
                    members.append(_gappy_track(rng, f"m{m}", first, 12,
                                                rng.uniform(-1, 1, size=2)))
                else:
                    members.append(_still_track(f"m{m}", first, 12,
                                                rng.uniform(-1, 1, size=2)))
            self.check(members, cfg)

    @pytest.mark.parametrize("block", [1, 12, 40])
    def test_row_blocks_match_oracle(self, cfg, monkeypatch, block):
        # large groups are summed in row blocks carrying the running sums;
        # small blocks make every group here take several
        monkeypatch.setattr(grouping, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(block)
        for n in range(2, 7):
            members = [random_track(rng, f"b{m}", 0, 10) for m in range(n)]
            members.append(_still_track("still", 0, 10, (0.0, 0.0)))
            self.check(members, cfg)

    def test_near_perpendicular_velocities(self, cfg):
        # dot products that cancel almost exactly, where a fused and an
        # unfused multiply-add round differently
        rng = np.random.default_rng(5)
        for n in range(2, 7):
            for _ in range(20):
                v = rng.normal(size=2) * 10.0 ** rng.integers(-3, 4)
                members = []
                for m in range(n):
                    w = v if m % 2 == 0 else np.array([-v[1], v[0]])
                    w = w * (1.0 + 1e-9 * rng.normal(size=2))
                    members.append(line_track(f"q{m}", 0, 6, (0.0, 0.3 * m), w))
                self.check(members, cfg)

    def test_standing_still_members(self, cfg):
        for n in range(2, 7):
            still = [_still_track(f"s{m}", 0, 8, (0.3 * m, 0.0)) for m in range(n)]
            assert self.check(still, cfg) == 1.0 / (1.0 + math.exp(n - 1.0))
            mixed = still[:-1] + [line_track("w", 0, 8, (0.0, 1.0), (1e-7, 1.0))]
            self.check(mixed, cfg)

    def test_overflow_gives_zero(self):
        cfg = cc.Config(step_duration=0.001)
        for n in range(2, 7):
            members = [line_track(f"f{m}", 0, 8, (0.3 * m, 0.0),
                                  (1e4 * (m % 2), 0.0), 0.001)
                       for m in range(n)]
            assert self.check(members, cfg) == 0.0

    def test_singletons(self, cfg):
        rng = np.random.default_rng(29)
        for n in (2, 12):
            assert self.check([random_track(rng, "s", 3, n)], cfg) == 1.0

    def test_error_contract(self, cfg):
        a = line_track("a", 0, 6, (0.0, 0.0), (1.0, 0.0))
        b = line_track("b", 10, 6, (0.0, 1.0), (1.0, 0.0))
        with pytest.raises(DataError, match=r"^group needs at least one member$"):
            make_group_state([], cfg)
        with pytest.raises(DataError, match=r"^members a,b are never co-present$"):
            make_group_state([a, b], cfg)
        # a one-point member shares its frame with the others, but has no
        # velocity there
        c = line_track("c", 4, 6, (0.0, 2.0), (1.0, 0.0))
        dot = cc.Trajectory.from_frame_grid("dot", [5], [[0.0, 0.5]], STEP)
        for members in ([a, dot], [a, dot, c], [dot, a]):
            with pytest.raises(cc.TooFewPointsError, match=re.escape(
                    "agent 'dot' needs >= 2 points for a velocity query")):
                make_group_state(members, cfg)

    def test_pair_dot_matches_scalar_matmul(self):
        # the vectorized dot must be the one ``vels[i] @ vels[j]`` computes
        rng = np.random.default_rng(3)
        v = rng.normal(size=(40, 2)) * 10.0 ** rng.integers(-4, 5, size=(40, 1))
        v[1::2] = v[0::2, ::-1] * [1.0, -1.0] + 1e-9 * rng.normal(size=(20, 2))
        got = np.vecdot(v[:, None], v[None, :])
        ref = np.array([[float(a @ b) for b in v] for a in v])
        assert np.array_equal(got, ref)


class TestEmotionEarlyOut:
    """From ``_ZERO_EMOTION_SIZE`` members on, ``_emotions`` returns exact
    zeros without the pair loop, and the loop, run by raising that size,
    gives the same bits on finite speeds."""

    def test_size_follows_the_float_range(self):
        # the score is at most 2 - n, and exp(710) is the first whole
        # exponent past the largest float
        assert grouping._ZERO_EMOTION_SIZE == 712
        assert math.exp(709.0) < math.inf
        with pytest.raises(OverflowError):
            math.exp(710.0)

    @pytest.mark.parametrize("n, frames", [(711, 3), (712, 3), (5000, 1)])
    def test_bit_equal_to_the_pair_loop(self, monkeypatch, n, frames):
        rng = np.random.default_rng(n)
        # equal aligned velocities score the most, 2 - n; then mixed
        # magnitudes with some members standing still
        aligned = np.tile([0.7, -0.4], (frames, n, 1))
        mixed = rng.normal(0.0, 1.0, (frames, n, 2)) \
            * 10.0 ** rng.integers(-3, 3, (frames, n, 1))
        mixed[:, ::7] = 0.0
        loops = []
        running_sum = grouping._running_sum

        def spy(*args):
            loops.append(1)
            return running_sum(*args)

        monkeypatch.setattr(grouping, "_running_sum", spy)
        got = [grouping._emotions(v) for v in (aligned, mixed)]
        early = n >= grouping._ZERO_EMOTION_SIZE
        assert bool(loops) != early
        monkeypatch.setattr(grouping, "_ZERO_EMOTION_SIZE", math.inf)
        want = [grouping._emotions(v) for v in (aligned, mixed)]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        if not early:
            # at 711 members the top score's logistic, 1 / (1 + e^709), is
            # still a positive float
            assert got[0] == [1.0 / (1.0 + math.exp(709.0))] * frames
            assert got[0][0] > 0.0
        else:
            assert got == [[0.0] * frames] * 2


class TestEmotionCostFamily:
    """The emotion slice of the cost family: one group of n and 4n members
    through ``_emotions``. Below ``_ZERO_EMOTION_SIZE`` its pair terms (the
    cosine and speed-spread terms it hands ``_running_sum``) are of the
    model's own order, n² per frame, so they grow by at most 16 × (1 + ε).
    From that size on the call is of order 0: it makes no ``np.vecdot``
    call at either size."""

    FRAMES = 5
    EPS = 0.05

    def counts(self, monkeypatch, n: int) -> tuple:
        vels = np.random.default_rng(n).normal(0.0, 1.0, (self.FRAMES, n, 2))
        calls = {"terms": 0, "vecdot": 0}
        running_sum, vecdot = grouping._running_sum, np.vecdot

        def summed(total, terms):
            calls["terms"] += terms.size
            return running_sum(total, terms)

        def dot(*args, **kw):
            calls["vecdot"] += 1
            return vecdot(*args, **kw)

        with monkeypatch.context() as mp:
            mp.setattr(grouping, "_running_sum", summed)
            mp.setattr(np, "vecdot", dot)
            values = grouping._emotions(vels)
        assert len(values) == self.FRAMES
        return calls["terms"], calls["vecdot"]

    def test_pair_terms_within_the_model_order(self, monkeypatch):
        # every ordered pair of members, per frame: order 2 in n
        n, order = 50, 2
        (small, _), (large, _) = (self.counts(monkeypatch, g) for g in (n, 4 * n))
        assert 0 < small and large <= 4.0 ** order * (1.0 + self.EPS) * small

    def test_constant_from_the_zero_size(self, monkeypatch):
        # order 0: no pair term and no np.vecdot call at n or 4n
        n = 800
        assert n >= grouping._ZERO_EMOTION_SIZE
        for g in (n, 4 * n):
            assert self.counts(monkeypatch, g) == (0, 0)


def _walkers(rng, name, count, start, velocity, jitter, endtime, steps):
    """``count`` agents walking ``velocity`` together from ``start``, each at
    its own offset within 0.3 m plus ``jitter`` noise, on its own clock
    (frame * STEP plus an agent offset and a row jitter, so no time is
    frame * STEP), each over the known window ending at ``endtime`` and
    up to 3 frames either side."""
    out = []
    for m in range(count):
        first = endtime - steps + 1 - int(rng.integers(0, 4))
        frames = np.arange(first, endtime + 1 + int(rng.integers(0, 4)))
        k = (frames - (endtime - steps + 1))[:, None]
        pos = (np.asarray(start) + rng.uniform(-0.15, 0.15, size=2)
               + k * np.asarray(velocity) * STEP
               + rng.normal(0.0, jitter, size=(len(frames), 2)))
        times = (frames * STEP + rng.uniform(-5.0, 5.0)
                 + rng.uniform(-0.2, 0.2, size=len(frames)) * STEP)
        out.append(cc.Trajectory(f"{name}m{m}", frames, times, pos))
    return out


def _per_group_states(tracks, endtime, cfg):
    """The oracle: ``make_group_state`` of each component, one call each."""
    known = known_window_tracks(tracks, endtime, cfg)
    by_id = {tr.agent_id: tr for tr in known}
    return [make_group_state([by_id[m] for m in members], cfg)
            for members in extract_groups(build_intimacy_graph(known, cfg))]


def assert_states_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.members == b.members
        ca, cb = a.center_trajectory, b.center_trajectory
        assert ca.agent_id == cb.agent_id
        for x, y in ((ca.frames, cb.frames), (ca.times, cb.times),
                     (ca.positions, cb.positions)):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()
            assert not x.flags.writeable
        assert a.emotion == b.emotion
        assert list(a.member_offsets) == list(b.member_offsets)
        for agent_id, offset in b.member_offsets.items():
            assert a.member_offsets[agent_id].tobytes() == offset.tobytes()


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(2, 8))
def test_window_states_equal_per_group_calls(seed, steps):
    # singletons and groups of 2-5 members 30 m apart, moving, still or
    # jittering, on per-agent clocks, known windows on both sides of
    # EMOTION_WINDOW_FRAMES; plus agents that miss the window
    rng = np.random.default_rng(seed)
    cfg = cc.Config(known_time_steps=steps, min_overlap_frames=steps)
    endtime = 20
    tracks, sizes = [], rng.integers(1, 6, size=int(rng.integers(1, 12))).tolist()
    for g, size in enumerate(sizes):
        kind = rng.integers(0, 3)
        velocity = (0.0, 0.0) if kind == 0 else rng.uniform(-1.5, 1.5, size=2)
        tracks += _walkers(rng, f"g{g}", size, (30.0 * g, 0.0),
                           velocity, 0.0 if kind < 2 else 0.05, endtime, steps)
    tracks.append(line_track("late", endtime - steps + 2, steps, (0.0, 0.1), (1.0, 0.0)))
    tracks.append(line_track("early", 0, endtime - 1, (0.0, -0.1), (1.0, 0.0)))
    rng.shuffle(tracks)
    known, got = cc.detect_groups(tracks, endtime, cfg)
    assert {tr.agent_id for tr in known}.isdisjoint({"late", "early"})
    assert sorted(st.size for st in got) == sorted(sizes)
    assert_states_equal(got, _per_group_states(tracks, endtime, cfg))


@pytest.mark.parametrize("steps", [2, 8])
def test_window_states_of_chains_split_into_row_blocks(steps):
    # lines of agents 0.7 m apart: each a chain of close pairs, one group,
    # two of 130 members and one of 190, large enough that the emotion of
    # each size runs over several row blocks
    rng = np.random.default_rng(steps)
    cfg = cc.Config(known_time_steps=steps, min_overlap_frames=steps)
    tracks = []
    for c, n in enumerate((130, 190, 130)):
        for m in range(n):
            tracks += _walkers(rng, f"c{c}w{m:03d}", 1, (0.7 * m, 300.0 * c),
                               (0.0, 1.0), 0.02, 20, steps)
    got = cc.detect_groups(tracks, 20, cfg)[1]
    assert sorted(st.size for st in got) == [130, 130, 190]
    w = min(grouping.EMOTION_WINDOW_FRAMES, steps)
    assert grouping._PAIR_BLOCK // (2 * w * 130) < 130
    assert grouping._PAIR_BLOCK // (w * 190) < 190
    assert_states_equal(got, _per_group_states(tracks, 20, cfg))


def test_window_emotions_once_per_group_size(cfg, monkeypatch):
    # pairs and trios 50 m apart: a window of n or 4n of each calls the
    # emotion once per group size of two or more, not once per group
    calls = []
    emotions = grouping._emotions

    def spy(vels):
        calls.append(vels.shape)
        return emotions(vels)

    monkeypatch.setattr(grouping, "_emotions", spy)
    steps = cfg.known_time_steps
    for n in (6, 24):
        tracks = [line_track(f"{kind}{i:03d}m{m}", 0, steps, (50.0 * i + 0.4 * m, y),
                             (1.0, 0.0))
                  for i in range(n) for kind, size, y in (("p", 2, 0.0), ("t", 3, 50.0))
                  for m in range(size)]
        calls.clear()
        _, states = cc.detect_groups(tracks, steps - 1, cfg)
        assert sorted(st.size for st in states) == [2] * n + [3] * n
        assert sorted(calls) == [(n * grouping.EMOTION_WINDOW_FRAMES, size, 2)
                                 for size in (2, 3)]


def test_window_states_need_one_frame_set(cfg):
    a = line_track("a", 0, 6, (0.0, 0.0), (1.0, 0.0))
    b = line_track("b", 1, 6, (0.0, 0.3), (1.0, 0.0))
    c = line_track("c", 0, 5, (0.0, 0.6), (1.0, 0.0))
    for known in ([a, b], [a, c], [c, a]):
        with pytest.raises(DataError, match=r"^known-window tracks must hold the same frames$"):
            window_group_states(known, [tuple(tr.agent_id for tr in known)])
    assert window_group_states([], []) == []
