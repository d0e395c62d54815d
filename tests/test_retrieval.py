"""Destination retrieval: scoring, search equivalence, candidate assembly."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crowdcast as cc
from crowdcast.retrieval import (
    LINEAR_PROVENANCE,
    Candidate,
    QueryPose,
    candidate_destinations,
    linear_continuation,
    query_pose,
    query_similar,
)

from conftest import STEP, line_track
from retrieval_oracle import scan_similar


def _db_from_lines(cfg, lines):
    """lines: (agent_id, first_frame, n, start, velocity) tuples."""
    tracks = [line_track(*line) for line in lines]
    return cc.build_database(tracks, cfg)


def _agents(db, hits):
    return [db.agent_ids[db.agent_codes[i]] for _, i in hits]


class TestSampleScore:
    """Score terms, checked through the production search on a database
    holding one sample."""

    def _score(self, cfg, pose, pos, direction):
        # a three-point track whose last point sits at ``pos`` with average
        # direction ``direction``
        pos = np.asarray(pos, float)
        back = pos - np.asarray(direction, float)
        tr = cc.Trajectory.from_frame_grid("s", np.arange(3),
                                           np.array([back, back, pos]), STEP)
        db = cc.build_database([tr], cfg)
        assert np.array_equal(db.directions[0], direction)
        hits = query_similar(db, pose, cfg, k=1)
        return hits[0][0] if hits else None

    def test_distance_and_direction_terms(self, cfg):
        pose = QueryPose("q", np.zeros(2), np.array([1.0, 0.0]))
        assert self._score(cfg, pose, (5.0, 0.0), (2.0, 0.0)) \
            == pytest.approx(0.5)
        score = self._score(cfg, pose, (5.0, 0.0), (0.0, 1.0))
        assert score == pytest.approx(0.5 + 1.0)

    def test_opposing_sample_excluded(self, cfg):
        pose = QueryPose("q", np.zeros(2), np.array([1.0, 0.0]))
        assert self._score(cfg, pose, (1.0, 0.0), (-1.0, 0.1)) is None

    def test_stationary_query_keeps_all(self, cfg):
        pose = QueryPose("q", np.zeros(2), np.zeros(2))
        score = self._score(cfg, pose, (5.0, 0.0), (-1.0, 0.0))
        assert score == pytest.approx(0.5)

    def test_direction_weight_config(self):
        cfg = cc.Config(direction_weight=2.0)
        pose = QueryPose("q", np.zeros(2), np.array([1.0, 0.0]))
        score = self._score(cfg, pose, (0.0, 0.0), (0.0, 1.0))
        assert score == pytest.approx(2.0)


class TestQuerySimilar:
    def test_one_best_sample_per_agent(self, cfg):
        db = _db_from_lines(cfg, [
            ("near", 0, 20, (1.0, 0.0), (1.0, 0.0)),
            ("far", 0, 20, (50.0, 0.0), (1.0, 0.0)),
        ])
        pose = QueryPose("q", np.array([2.0, 0.0]), np.array([1.0, 0.0]))
        hits = query_similar(db, pose, cfg, k=5)
        assert _agents(db, hits) == ["near", "far"]

    def test_self_and_exclusions_dropped(self, cfg):
        db = _db_from_lines(cfg, [
            ("q", 0, 10, (0.0, 0.0), (1.0, 0.0)),
            ("mate", 0, 10, (0.0, 0.5), (1.0, 0.0)),
            ("other", 0, 10, (0.0, 1.0), (1.0, 0.0)),
        ])
        pose = QueryPose("q", np.zeros(2), np.array([1.0, 0.0]))
        hits = query_similar(db, pose, cfg, k=5, exclude=("mate", "absent"))
        assert _agents(db, hits) == ["other"]

    def test_tie_broken_by_natural_id(self, cfg):
        db = _db_from_lines(cfg, [
            ("10", 0, 10, (0.0, 2.0), (1.0, 0.0)),
            ("9", 0, 10, (0.0, -2.0), (1.0, 0.0)),
        ])
        pose = QueryPose("q", np.array([9 * STEP, 0.0]), np.array([1.0, 0.0]))
        hits = query_similar(db, pose, cfg, k=2)
        assert _agents(db, hits) == ["9", "10"]
        assert hits[0][0] == hits[1][0]

    def test_matches_scan_with_against_flow_samples(self, cfg):
        rng = np.random.default_rng(21)
        lines = [(f"t{i}", 0, int(rng.integers(3, 25)),
                  rng.uniform(-20, 20, 2), rng.uniform(-1.5, 1.5, 2))
                 for i in range(40)]
        db = _db_from_lines(cfg, lines)
        for _ in range(10):
            pose = QueryPose("q", rng.uniform(-20, 20, 2),
                             rng.uniform(-1.5, 1.5, 2))
            assert query_similar(db, pose, cfg) == scan_similar(db, pose, cfg)

    def test_empty_database(self, cfg):
        db = cc.build_database([], cfg)
        pose = QueryPose("q", np.zeros(2), np.array([1.0, 0.0]))
        assert query_similar(db, pose, cfg) == []


AGENTS = ("a", "b", "9", "10")
LATTICE = 0.5
LATTICE_POINTS = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
MOVES = st.sampled_from([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (0, 0)])
# zero, at, just below and just above the stationary norm 1e-9, or a step
# of the lattice
QUERY_DIRECTIONS = st.one_of(
    st.sampled_from([(0.0, 0.0), (1e-9, 0.0), (1e-9 * (1 - 1e-6), 0.0),
                     (1e-9 * (1 + 1e-6), 0.0), (0.0, -1e-9 * (1 + 1e-6))]),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    .map(lambda d: (d[0] * LATTICE, d[1] * LATTICE)))


@st.composite
def lattice_tracks(draw):
    """0-12 tracks of 3-30 lattice points, as (agent id, first frame, points)
    tuples. Ids come from a pool of four, so one id often holds adjacent and
    non-adjacent tracks, and distances tie exactly. Some tracks copy an
    earlier one, under a new id or under its own id with its first points
    cut, so one agent reaches one score at two steps; some open with a
    stationary stretch, whose directions are exactly zero. Moves head every
    way, so many samples run against the query's flow."""
    tracks = []
    for t in range(draw(st.integers(0, 12))):
        if tracks and draw(st.integers(0, 4)) == 0:
            aid, first, points = tracks[draw(st.integers(0, len(tracks) - 1))]
            cut = draw(st.integers(0, len(points) - 3))
            tracks.append((draw(st.sampled_from([f"copy{t}", aid])), first + cut,
                           points[cut:]))
            continue
        n = draw(st.integers(3, 30))
        still = draw(st.integers(0, n - 1))
        moves = [(0, 0)] * still + draw(st.lists(MOVES, min_size=n - 1 - still,
                                                 max_size=n - 1 - still))
        points = [draw(LATTICE_POINTS)]
        for dx, dy in moves:
            points.append((points[-1][0] + dx, points[-1][1] + dy))
        tracks.append((draw(st.sampled_from(AGENTS)), draw(st.integers(0, 5)), points))
    return tracks


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(tracks=lattice_tracks(), agent=st.sampled_from(AGENTS + ("q",)),
       pos=LATTICE_POINTS, direction=QUERY_DIRECTIONS,
       exclude=st.lists(st.sampled_from(AGENTS + ("absent", "copy3")), max_size=3),
       k=st.integers(1, 16))
# two adjacent tracks of one agent that both reach score 0.0, the first at
# step 9 and the second at step 4: the agent's best sample is the step 4 one
@example(tracks=[("a", 0, [(i - 8, 0) for i in range(10)]),
                 ("a", 0, [(i - 3, 0) for i in range(6)])],
         agent="q", pos=(0, 0), direction=(0.0, 0.0), exclude=[], k=2)
def test_query_equals_scan_oracle(tracks, agent, pos, direction, exclude, k):
    cfg = cc.Config()
    db = cc.build_database(
        [cc.Trajectory.from_frame_grid(aid, np.arange(first, first + len(points)),
                                       np.array(points, float) * LATTICE, STEP)
         for aid, first, points in tracks], cfg)
    pose = QueryPose(agent, np.array(pos, float) * LATTICE, np.array(direction))
    assert (query_similar(db, pose, cfg, k=k, exclude=exclude)
            == scan_similar(db, pose, cfg, k=k, exclude=exclude))


class TestLinearContinuation:
    def test_constant_velocity_track(self, cfg):
        tr = line_track("a", 0, 10, (0.0, 0.0), (1.0, 0.0))
        dest = linear_continuation(tr, cfg)
        expected_x = tr.positions[-1, 0] \
            + cfg.predict_time_steps * cfg.step_duration
        assert np.allclose(dest, [expected_x, 0.0], atol=1e-9)

    def test_stationary_track_stays(self, cfg):
        tr = line_track("a", 0, 10, (2.0, 3.0), (0.0, 0.0))
        assert np.allclose(linear_continuation(tr, cfg), [2.0, 3.0])


class TestCandidateDestinations:
    def test_k_plus_one_with_linear_last(self, cfg):
        lines = [(f"h{i}", 0, 15, (0.0, 2.0 * i), (1.0, 0.0))
                 for i in range(8)]
        db = _db_from_lines(cfg, lines)
        traj = line_track("subject", 0, 15, (0.5, 0.1), (1.0, 0.0))
        cands = candidate_destinations(db, traj, cfg)
        assert len(cands) == cfg.k_candidates + 1
        assert cands[-1].provenance == LINEAR_PROVENANCE
        assert cands[-1].score is None
        assert all(c.provenance.startswith("db:") for c in cands[:-1])
        scores = [c.score for c in cands[:-1]]
        assert scores == sorted(scores)

    def test_small_database_gives_fewer(self, cfg):
        db = _db_from_lines(cfg, [("h0", 0, 15, (0.0, 0.0), (1.0, 0.0))])
        traj = line_track("subject", 0, 15, (0.5, 0.1), (1.0, 0.0))
        cands = candidate_destinations(db, traj, cfg)
        assert len(cands) == 2
        assert cands[-1].provenance == LINEAR_PROVENANCE

    def test_query_pose_uses_final_state(self):
        tr = line_track("a", 0, 5, (0.0, 0.0), (2.0, 0.0))
        pose = query_pose(tr)
        assert np.array_equal(pose.pos, tr.positions[-1])
        assert pose.direction[0] > 0 and abs(pose.direction[1]) < 1e-12
