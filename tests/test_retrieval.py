"""Destination retrieval: scoring, search equivalence, candidate assembly."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crowdcast as cc
from crowdcast import retrieval
from crowdcast.pipeline import detect_groups, group_candidates
from crowdcast.retrieval import (
    LINEAR_PROVENANCE,
    Candidate,
    QueryPose,
    candidate_destinations,
    linear_continuation,
    query_pose,
    query_similar,
    rank_queries,
    track_candidates,
)

from conftest import STEP, benchmark_tracks, line_track, random_track
from retrieval_oracle import scan_similar
from test_core import clip_then_build, window_tracks


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


def _lattice_database(cfg, tracks):
    return cc.build_database(
        [cc.Trajectory.from_frame_grid(aid, np.arange(first, first + len(points)),
                                       np.array(points, float) * LATTICE, STEP)
         for aid, first, points in tracks], cfg)


# a query is at a lattice point, far out (1e6 m), or not finite; it heads
# along a lattice step, stands still near the stationary norm, or its
# direction is NaN
QUERY_POINTS = st.one_of(
    LATTICE_POINTS.map(lambda p: (p[0] * LATTICE, p[1] * LATTICE)),
    st.tuples(st.sampled_from([1e6, -1e6, 3e5]), st.sampled_from([0.0, 1e6, -2e6])),
    st.sampled_from([(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (-np.inf, np.inf)]))
QUERIES = st.tuples(
    st.sampled_from(AGENTS + ("q",)), QUERY_POINTS,
    st.one_of(QUERY_DIRECTIONS, st.just((np.nan, 1.0))),
    st.lists(st.sampled_from(AGENTS + ("absent", "copy3")), max_size=3))


@st.composite
def query_sets(draw):
    """1-8 queries; some repeat an earlier one exactly."""
    queries = []
    for _ in range(draw(st.integers(1, 8))):
        if queries and draw(st.integers(0, 3)) == 0:
            queries.append(queries[draw(st.integers(0, len(queries) - 1))])
        else:
            queries.append(draw(QUERIES))
    return queries


def _one_query(db, cfg, agent, pos, direction, exclude, k):
    """The scan's answer for one query: a NaN coordinate scores every
    sample NaN, so nothing ranks; a NaN direction has no length at least
    the stationary norm, so it counts as still."""
    if np.isnan(pos).any():
        return []
    if np.isnan(direction).any():
        direction = np.zeros(2)
    return scan_similar(db, QueryPose(agent, pos, direction), cfg, k=k, exclude=exclude)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tracks=lattice_tracks(), queries=query_sets(), k=st.integers(1, 16))
@example(tracks=[], queries=[("q", (0.0, 0.0), (1.0, 0.0), [])], k=3)
def test_batch_equals_one_query_scans(tracks, queries, k):
    """One ``rank_queries`` pass over a query set gives each query exactly
    the one-query scan's hits, scores bit for bit, with duplicate, far and
    non-finite queries mixed in, k above the agent count and empty
    databases."""
    cfg = cc.Config()
    db = _lattice_database(cfg, tracks)
    positions = np.array([p for _, p, _, _ in queries], dtype=float)
    directions = np.array([d for _, _, d, _ in queries], dtype=float)
    excluded = [(agent, *exclude) for agent, _, _, exclude in queries]
    q, score, index = rank_queries(db, positions, directions, excluded, cfg, k)
    assert np.array_equal(q, np.sort(q, kind="stable"))
    for j, (agent, _, _, exclude) in enumerate(queries):
        got = list(zip(score[q == j].tolist(), index[q == j].tolist()))
        assert got == _one_query(db, cfg, agent, positions[j], directions[j], exclude, k)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_search(got, want, queries, k):
    """Ranking and candidates on the databases ``got`` and ``want`` equal
    byte for byte; the candidates for 2-point tracks ending at the finite
    queries' positions."""
    cfg = cc.Config(known_time_steps=2)
    positions = np.array([p for _, p, _, _ in queries], dtype=float)
    directions = np.array([d for _, _, d, _ in queries], dtype=float)
    excluded = [(agent, *exclude) for agent, _, _, exclude in queries]
    ranked = [rank_queries(db, positions, directions, excluded, cfg, k) for db in (got, want)]
    assert all(_same_bits(a, b) for a, b in zip(*ranked))
    finite = np.isfinite(positions).all(axis=1) & np.isfinite(directions).all(axis=1)
    stack = np.stack([positions - directions, positions], axis=1)[finite]
    times = np.tile(np.arange(2) * STEP, (len(stack), 1))
    excluded = [e for e, f in zip(excluded, finite) if f]
    cands = [track_candidates(db, stack, times, excluded, cfg) for db in (got, want)]
    for a, b in zip(*cands):
        assert [(c.provenance, repr(c.score)) for c in a] == \
            [(c.provenance, repr(c.score)) for c in b]
        assert all(_same_bits(c.destination, d.destination) for c, d in zip(a, b))


# a window whose stored samples reach each side of every ladder boundary: 8
# tracks of 25 lattice points starting 3 frames apart, 184 samples in all
LADDER_RUN = [cc.Trajectory.from_frame_grid(
    ("a", "b", "10")[i % 3], np.arange(3 * i, 3 * i + 25),
    np.cumsum(np.random.default_rng(i).integers(-1, 2, (25, 2)), axis=0) * LATTICE, STEP)
    for i in range(8)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tracks=window_tracks(), known=st.integers(2, 5), queries=query_sets(),
       k=st.integers(1, 8))
@example(tracks=LADDER_RUN, known=3, k=4, queries=[
    ("q", (0.0, 0.0), (0.5, 0.0), []), ("a", (1.0, -0.5), (0.0, 0.0), ["b"]),
    ("q", (1e6, 0.0), (0.5, 0.5), []), ("10", (0.5, 0.5), (-0.5, 0.0), ["a", "10"])])
def test_window_search_equals_a_grid_of_its_own(tracks, known, queries, k):
    """At every endtime, a window's database searches the run's ladder level
    that holds it and drops the later rows; a database of the clipped
    tracks searches a grid built for the window alone. Both give the same
    queries, scores and sample indices, and the same candidate
    destinations, provenance and scores, byte for byte: with exact score
    ties on the lattice, exclusions, far and non-finite queries (whose
    square is the whole grid) and windows with no sample."""
    cfg = cc.Config(known_time_steps=known)
    run = cc.Tracks(tracks)
    last = max((int(tr.frames[-1]) for tr in tracks), default=0)
    for endtime in range(-2, last + known + 3):
        try:
            want = clip_then_build(tracks, cfg, endtime)
        except cc.DataError:
            continue
        got = cc.build_database(run, cfg, endtime=endtime)
        assert len(got) == len(want)
        _assert_same_search(got, want, queries, k)


def test_each_window_searches_the_smallest_level_holding_it():
    # LADDER_RUN at every endtime: a window's level holds its samples, and
    # fewer than about twice as many rows; a larger window never searches a
    # smaller level, so the windows on each side of a level's size search
    # adjacent levels; and the run builds one grid per level, all
    # ceil(log2(184)) + 1 = 9 of them
    cfg = cc.Config(known_time_steps=3)
    run = cc.Tracks(LADDER_RUN)
    n = len(run.sample_rows)
    assert n == 184
    levels = {}
    for endtime in range(0, 100):
        db = cc.build_database(run, cfg, endtime=endtime)
        if not len(db):
            continue
        rows = db.grid.order
        window = np.flatnonzero(run.frames[run.sample_rows] < endtime - 2)
        assert len(window) == len(db)
        assert np.isin(run.sample_rows[window], rows).all()
        assert len(rows) < 2 * len(db) + 8       # ties at the level's last frame
        levels.setdefault(len(rows), set()).add(len(db))
    sizes = sorted(levels)
    assert len(sizes) == len(run._levels) == 9
    for small, big in zip(sizes, sizes[1:]):
        assert max(levels[small]) < min(levels[big])


def test_group_candidates_equal_one_track_calls(cfg):
    """A window's batched candidates equal one ``candidate_destinations``
    call per group center, destinations and scores bit for bit."""
    tracks = benchmark_tracks(12)
    db = cc.build_database(tracks, cfg, endtime=99)
    _, states = detect_groups(tracks, 99, cfg)
    assert len(states) == 12
    for batch, st_ in zip(group_candidates(db, states, cfg), states):
        one = candidate_destinations(db, st_.center_trajectory, cfg, exclude=st_.members)
        assert len(batch) == len(one) == cfg.k_candidates + 1
        for b, o in zip(batch, one):
            assert b.destination.tobytes() == o.destination.tobytes()
            assert (b.provenance, repr(b.score)) == (o.provenance, repr(o.score))


def _spy_rows(monkeypatch) -> list:
    """Rows scored per block of :func:`retrieval._rank` calls."""
    rows, original = [], retrieval._rank

    def spy(db, *args):
        rows.append(len(args[-1]))
        return original(db, *args)

    monkeypatch.setattr(retrieval, "_rank", spy)
    return rows


def test_rank_scores_no_row_of_the_window_or_after(monkeypatch):
    """At recording-like windows the ladder level a window searches holds
    rows of its future, yet every row ``_rank`` is handed, for the groups'
    batch and for one-pose queries, lies before the window's frame limit;
    the hits equal the scan oracle's."""
    from test_evaluate import TestLongRecordingCost

    cfg = cc.Config(known_time_steps=8, predict_time_steps=8, min_overlap_frames=4)
    tracks = cc.Tracks(TestLongRecordingCost.recording(150))
    seen, original = [], retrieval._rank

    def spy(db, *args):
        seen.append((db.limit, args[-1]))
        return original(db, *args)

    monkeypatch.setattr(retrieval, "_rank", spy)
    future = 0
    for endtime in range(30, 150, 20):
        db = cc.build_database(tracks, cfg, endtime=endtime)
        future += int((tracks.frames[db.grid.order] >= db.limit).sum())
        _, states = detect_groups(tracks, endtime, cfg)
        assert len(group_candidates(db, states, cfg)) == len(states) > 0
        for st_ in states[:3]:
            pose = query_pose(st_.center_trajectory)
            assert query_similar(db, pose, cfg, exclude=st_.members) == \
                scan_similar(db, pose, cfg, exclude=st_.members)
    assert future > 0 and seen
    assert all((tracks.frames[ids] < limit).all() for limit, ids in seen)


def _far_apart_groups(cfg, side):
    """``side``² clusters 10 km apart: each has six local walkers of 30
    points as its history and one group of two walking beside them over
    frames 30-59."""
    tracks = []
    for i in range(side * side):
        origin = np.array([i // side, i % side], float) * 1e4
        tracks += [line_track(f"h{i}_{j}", 0, 30, origin + (0.0, 2.0 * j), (1.0, 0.1))
                   for j in range(6)]
        tracks += [line_track(f"g{i}_{j}", 30, 30, origin + (1.0, 5.0 + 0.5 * j), (1.0, 0.1))
                   for j in range(2)]
    return tracks


def test_rows_scored_grow_linearly_with_far_apart_groups(monkeypatch, cfg):
    # 4 and 16 groups, each over its own local history: the rows each
    # query scores do not depend on how many other groups there are
    counts = []
    for side in (2, 4):
        tracks = _far_apart_groups(cfg, side)
        db = cc.build_database(tracks, cfg, endtime=59)
        _, states = detect_groups(tracks, 59, cfg)
        assert len(states) == side * side
        rows = _spy_rows(monkeypatch)
        group_candidates(db, states, cfg)
        counts.append(sum(rows))
    assert 0 < counts[1] <= 4 * 1.1 * counts[0], counts


def _far_queries(cfg, n_tracks, count=6):
    """A database of ``n_tracks`` random walks of 30 points (28 samples
    each) within 25 m of the origin, and ``count`` queries 1e6 m or more
    away."""
    rng = np.random.default_rng(50)
    db = cc.build_database([random_track(rng, f"h{i % 30}", 0, 30, scale=20.0)
                            for i in range(n_tracks)], cfg)
    far = np.array([[1e6, 0.0], [-1e6, 1e6], [0.0, -1e6], [1e6, 1e6], [3e6, -1e5],
                    [-2e6, 0.0]])[:count]
    return db, far, np.tile([1.0, 0.5], (count, 1)), [("q",)] * count


def test_rows_scored_grow_linearly_with_the_database_for_far_queries(monkeypatch, cfg):
    # queries 1e6 m away end in the whole database: their rows follow its
    # size, N and 4N
    counts = []
    for n_tracks in (40, 160):
        db, *query = _far_queries(cfg, n_tracks)
        assert len(db) == 28 * n_tracks
        rows = _spy_rows(monkeypatch)
        rank_queries(db, *query, cfg)
        counts.append(sum(rows))
    assert 0 < counts[1] <= 4 * 1.1 * counts[0], counts


def test_far_queries_score_in_blocks_within_the_row_budget(monkeypatch, cfg):
    # six far queries end in the whole database of N samples each; with a
    # budget of N rows they are scored one block at a time, never six at once
    db, *query = _far_queries(cfg, 80)
    want = rank_queries(db, *query, cfg)
    monkeypatch.setattr(retrieval, "_BLOCK_ROWS", len(db))
    rows = _spy_rows(monkeypatch)
    got = rank_queries(db, *query, cfg)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert max(rows) <= len(db) < sum(rows), rows


class TestSearchRoundCost:
    """The round slice of the cost family: one query at the near end of a
    line of samples n and then 4n grid cells long, whose k agents wait at
    the far end while every sample between heads against the query. A
    square short of k agents grows four times as wide per round, so the
    ``_rank`` rounds are of order log n, base 4: at 4n, one more at most
    (doubling would take two)."""

    ROUNDS_ORDER = "log n"
    MORE_ROUNDS_AT_4N = 1

    @staticmethod
    def database(cfg, cells):
        """``cells`` grid cells of 4 samples each along the x axis, every
        sample heading -x, and ``k_candidates`` agents heading +x at its
        far end."""
        n = 4 * cells
        end = (n - 1) * 0.25
        tracks = [cc.Trajectory.from_frame_grid(
            f"f{i}", np.arange(3), np.array([[x + 2.0, 0.0], [x + 1.0, 0.0], [x, 0.0]]),
            STEP) for i, x in enumerate(np.arange(n) * 0.25)]
        tracks += [cc.Trajectory.from_frame_grid(
            f"a{j}", np.arange(3), np.array([[end - 2.0, 0.0], [end - 1.0, 0.0], [end, 0.0]]),
            STEP) for j in range(cfg.k_candidates)]
        return cc.build_database(tracks, cfg)

    def rounds(self, monkeypatch, cfg, cells) -> tuple:
        db = self.database(cfg, cells)
        pose = QueryPose("q", np.zeros(2), np.array([1.0, 0.0]))
        rows = _spy_rows(monkeypatch)
        hits = query_similar(db, pose, cfg)
        assert hits == scan_similar(db, pose, cfg)
        assert {db.agent_ids[db.agent_codes[i]] for _, i in hits} == {
            f"a{j}" for j in range(cfg.k_candidates)}
        return len(rows), int(db.grid.last[0]) + 1

    def test_rounds_grow_by_one_at_4n(self, monkeypatch, cfg):
        rounds, wide = self.rounds(monkeypatch, cfg, 16)
        rounds4, wide4 = self.rounds(monkeypatch, cfg, 64)
        assert wide4 >= 4 * wide - 4, (wide, wide4)
        assert rounds4 <= rounds + self.MORE_ROUNDS_AT_4N, (rounds, rounds4)


def _walks(seed, n_tracks=80, scale=20.0, offset=(0.0, 0.0)):
    """Random-walk tracks of 3-30 points around ``offset``; the ids come
    from a pool of 30, so an agent often holds several tracks."""
    rng = np.random.default_rng(seed)
    tracks = [random_track(rng, f"h{i % 30}", n=int(rng.integers(3, 31)), scale=scale)
              for i in range(n_tracks)]
    return [cc.Trajectory(tr.agent_id, tr.frames, tr.times, tr.positions + offset)
            for tr in tracks]


def _poses(rng, count, center, spread):
    """Queries around ``center``, heading every way, one of them still."""
    return [QueryPose("q", np.asarray(center) + rng.uniform(-spread, spread, 2),
                      rng.normal(0.0, 1.0, 2) if i else np.zeros(2))
            for i in range(count)]


def _line_database(cfg, offset=0.0):
    """64 samples on the x axis, in a grid that the database picks with
    side 1 m from 0 m: one per track, each a three-point track heading +x,
    so every direction term is exactly 0. Agents at x = 1.75 (e), 2 (b),
    3 (c), 4 (d), 4.5 (g) and 5 (a), the rest filler at 0 and 32, on cell
    edges."""
    at = {"a": 5.0, "b": 2.0, "c": 3.0, "d": 4.0, "e": 1.75, "g": 4.5}
    at.update({f"f{i:02d}": 0.0 if i % 2 else 32.0 for i in range(58)})
    tracks = [cc.Trajectory.from_frame_grid(
        aid, np.arange(3), np.array([[x - 2.0, 0.0], [x - 1.0, 0.0], [x, 0.0]]) + offset,
        STEP) for aid, x in at.items()]
    return cc.build_database(tracks, cfg)


class TestGridIndexMatchesScan:
    """The grid search returns exactly what the one-sample-at-a-time scan
    returns, scores bit for bit, wherever the query and the samples lie."""

    @staticmethod
    def _check(db, cfg, poses, ks=(1, 3, 5, 40), exclude=()):
        for pose in poses:
            for k in ks:
                assert (query_similar(db, pose, cfg, k=k, exclude=exclude)
                        == scan_similar(db, pose, cfg, k=k, exclude=exclude)), (pose, k)

    @pytest.mark.parametrize("weight", [-1.0, 0.0, 1.0])
    def test_direction_weights(self, weight):
        cfg = cc.Config(direction_weight=weight)
        db = cc.build_database(_walks(31), cfg)
        self._check(db, cfg, _poses(np.random.default_rng(32), 12, (0.0, 0.0), 25.0))

    @pytest.mark.parametrize("weight", [-1.0, 1.0])
    def test_query_far_from_every_sample(self, weight):
        cfg = cc.Config(direction_weight=weight)
        db = cc.build_database(_walks(33), cfg)
        far = [QueryPose("q", np.array(c) * 1e6, np.array(d))
               for c in ((1, 0), (-1, 1), (0, -1), (1, 1))
               for d in ((1.0, 0.0), (0.0, 0.0), (-1.0, 0.5))]
        self._check(db, cfg, far)

    def test_far_query_beyond_a_tiny_database(self, cfg):
        # 10,000 samples within about a nanometre, so a query 1e5 m or more
        # away has a cell index past 2**53, where one cell more no longer
        # changes a float and the rounding slack spans many cells
        rng = np.random.default_rng(42)
        tracks = [cc.Trajectory.from_frame_grid(
            f"t{i}", np.arange(102),
            np.column_stack([np.arange(102) * 1e-12 + i * 1e-11, rng.uniform(0, 1e-11, 102)]),
            STEP) for i in range(100)]
        db = cc.build_database(tracks, cfg)
        assert 1e5 / db.grid.side > 2.0 ** 53
        self._check(db, cfg, [QueryPose("q", np.array(q), np.array([1.0, 0.0]))
                              for q in ((1e6, 0.0), (-1e7, 3e-12), (1e8, 1e8), (3e5, -2e5))],
                    ks=(1, 5))

    def test_exclusions_remove_every_nearby_agent(self, cfg):
        db = cc.build_database(_walks(34), cfg)
        rng = np.random.default_rng(35)
        for pose in _poses(rng, 8, (0.0, 0.0), 10.0):
            near = np.sqrt(np.vecdot(db.positions - pose.pos, db.positions - pose.pos)) < 8.0
            exclude = sorted({db.agent_ids[c] for c in db.agent_codes[near]})
            assert exclude
            self._check(db, cfg, [pose], exclude=exclude)

    def test_fewer_agents_than_k(self, cfg):
        tracks = [tr for tr in _walks(36, n_tracks=12) if tr.agent_id in ("h1", "h4", "h7")]
        db = cc.build_database(tracks, cfg)
        assert len(db.agent_ids) == 3
        self._check(db, cfg, _poses(np.random.default_rng(37), 8, (0.0, 0.0), 30.0),
                    ks=(2, 3, 5))

    @pytest.mark.parametrize("offset", [(1e9 - 25.0, -1e9 + 25.0), (-1e9 + 25.0, 1e9 - 25.0)])
    def test_coordinates_near_the_scale_limit(self, cfg, offset):
        db = cc.build_database(_walks(38, offset=np.array(offset)), cfg)
        self._check(db, cfg, _poses(np.random.default_rng(39), 10, offset, 25.0))

    @pytest.mark.parametrize("offset", [0.0, 1e9 - 40.0, -1e9 + 8.0])
    def test_tie_exactly_at_the_stop_bound(self, cfg, offset):
        # from (3.5, 0), the middle of cell 3, the first square (cells 2-4)
        # ends 1.5 m away each side: b at x = 2 lies in it and a at x = 5
        # just outside it, both 1.5 m away, so both score exactly the
        # bound 0.15. With c, d and g excluded, a must win on its id; a
        # search that stopped at the bound would return b
        db = _line_database(cfg, offset)
        assert db.grid.side == 1.0 and db.grid.origin.tolist() == [offset, offset]
        pose = QueryPose("q", np.array([3.5, 0.0]) + offset, np.array([1.0, 0.0]))
        exclude = ("c", "d", "g")
        hits = query_similar(db, pose, cfg, k=1, exclude=exclude)
        assert _agents(db, hits) == ["a"] and hits[0][0] == 0.15
        self._check(db, cfg, [pose], ks=(1, 2, 3), exclude=exclude)

    def test_nearest_edge_bounds_the_square(self, cfg):
        # from (3.1, 0) the first square (cells 2-4) ends 1.1 m away on the
        # left and 1.9 m on the right. Its 4th best agent, g at x = 4.5, is
        # 1.4 m away, so e at x = 1.75, 1.35 m away beyond the left edge,
        # must still be found
        db = _line_database(cfg)
        pose = QueryPose("q", np.array([3.1, 0.0]), np.array([1.0, 0.0]))
        assert _agents(db, query_similar(db, pose, cfg, k=4)) == ["c", "d", "b", "e"]
        self._check(db, cfg, [pose], ks=(3, 4, 5))

    def test_samples_and_queries_on_cell_edges(self, cfg):
        db = _line_database(cfg)
        assert db.grid.side == 1.0
        poses = [QueryPose("q", np.array([x, y]), np.array(d))
                 for x in [*np.arange(-1.0, 7.0, 0.5), 31.5, 32.0, 33.0] for y in (0.0, 0.5, -1.0)
                 for d in ((1.0, 0.0), (0.0, 0.0))]
        for exclude in ((), ("c", "d"), ("a", "b", "c", "d", "e", "g")):
            self._check(db, cfg, poses, ks=(1, 3, 5), exclude=exclude)

    def test_non_finite_samples_never_ranked(self, cfg):
        tracks = _walks(40, n_tracks=30)
        bad = [cc.Trajectory.from_frame_grid(
            f"bad{i}", np.arange(3), np.array([[0.0, 0.0], [1.0, 0.0], p]), STEP)
            for i, p in enumerate(([np.nan, 0.0], [0.0, np.nan]))]
        clean, dirty = cc.build_database(tracks, cfg), cc.build_database(tracks + bad, cfg)
        for pose in _poses(np.random.default_rng(41), 8, (0.0, 0.0), 20.0):
            for k in (1, 5, 60):
                want = [(s, clean.steps[i], clean.agent_ids[clean.agent_codes[i]])
                        for s, i in query_similar(clean, pose, cfg, k=k)]
                got = [(s, dirty.steps[i], dirty.agent_ids[dirty.agent_codes[i]])
                       for s, i in query_similar(dirty, pose, cfg, k=k)]
                assert got == want


def test_query_cost_follows_nearby_samples():
    # 1.16M samples: 11,600 random walks of 102 points over 100 m x 100 m.
    # A query whose k best lie nearby ranks the samples of a few grid
    # cells, where scoring every sample takes about 100 ns each, 117 ms in
    # all. A query 1e6 m away ends in the whole database and still returns
    cfg = cc.Config()
    rng = np.random.default_rng(7)
    walks = rng.uniform(0.0, 100.0, (11_600, 1, 2)) \
        + np.cumsum(rng.normal(0.0, 0.3, (11_600, 102, 2)), axis=1)
    walks = 100.0 - np.abs(100.0 - np.mod(walks, 200.0))   # reflected into the square
    frames = np.arange(102)
    db = cc.build_database([cc.Trajectory.from_frame_grid(f"w{i}", frames, w, STEP)
                            for i, w in enumerate(walks)], cfg)
    assert len(db) == 1_160_000
    db.grid   # built on the first query; timed apart from the queries
    took = []
    for x, y in ((50.0, 50.0), (20.0, 70.0), (85.0, 10.0)):
        pose = QueryPose("q", np.array([x, y]), np.array([1.0, 0.5]))
        t0 = time.perf_counter()
        hits = query_similar(db, pose, cfg)
        took.append(time.perf_counter() - t0)
        assert len(hits) == cfg.k_candidates and hits[-1][0] < 0.5
    assert sorted(took)[1] < 5e-3, took
    pose = QueryPose("q", np.array([1e6, 1e6]), np.array([1.0, 0.5]))
    t0 = time.perf_counter()
    assert len(query_similar(db, pose, cfg)) == cfg.k_candidates
    assert time.perf_counter() - t0 < 10.0


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

    def test_one_point_track(self, cfg):
        # no movement yet: a still pose, a continuation that stays put, and
        # the database ranked without the direction term
        db = _db_from_lines(cfg, [(f"h{i}", 0, 15, (0.0, 2.0 * i), (1.0, 0.0))
                                  for i in range(8)])
        tr = line_track("a", 0, 1, (0.5, 0.1), (1.0, 0.0))
        pose = query_pose(tr)
        assert np.array_equal(pose.pos, tr.positions[-1])
        assert np.array_equal(pose.direction, np.zeros(2))
        assert np.array_equal(linear_continuation(tr, cfg), tr.positions[-1])
        cands = candidate_destinations(db, tr, cfg)
        assert cands[-1].provenance == LINEAR_PROVENANCE
        assert np.array_equal(cands[-1].destination, tr.positions[-1])
        assert ([(c.score, c.provenance) for c in cands[:-1]]
                == [(s, f"db:{db.agent_ids[db.agent_codes[i]]}@step{db.steps[i]}")
                    for s, i in scan_similar(db, pose, cfg)])
