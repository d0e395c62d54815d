"""Displacement metrics and the experiment runner."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdcast as cc
from crowdcast import core, retrieval
from crowdcast.core import DataError, Trajectory
from crowdcast.dynamics import (MODES, ForceParams, ReconstructionPolicy, gather_members,
                                member_deviations, member_positions, reconstruct_members)
from crowdcast.evaluate import (
    Window,
    ade,
    fde,
    min_over_candidates,
    run_experiment,
)
from crowdcast.pipeline import predict_at_endtime
from crowdcast.retrieval import Candidate, query_pose

import evaluate_oracle
from conftest import STEP, benchmark_tracks, line_track


def _grid(agent_id, frames, positions):
    return Trajectory.from_frame_grid(agent_id, frames, positions, STEP)


class TestAdeFde:
    def test_hand_computed_offsets(self):
        gt = _grid("gt", [0, 1, 2], [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        pred = _grid("p", [0, 1, 2], [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert ade(pred, gt) == pytest.approx(1.0)
        assert fde(pred, gt) == pytest.approx(2.0)

    def test_identical_tracks_score_zero(self):
        gt = _grid("gt", [5, 6, 7], [[0.0, 1.0], [0.5, 1.0], [1.0, 1.0]])
        assert ade(gt, gt) == 0.0
        assert fde(gt, gt) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        a = _grid("a", np.arange(6), rng.normal(size=(6, 2)))
        b = _grid("b", np.arange(6), rng.normal(size=(6, 2)))
        assert ade(a, b) == ade(b, a)
        assert fde(a, b) == fde(b, a)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(12)
        a = _grid("a", np.arange(8), rng.normal(size=(8, 2)))
        b = _grid("b", np.arange(8), rng.normal(size=(8, 2)))
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        shift = np.array([3.0, -2.0])
        a2 = _grid("a", a.frames, a.positions @ rot.T + shift)
        b2 = _grid("b", b.frames, b.positions @ rot.T + shift)
        assert ade(a2, b2) == pytest.approx(ade(a, b), abs=1e-12)
        assert fde(a2, b2) == pytest.approx(fde(a, b), abs=1e-12)

    def test_length_mismatch_rejected(self):
        gt = _grid("gt", [0, 1], [[0.0, 0.0], [1.0, 0.0]])
        pred = _grid("p", [0, 1, 2], np.zeros((3, 2)))
        with pytest.raises(DataError):
            ade(pred, gt)

    def test_frame_mismatch_rejected(self):
        gt = _grid("gt", [0, 1], [[0.0, 0.0], [1.0, 0.0]])
        pred = _grid("p", [1, 2], [[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DataError):
            ade(pred, gt)
        with pytest.raises(DataError):
            fde(pred, gt)

    def test_empty_rejected(self):
        empty = Trajectory("e", np.zeros(0, dtype=np.int64), np.zeros(0),
                           np.zeros((0, 2)))
        with pytest.raises(DataError):
            ade(empty, empty)
        with pytest.raises(DataError):
            fde(empty, empty)


class TestMinOverCandidates:
    def test_argmins_taken_independently(self):
        gt = _grid("gt", [0, 1, 2], np.zeros((3, 2)))
        steady = _grid("A", [0, 1, 2], np.full((3, 2), [0.4, 0.0]))
        late = _grid("B", [0, 1, 2], [[2.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
        min_ade, min_fde, (ai, fi) = min_over_candidates([steady, late], gt)
        assert min_ade == pytest.approx(0.4)
        assert min_fde == pytest.approx(0.0)
        assert (ai, fi) == (0, 1)

    def test_single_candidate(self):
        gt = _grid("gt", [0, 1], [[0.0, 0.0], [1.0, 0.0]])
        only = _grid("c", [0, 1], [[0.0, 0.3], [1.0, 0.3]])
        min_ade, min_fde, (ai, fi) = min_over_candidates([only], gt)
        assert min_ade == pytest.approx(0.3)
        assert min_fde == pytest.approx(0.3)
        assert (ai, fi) == (0, 0)

    def test_no_candidates_rejected(self):
        gt = _grid("gt", [0], [[0.0, 0.0]])
        with pytest.raises(DataError):
            min_over_candidates([], gt)


class TestWindow:
    def test_frame_arithmetic(self, cfg):
        w = Window(99)
        assert w.horizon_last(cfg) == 129


@pytest.fixture(scope="module")
def report():
    cfg = cc.Config()
    tracks = benchmark_tracks(4)
    params = ForceParams.from_config(cfg, substeps=1)
    return run_experiment(tracks, cc.SceneGeometry.empty(), [Window(99)],
                          cfg, params)


class TestRunExperiment:
    def test_counts_partition_the_tracks(self, report):
        row = report.rows[0]
        assert row.n_agents == 4
        assert row.n_skipped == 4
        assert row.n_groups == 4

    def test_accuracy_on_replayable_tracks(self, report):
        row = report.rows[0]
        assert row.min_ade < 0.05
        assert row.min_fde < 0.05
        assert report.overall_min_ade < 0.05
        assert 0.0 <= report.beats_baseline_fraction() <= 1.0

    def test_candidate_counts(self, report, cfg):
        assert report.k_used == cfg.k_candidates + 1
        for rec in report.agents:
            assert rec.n_candidates == report.k_used
            assert 0 <= rec.ade_argmin < rec.n_candidates
            assert 0 <= rec.fde_argmin < rec.n_candidates

    def test_agent_records_carry_window(self, report):
        assert {rec.endtime for rec in report.agents} == {99}
        assert {rec.group_size for rec in report.agents} == {1}
        assert {rec.emotion for rec in report.agents} == {1.0}

    def test_text_table_layout(self, report):
        table = report.text_table()
        lines = table.splitlines()
        assert lines[0] == "K = 6 candidates per group"
        assert "Endtime= 99" in lines[1]
        assert lines[2].startswith("hybrid")
        assert lines[3].startswith("baseline")
        assert lines[4].startswith("groups")
        assert lines[5].startswith("agents")
        assert "4 (4 skipped)" in lines[5]
        assert "--" not in table

    def test_csv_format(self, report):
        text = report.csv_bytes().decode()
        lines = text.splitlines()
        assert lines[0] == "endtime,min_ade,min_fde,n_agents,n_skipped"
        fields = lines[1].split(",")
        assert fields[0] == "99"
        assert float(fields[1]) == pytest.approx(report.rows[0].min_ade)
        assert fields[3] == "4"
        assert fields[4] == "4"

    def test_window_without_groups_yields_nan_row(self):
        cfg = cc.Config()
        tracks = benchmark_tracks(2)
        params = ForceParams.from_config(cfg, substeps=1)
        report = run_experiment(tracks, cc.SceneGeometry.empty(),
                                [Window(1000)], cfg, params)
        row = report.rows[0]
        assert row.n_agents == 0
        assert row.n_skipped == 4
        assert math.isnan(row.min_ade)
        assert "n/a" in report.text_table()
        assert "--" not in report.text_table()

    def test_k_override_visible_in_report(self):
        cfg = replace(cc.Config(), k_candidates=1)
        tracks = benchmark_tracks(2)
        params = ForceParams.from_config(cfg, substeps=1)
        report = run_experiment(tracks, cc.SceneGeometry.empty(), [Window(99)],
                                cfg, params)
        assert report.k_used == 2
        assert report.text_table().startswith("K = 2 candidates per group")
        for rec in report.agents:
            assert rec.n_candidates == 2

    def test_multiple_windows_one_row_each(self):
        cfg = cc.Config()
        tracks = benchmark_tracks(2)
        params = ForceParams.from_config(cfg, substeps=1)
        report = run_experiment(tracks, cc.SceneGeometry.empty(),
                                [Window(90), Window(99)], cfg, params)
        assert [r.endtime for r in report.rows] == [90, 99]
        table = report.text_table()
        assert "Endtime= 90" in table and "Endtime= 99" in table


@pytest.mark.parametrize("call", ["run_experiment", "constant_velocity_baseline",
                                  "linear_continuation", "query_pose",
                                  "candidate_destinations"])
def test_empty_track(call):
    # a track with no point counts toward no window's total; a query on it
    # names the agent instead of failing on its missing last point
    cfg = replace(cc.Config(), k_candidates=1)
    empty = Trajectory("ghost", np.zeros(0, dtype=np.int64), np.zeros(0),
                       np.zeros((0, 2)))
    if call == "run_experiment":
        tracks = benchmark_tracks(2)
        params = ForceParams.from_config(cfg, substeps=1)
        runs = [run_experiment(t, cc.SceneGeometry.empty(), [Window(99)], cfg, params)
                for t in (tracks, tracks + [empty])]
        assert runs[1].rows == runs[0].rows and runs[0].rows[0].n_skipped == 2
        return
    queries = {
        "constant_velocity_baseline": lambda: cc.constant_velocity_baseline(empty, 5, cfg),
        "linear_continuation": lambda: cc.linear_continuation(empty, cfg),
        "query_pose": lambda: query_pose(empty),
        "candidate_destinations": lambda: cc.candidate_destinations(
            cc.build_database(benchmark_tracks(2), cfg, 50), empty, cfg),
    }
    with pytest.raises(cc.TooFewPointsError, match="'ghost'"):
        queries[call]()


def test_beats_baseline_counts_ties_as_wins():
    from crowdcast.evaluate import AgentRecord, MetricReport, WindowRow

    def rec(min_ade, baseline_ade):
        return AgentRecord(0, "a", 1, 1.0, min_ade, 0.0, 0, 0,
                           baseline_ade, 0.0, 2)

    row = WindowRow(0, 3, 3, 0, 0.0, 0.0, 0.0, 0.0)
    report = MetricReport(2, (row,), (rec(0.5, 0.5), rec(0.4, 0.6),
                                      rec(0.7, 0.1)))
    assert report.beats_baseline_fraction() == pytest.approx(2.0 / 3.0)
    empty = MetricReport(2, (), ())
    assert math.isnan(empty.beats_baseline_fraction())


def test_jitter_mode_is_seed_deterministic():
    cfg = cc.Config()
    tracks = [line_track("p0", 40, 90, (0.0, 0.0), (1.0, 0.0))]
    k = np.arange(90)
    wiggle = np.column_stack([k * STEP, 0.4 + 0.06 * np.sin(0.7 * k)])
    tracks.append(Trajectory.from_frame_grid("p1", 40 + k, wiggle, STEP))
    tracks.append(line_track("hist", 0, 65, (-5.0, 0.2), (1.1, 0.0)))
    params = ForceParams.from_config(cfg, substeps=1)
    kw = dict(mode="seeded-jitter", seed=7)
    one = run_experiment(tracks, cc.SceneGeometry.empty(), [Window(99)],
                         cfg, params, **kw)
    two = run_experiment(tracks, cc.SceneGeometry.empty(), [Window(99)],
                         cfg, params, **kw)
    other = run_experiment(tracks, cc.SceneGeometry.empty(), [Window(99)],
                           cfg, params, mode="seeded-jitter", seed=8)
    assert [r.min_ade for r in one.agents] == [r.min_ade for r in two.agents]
    assert one.rows[0].n_agents == 2
    assert [r.min_ade for r in one.agents] != [r.min_ade for r in other.agents]


def test_directions_computed_once_per_track_over_windows(monkeypatch, cfg):
    # a run's tracks keep one table, so 20 windows compute each track's
    # directions once in all; every other call is one window's query poses,
    # all its groups at once (none in some windows)
    calls = []
    original = core._directions
    for module in (core, retrieval):
        monkeypatch.setattr(module, "_directions",
                            lambda positions: calls.append(1) or original(positions))
    tracks = cc.Tracks(benchmark_tracks(3))
    params = ForceParams.from_config(cfg, substeps=1)
    report = run_experiment(tracks, cc.SceneGeometry.empty(),
                            [Window(e) for e in range(60, 80)], cfg, params)
    groups = sum(r.n_groups for r in report.rows)
    assert len(report.rows) == 20 and groups >= 20
    assert len(calls) == len(tracks) + len(report.rows)


def test_experiment_on_read_tracks_equals_on_a_list(cfg):
    # the table read_canonical_csv builds and the one a list is converted
    # to give the same records and the same CSV
    tracks = cc.read_canonical_csv(cc.write_canonical_csv(benchmark_tracks(6)),
                                   cfg.step_duration)
    params = ForceParams.from_config(cfg, substeps=1)
    windows = [Window(e) for e in (40, 64, 75, 99, 129)]
    runs = [run_experiment(t, cc.SceneGeometry.empty(), windows, cfg, params)
            for t in (tracks, list(tracks))]
    assert isinstance(tracks, cc.Tracks) and len(runs[0].agents) > 0
    assert runs[0].agents == runs[1].agents
    assert runs[0].csv_bytes() == runs[1].csv_bytes()


# -- the array passes against the per-call reference ------------------------

def _random_window(rng: np.random.Generator) -> tuple:
    """Tracks, endtime and config of one random window: clusters of one to
    three agents walking together (so groups form, and single-member groups
    too), each starting before or inside the known window and ending before,
    inside or after the horizon, plus zero to three historical walkers that
    end before the known window (none gives a group one candidate only)."""
    known = int(rng.choice([2, 3, 5, 8]))
    cfg = cc.Config(known_time_steps=known, predict_time_steps=int(rng.choice([1, 2, 5, 12])),
                    k_candidates=int(rng.integers(1, 4)),
                    min_overlap_frames=int(rng.integers(1, known + 1)))
    endtime = known - 1 + int(rng.integers(0, 12))
    horizon = endtime + cfg.predict_time_steps
    tracks = []
    for g in range(int(rng.integers(1, 5))):
        center = rng.uniform(-12.0, 12.0, 2)
        vel = rng.uniform(-1.5, 1.5, 2)
        for m in range(int(rng.integers(1, 4))):
            first = int(rng.integers(0, endtime - known + 2)) if rng.random() < 0.8 \
                else int(rng.integers(endtime - known + 2, endtime + 2))
            last = int(rng.integers(max(first, endtime - 1), horizon + 4))
            frames = np.arange(first, last + 1)
            pos = center + 0.3 * m * np.array([0.6, 0.8]) + frames[:, None] * vel * STEP \
                + rng.normal(0.0, 0.03, (len(frames), 2))
            tracks.append(_grid(f"g{g}m{m}", frames, pos))
    for h in range(int(rng.integers(0, 4))):
        last = int(rng.integers(2, max(endtime - known, 2) + 1))
        frames = np.arange(0, last + 1)
        pos = rng.uniform(-12.0, 12.0, 2) + frames[:, None] * rng.uniform(-1.5, 1.5, 2) * STEP
        tracks.append(_grid(f"h{h}", frames, pos))
    return tracks, endtime, cfg


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_trajectory(a: Trajectory, b: Trajectory) -> bool:
    return a.agent_id == b.agent_id and all(
        _same_bits(getattr(a, n), getattr(b, n)) for n in ("frames", "times", "positions"))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(MODES))
def test_window_equals_per_call_oracle(seed, mode):
    """Every group, candidate, member trajectory and ``AgentRecord`` of a
    random window, baselines included, equals the per-call reference bit
    for bit; so do the desired speeds and, through the group positions,
    the initial velocities of the one array pass over the centers."""
    tracks, endtime, cfg = _random_window(np.random.default_rng(seed))
    params = ForceParams.from_config(cfg, substeps=2)
    scene = cc.SceneGeometry.empty()
    db = cc.build_database(tracks, cfg, endtime=endtime)
    got = predict_at_endtime(tracks, endtime, db, cfg, params, scene, mode, seed % 7)
    want = evaluate_oracle.predict_at_endtime(tracks, endtime, db, cfg, params, scene,
                                              mode, seed % 7)
    assert len(got) == len(want)
    for pred, (members, emotion, speed, _, rollouts) in zip(got, want):
        assert pred.members == members
        assert repr((pred.emotion, pred.desired_speed)) == repr((emotion, speed))
        n_c, n_m = len(rollouts), len(members)
        assert pred.member_points.shape == (n_c, n_m, cfg.predict_time_steps, 2)
        assert not pred.member_points.flags.writeable
        assert pred.group_points.shape == (n_c, cfg.predict_time_steps, 2)
        assert not pred.group_points.flags.writeable
        assert len(pred.candidates) == n_c
        for c, group, points, (dest, prov, score, want, by_member) in zip(
                pred.candidates, pred.group_points, pred.member_points, rollouts):
            assert type(c) is Candidate
            assert _same_bits(c.destination, dest)
            assert (c.provenance, repr(c.score)) == (prov, repr(score))
            assert _same_bits(group, want.positions)
            assert list(by_member) == list(members)
            for p, tr in zip(points, by_member.values()):
                assert _same_bits(p, tr.positions)
    windows = [Window(endtime), Window(endtime + 1)]
    report = run_experiment(tracks, scene, windows, cfg, params, mode, seed % 7)
    oracle = evaluate_oracle.run_experiment(tracks, scene, windows, cfg, params,
                                            mode, seed % 7)
    assert repr(report.agents) == repr(oracle.agents)
    assert repr(report.rows) == repr(oracle.rows)


def test_agent_split_over_two_tracks_scores_in_any_order():
    """Agent ``a`` walks one straight line held by two tracks with its id,
    one up to the endtime and one over the horizon. Every order of the
    input scores ``a`` from its own rows, as the per-call reference does:
    the ground truth from the horizon track, a baseline that continues the
    line, and each agent counted once toward the window's total."""
    cfg = cc.Config(known_time_steps=10, predict_time_steps=10, k_candidates=2,
                    min_overlap_frames=3)
    params = ForceParams.from_config(cfg, substeps=2)
    walk = line_track("a", 0, 30, (0.0, 0.0), (1.0, 0.0))
    split = [_grid("a", walk.frames[:20], walk.positions[:20]),
             _grid("a", walk.frames[20:], walk.positions[20:]),
             line_track("b", 0, 40, (0.0, 30.0), (0.8, 0.3))]
    history = [line_track(f"h{k}", 0, 10, (2.0 * k - 5.0, 3.0 * k), (1.0, 0.1 * k))
               for k in range(4)]
    rng = np.random.default_rng(4)
    scene, windows = cc.SceneGeometry.empty(), [Window(19)]
    for _ in range(6):
        tracks = [(history + split)[i] for i in rng.permutation(7)]
        report = run_experiment(tracks, scene, windows, cfg, params)
        oracle = evaluate_oracle.run_experiment(tracks, scene, windows, cfg, params)
        assert repr(report.agents) == repr(oracle.agents)
        assert repr(report.rows) == repr(oracle.rows)
        assert [(r.agent_id, r.baseline_ade) for r in report.agents][0] == ("a", 0.0)
        assert (report.rows[0].n_agents, report.rows[0].n_skipped) == (2, 4)


def test_two_tracks_of_one_agent_over_the_horizon_raise():
    """Agent ``a`` walks frames 0-29 along y = 0 and a second ``a`` track
    walks frames 15-34 along y = 40, so both hold the horizon of
    ``Window(19)``: its ground truth is ambiguous, and every input order
    raises in the product and in the per-call reference, naming ``a``. The
    same agent split into adjacent tracks still scores."""
    cfg = cc.Config(known_time_steps=10, predict_time_steps=10, k_candidates=2,
                    min_overlap_frames=3)
    params = ForceParams.from_config(cfg, substeps=2)
    a = line_track("a", 0, 30, (0.0, 0.0), (1.0, 0.0))
    a_far = line_track("a", 15, 20, (15.0, 40.0), (1.0, 0.0))
    b = line_track("b", 0, 40, (0.0, 30.0), (0.8, 0.3))
    history = [line_track(f"h{k}", 0, 10, (2.0 * k - 5.0, 3.0 * k), (1.0, 0.1 * k))
               for k in range(4)]
    scene, windows = cc.SceneGeometry.empty(), [Window(19)]
    for tracks in ([a, a_far, b], [a_far, a, b]):
        for run in (run_experiment, evaluate_oracle.run_experiment):
            with pytest.raises(DataError, match="agent 'a' has two tracks"):
                run(tracks + history, scene, windows, cfg, params)
    split = [_grid("a", a.frames[:20], a.positions[:20]),
             _grid("a", a.frames[20:], a.positions[20:]), b]
    report = run_experiment(split + history, scene, windows, cfg, params)
    assert [r.agent_id for r in report.agents] == ["a", "b"]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(MODES),
       n_cand=st.integers(1, 4), steps=st.integers(1, 9), n_members=st.integers(1, 4))
def test_member_positions_equal_per_candidate_oracle(seed, mode, n_cand, steps, n_members):
    """One (C, M, T, 2) pass equals one reconstruction per candidate, also
    for residual patterns that are empty or shorter than the horizon."""
    rng = np.random.default_rng(seed)
    frames = np.arange(7, 7 + steps)
    group = np.cumsum(rng.normal(0.0, 0.4, (n_cand, steps, 2)), axis=1)
    trajs = [_grid("group", frames, g) for g in group]
    ids = [f"m{k}" for k in rng.permutation(n_members)]
    offsets = {m: rng.normal(0.0, 0.5, 2) for m in ids}
    residuals = {m: rng.normal(0.0, 0.2, (int(rng.integers(0, steps + 3)), 2)) for m in ids}
    policy = ReconstructionPolicy(mode, residuals, seed=int(seed % 5))
    emotion = float(rng.choice([0.0, 1.0, rng.uniform()]))
    points = member_positions(group, offsets, emotion, policy)
    assert points.shape == (n_cand, n_members, steps, 2) and not points.flags.writeable
    for traj, cand in zip(trajs, points):
        want = evaluate_oracle.reconstruct_members(traj, offsets, emotion, policy)
        got = reconstruct_members(traj, offsets, emotion, policy)
        assert list(got) == list(want) == sorted(ids)
        for m, p in zip(sorted(ids), cand):
            assert _same_bits(p, want[m].positions)
            assert _same_trajectory(got[m], want[m])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(MODES),
       known=st.integers(2, 12), steps=st.sampled_from([1, 3, 5, 11, 12, 13, 30]),
       sizes=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 40)), min_size=0,
                      max_size=5))
def test_member_gather_equals_one_call_per_group(seed, mode, known, steps, sizes):
    """One window's deviations and gather over the flat (sum C * M, T, 2)
    rows have the bytes of one ``member_positions`` call per group and of
    the per-candidate oracle, for horizons shorter and longer than the
    known window (rigid patterns tile by t % T) and groups of 1 to 40
    members. The per-call oracle's member-by-member RMS pins the batched
    one of ``seeded-jitter``."""
    rng = np.random.default_rng(seed)
    frames = np.arange(40, 40 + steps)
    groups = []
    for n_cand, n_mem in sizes:
        ids = [f"m{k:02d}" for k in range(n_mem)]
        groups.append((np.cumsum(rng.normal(0.0, 0.4, (n_cand, steps, 2)), axis=1),
                       dict(zip(ids, rng.normal(0.0, 0.5, (n_mem, 2)))),
                       dict(zip(ids, rng.normal(0.0, 0.2, (n_mem, known, 2))
                                * 10.0 ** rng.integers(-3, 3, (n_mem, 1, 1)))),
                       float(rng.choice([0.0, 1.0, rng.uniform()]))))
    m = np.array([n for _, n in sizes], dtype=np.intp)
    slots = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
    residuals = np.reshape([r for g in groups for r in g[2].values()], (-1, known, 2))
    offsets = np.reshape([o for g in groups for o in g[1].values()], (-1, 2))
    dev = member_deviations(residuals, slots, steps, ReconstructionPolicy(mode, seed=seed % 5))
    flat = gather_members(np.concatenate([np.empty((0, steps, 2))] + [g[0] for g in groups]),
                          sizes, offsets, np.array([g[3] for g in groups]), dev)
    assert flat.shape == (sum(c * n for c, n in sizes), steps, 2)
    assert not flat.flags.writeable
    blocks = np.split(flat, np.cumsum([c * n for c, n in sizes])[:-1]) if sizes else []
    for (points, offs, res, emotion), block in zip(groups, blocks):
        policy = ReconstructionPolicy(mode, res, seed=seed % 5)
        want = member_positions(points, offs, emotion, policy)
        assert _same_bits(block.reshape(want.shape), want)
        for cand, traj in zip(want, points):
            per_call = evaluate_oracle.reconstruct_members(_grid("group", frames, traj),
                                                           offs, emotion, policy)
            for member, p in zip(cand, per_call.values()):
                assert _same_bits(member, p.positions)


def test_member_positions_draws_from_one_generator(monkeypatch):
    """A group whose residual patterns share one length draws its
    ``seeded-jitter`` deviations from one generator, however many members
    it has."""
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *args: made.append(args) or default_rng(*args))
    for n_members in (4, 16):
        ids = [f"m{k:02d}" for k in range(n_members)]
        policy = ReconstructionPolicy("seeded-jitter", {m: np.ones((5, 2)) for m in ids}, 2)
        member_positions(np.zeros((3, 8, 2)), {m: np.zeros(2) for m in ids}, 0.5, policy)
    assert made == [(2,), (2,)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_cand=st.integers(1, 6),
       steps=st.sampled_from([1, 2, 3, 7, 8, 9, 30, 129, 300]),
       scale=st.sampled_from([1e-6, 1.0, 1e3, 1e9]))
def test_scores_equal_per_call_oracle(seed, n_cand, steps, scale):
    """ADE, FDE, their minima and argmins, and the baseline equal the
    per-call reference bit for bit, ties included."""
    rng = np.random.default_rng(seed)
    frames = np.arange(3, 3 + steps)
    gt = _grid("gt", frames, rng.normal(0.0, scale, (steps, 2)))
    cands = [_grid("c", frames, gt.positions + rng.normal(0.0, scale, (steps, 2)))
             for _ in range(n_cand)]
    cands += cands[:int(rng.integers(0, 2))]  # a tie for the minimum
    for c in cands:
        assert repr((ade(c, gt), fde(c, gt))) == \
            repr((evaluate_oracle.ade(c, gt), evaluate_oracle.fde(c, gt)))
    assert repr(min_over_candidates(cands, gt)) == \
        repr(evaluate_oracle.min_over_candidates(cands, gt))
    known = _grid("k", np.arange(-2, 3), rng.normal(0.0, scale, (5, 2)))
    got = cc.constant_velocity_baseline(known, steps, cc.Config(), start_frame=2)
    assert _same_trajectory(got, evaluate_oracle.constant_velocity_baseline(
        known, steps, cc.Config(), 2))


# -- nothing after the endtime reaches a prediction ----------------------------

def _edit_after(tracks: list, frame: int, rng: np.random.Generator, edits: set) -> list:
    """``tracks`` with rows after ``frame`` moved, tracks cut after it,
    agents added that start after it and the order shuffled, as ``edits``
    selects."""
    out = []
    for tr in tracks:
        keep = len(tr)
        if "cut" in edits and rng.random() < 0.5:
            keep = int(np.searchsorted(tr.frames, frame + 1 + int(rng.integers(0, 3)),
                                       side="left"))
        frames, pos = tr.frames[:keep], tr.positions[:keep].copy()
        if "move" in edits:
            late = frames > frame
            pos[late] += rng.normal(0.0, 3.0, (int(np.count_nonzero(late)), 2))
        if len(frames):
            out.append(_grid(tr.agent_id, frames, pos))
    if "add" in edits:
        for k in range(int(rng.integers(1, 6))):
            frames = np.arange(frame + 1 + int(rng.integers(0, 4)), frame + 20)
            out.append(_grid(f"late{k}", frames, rng.uniform(-12.0, 12.0, (len(frames), 2))))
    if "shuffle" in edits:
        out = [out[k] for k in rng.permutation(len(out))]
    return out


EDITS = st.sets(st.sampled_from(["move", "cut", "add", "shuffle"]), min_size=1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(MODES), edits=EDITS)
def test_no_leak_from_after_the_endtime(seed, mode, edits):
    """Editing everything after a window's endtime leaves its groups,
    candidates, group positions and member arrays bit-equal."""
    rng = np.random.default_rng(seed)
    tracks, endtime, cfg = _random_window(rng)
    edited = _edit_after(tracks, endtime, rng, edits)
    params = ForceParams.from_config(cfg, substeps=2)
    scene = cc.SceneGeometry.empty()
    got, want = (predict_at_endtime(t, endtime, cc.build_database(t, cfg, endtime=endtime),
                                    cfg, params, scene, mode, 3)
                 for t in (edited, tracks))
    assert [(p.members, repr(p.emotion), repr(p.desired_speed)) for p in got] == \
        [(p.members, repr(p.emotion), repr(p.desired_speed)) for p in want]
    for pg, pw in zip(got, want):
        assert [(c.provenance, repr(c.score)) for c in pg.candidates] == \
            [(c.provenance, repr(c.score)) for c in pw.candidates]
        assert _same_bits(pg.group_points, pw.group_points)
        assert _same_bits(pg.member_points, pw.member_points)
        for cg, cw in zip(pg.candidates, pw.candidates):
            assert _same_bits(cg.destination, cw.destination)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(MODES), edits=EDITS)
def test_no_leak_from_after_the_horizon(seed, mode, edits):
    """Editing everything after a window's last horizon frame leaves its
    records and its row equal."""
    rng = np.random.default_rng(seed)
    tracks, endtime, cfg = _random_window(rng)
    window = Window(endtime)
    edited = _edit_after(tracks, window.horizon_last(cfg), rng, edits)
    params = ForceParams.from_config(cfg, substeps=2)
    got, want = (run_experiment(t, cc.SceneGeometry.empty(), [window], cfg, params, mode, 3)
                 for t in (edited, tracks))
    assert repr(got.agents) == repr(want.agents)
    assert repr(got.rows) == repr(want.rows)
