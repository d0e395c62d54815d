"""Acceptance suite: one test per criterion, reported in the terminal
summary. Each test states its bound inline and fails honestly if unmet."""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import crowdcast as cc
from crowdcast.evaluate import Window, ade, fde, min_over_candidates, run_experiment
from crowdcast.grouping import group_emotion, pairwise_intimacy
from crowdcast.retrieval import QueryPose, query_similar

from conftest import STEP, benchmark_tracks, line_track, random_track, rollout_one
from retrieval_oracle import scan_similar

ZARA_ENV = "CROWDCAST_ZARA01"
ZARA_DEFAULT = Path(__file__).resolve().parent.parent / "data" / "zara01_obsmat.txt"


def _overlapping_pair(rng, spread):
    """Two tracks with a random co-present span and controllable distance."""
    first = int(rng.integers(0, 20))
    n = int(rng.integers(2, 40))
    a = random_track(rng, "a", first_frame=first, n=n)
    shift = rng.uniform(-spread, spread, size=2)
    b_first = first + int(rng.integers(-5, 6))
    b_n = int(rng.integers(2, 40))
    frames = np.arange(b_first, b_first + b_n)
    pos = np.empty((b_n, 2))
    for i, f in enumerate(frames):
        if a.has_frame(int(f)):
            pos[i] = a.position_at(int(f)) + shift \
                + rng.uniform(-0.05, 0.05, size=2)
        else:
            pos[i] = rng.uniform(-10, 10, size=2)
    b = cc.Trajectory.from_frame_grid("b", frames, pos, STEP)
    return a, b


def _brute_force_intimacy(a, b, cfg):
    common = [int(f) for f in a.frames if b.has_frame(int(f))]
    if len(common) < cfg.min_overlap_frames:
        return 0.0
    worst = max(float(np.linalg.norm(a.position_at(f) - b.position_at(f)))
                for f in common)
    if worst <= cfg.intimate_distance:
        return 1.0
    if worst <= cfg.personal_distance:
        return 0.5
    return 0.0


def test_criterion_1_intimacy_matches_brute_force(cfg):
    rng = np.random.default_rng(11)
    seen = set()
    start = time.perf_counter()
    for trial in range(100):
        spread = float(rng.choice([0.05, 0.3, 0.8, 2.0]))
        a, b = _overlapping_pair(rng, spread)
        expected = _brute_force_intimacy(a, b, cfg)
        assert pairwise_intimacy(a, b, cfg) == expected
        seen.add(expected)
    elapsed = time.perf_counter() - start
    assert seen == {0.0, 0.5, 1.0}, f"levels not all exercised: {seen}"
    assert elapsed < 1.0, f"too slow: {elapsed:.3f}s"


def _parallel_walkers(n, velocity, spacing=0.2):
    return [line_track(str(i), 0, 5, (0.0, i * spacing), velocity)
            for i in range(n)]


def test_criterion_2_emotion_closed_forms(cfg):
    pair = _parallel_walkers(2, (1.0, 0.0))
    assert abs(group_emotion(pair, 4, cfg) - 0.5) <= 1e-9

    trio = _parallel_walkers(3, (1.0, 0.0))
    assert abs(group_emotion(trio, 4, cfg) - 1.0 / (1.0 + math.e)) <= 1e-9

    toward = line_track("1", 0, 5, (0.0, 0.0), (1.0, 0.0))
    away = line_track("2", 0, 5, (10.0, 0.2), (-1.0, 0.0))
    assert abs(group_emotion([toward, away], 4, cfg) - 0.11920) <= 1e-4

    values = [group_emotion(_parallel_walkers(n, (0.7, 0.7)), 4, cfg)
              for n in range(2, 11)]
    assert all(e1 > e2 for e1, e2 in zip(values, values[1:])), values


def test_criterion_3_average_direction_oracle():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        tr = random_track(rng, "x", n=int(rng.integers(2, 41)))
        t = len(tr)
        oracle = np.zeros(2)
        for k in range(t - 1):
            oracle += tr.positions[t - 1] - tr.positions[k]
        oracle /= t - 1
        got = cc.average_direction(tr, t)
        err = np.linalg.norm(got - oracle)
        assert err <= 1e-12 * max(1.0, np.linalg.norm(oracle))

    # translation invariance, bit for bit on dyadic coordinates
    for trial in range(50):
        n = int(rng.integers(2, 30))
        frames = np.arange(n)
        pos = rng.integers(-32768, 32768, size=(n, 2)) / 1024.0
        tr = cc.Trajectory.from_frame_grid("d", frames, pos, STEP)
        shift = rng.integers(-1000, 1000, size=2).astype(np.float64)
        shifted = cc.Trajectory.from_frame_grid("d", frames, pos + shift, STEP)
        assert np.array_equal(cc.average_direction(tr, n),
                              cc.average_direction(shifted, n))


def _reconstruction_fixture():
    frames = np.arange(100, 110)
    pos = np.column_stack([np.linspace(0, 4, 10), np.linspace(0, 1, 10)])
    group = cc.Trajectory.from_frame_grid("group[a,b]", frames, pos, STEP)
    offsets = {"a": np.array([0.2, 0.0]), "b": np.array([-0.2, 0.0])}
    rng = np.random.default_rng(7)
    residuals = {"a": rng.normal(0, 0.05, size=(6, 2)),
                 "b": rng.normal(0, 0.05, size=(6, 2))}
    return group, offsets, residuals


def test_criterion_4_reconstruction_rigid_and_affine():
    group, offsets, residuals = _reconstruction_fixture()
    for mode in ("rigid", "seeded-jitter"):
        policy = cc.ReconstructionPolicy(mode, residuals, seed=5)
        exact = cc.reconstruct_members(group, offsets, 1.0, policy)
        for member, off in offsets.items():
            assert np.array_equal(exact[member].positions, group.positions + off)

        outs = {e: cc.reconstruct_members(group, offsets, e, policy)
                for e in (0.25, 0.5, 0.75)}
        for member in offsets:
            lo = outs[0.25][member].positions
            mid = outs[0.5][member].positions
            hi = outs[0.75][member].positions
            assert np.max(np.abs((lo - mid) - (mid - hi))) <= 1e-12


def test_criterion_5_integrator_sanity(cfg):
    params = cc.ForceParams.from_config(cfg)
    scene = cc.SceneGeometry.empty()
    horizon = cfg.predict_time_steps * cfg.step_duration

    for dist in (1.0, 3.0, 6.0, 9.0, 11.5):
        assert dist <= 1.0 * horizon
        [points] = rollout_one((0.0, 0.0), [(dist, 0.0)], 1.0, scene, [],
                               cfg.predict_time_steps, params, cfg)
        err = float(np.linalg.norm(points[-1] - [dist, 0.0]))
        assert err <= 0.5, f"dist {dist}: arrival error {err:.3f}"

    rng = np.random.default_rng(55)
    steps_done = 0
    while steps_done < 10_000:
        n = int(rng.integers(1, 6))
        state = cc.make_sim_state(rng.uniform(-8, 8, (n, 2)),
                                  rng.uniform(-2, 2, (n, 2)),
                                  rng.uniform(-8, 8, (n, 2)),
                                  rng.uniform(0.0, 2.0, n), params)
        for _ in range(20):
            prev = state.positions.copy()
            state = cc.step(state, scene, params, cfg.step_duration)
            speeds = np.linalg.norm(state.velocities, axis=1)
            assert np.all(speeds <= state.max_speeds + 1e-9)
            moved = np.linalg.norm(state.positions - prev, axis=1)
            assert np.all(moved <= state.max_speeds * cfg.step_duration + 1e-9)
            steps_done += 1

    state = cc.make_sim_state([[0.0, 0.0], [10.0, 0.0]],
                              [[1.0, 0.0], [-1.0, 0.0]],
                              [[10.0, 0.0], [0.0, 0.0]],
                              [1.0, 1.0], params)
    min_sep = math.inf
    for _ in range(60):
        state = cc.step(state, scene, params, cfg.step_duration)
        min_sep = min(min_sep, float(np.linalg.norm(
            state.positions[0] - state.positions[1])))
    assert min_sep >= 2 * params.radius - 0.05, f"min separation {min_sep:.3f}"


def test_criterion_6_retrieval_index_equals_scan(cfg):
    # the vectorized search returns what the scalar oracle returns: the same
    # samples in the same order, scores bit-equal
    rng = np.random.default_rng(66)
    for db_i in range(50):
        n_tracks = int(rng.integers(10, 60)) if db_i % 10 else 260
        tracks = []
        for t in range(n_tracks):
            tracks.append(line_track(
                f"s{t}", 0, int(rng.integers(3, 41)),
                rng.uniform(-30, 30, 2), rng.uniform(-1.5, 1.5, 2)))
        db = cc.build_database(tracks, cfg)
        assert len(db) <= 10_000
        for q in range(4):
            direction = (np.zeros(2) if q == 3
                         else rng.uniform(-1.5, 1.5, 2))
            pose = QueryPose(f"q{q}", rng.uniform(-30, 30, 2), direction)
            fast = query_similar(db, pose, cfg)
            slow = scan_similar(db, pose, cfg)
            assert [i for _, i in fast] == [i for _, i in slow]
            assert [score for score, _ in fast] == [score for score, _ in slow]

    # a query 1 km from a 3-track database: same answer, bounded cost
    db = cc.build_database([line_track(f"f{t}", 0, 20, (0.0, 3.0 * t), (1.0, 0.0))
                            for t in range(3)], cfg)
    pose = QueryPose("far", np.array([1000.0, 0.0]), np.array([1.0, 0.0]))
    t0 = time.perf_counter()
    fast = query_similar(db, pose, cfg)
    elapsed = time.perf_counter() - t0
    assert fast == scan_similar(db, pose, cfg) and len(fast) == 3
    assert elapsed < 0.1, f"far query took {elapsed:.3f} s (bound 0.1 s)"


def test_criterion_7_metric_unit_cases_and_monotonicity():
    frames = np.arange(3)
    gt = cc.Trajectory.from_frame_grid("g", frames, np.zeros((3, 2)), STEP)
    same = cc.Trajectory.from_frame_grid("p", frames, np.zeros((3, 2)), STEP)
    assert ade(same, gt) == 0.0
    assert fde(same, gt) == 0.0

    end_off = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0]])
    pred = cc.Trajectory.from_frame_grid("p", frames, end_off, STEP)
    assert fde(pred, gt) == 5.0

    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        frames = np.arange(n)
        gt = cc.Trajectory.from_frame_grid("g", frames, rng.normal(size=(n, 2)), STEP)
        cands = [cc.Trajectory.from_frame_grid("c", frames,
                                               rng.normal(size=(n, 2)), STEP)
                 for _ in range(int(rng.integers(1, 5)))]
        extra = cc.Trajectory.from_frame_grid("e", frames,
                                              rng.normal(size=(n, 2)), STEP)
        base_ade, base_fde, _ = min_over_candidates(cands, gt)
        ext_ade, ext_fde, _ = min_over_candidates(cands + [extra], gt)
        assert ext_ade <= base_ade
        assert ext_fde <= base_fde


def test_criterion_8_partition_and_symmetry(cfg):
    rng = np.random.default_rng(88)
    datasets = [benchmark_tracks(20)]
    for _ in range(3):
        datasets.append([random_track(rng, f"r{i}", first_frame=0, n=30)
                         for i in range(25)])
    for tracks in datasets:
        graph = cc.build_intimacy_graph(tracks, cfg)
        groups = cc.extract_groups(graph)
        flat = [m for g in groups for m in g]
        assert sorted(flat) == sorted(tr.agent_id for tr in tracks)
        assert len(flat) == len(set(flat))

    for _ in range(1000):
        a, b = _overlapping_pair(rng, float(rng.choice([0.1, 0.6, 1.5])))
        assert pairwise_intimacy(a, b, cfg) == pairwise_intimacy(b, a, cfg)


def test_criterion_9_synthetic_benchmark(cfg):
    tracks = benchmark_tracks(100)
    params = cc.ForceParams.from_config(cfg, substeps=1)
    start = time.perf_counter()
    report = run_experiment(tracks, cc.SceneGeometry.empty(), [Window(99)],
                            cfg, params)
    elapsed = time.perf_counter() - start
    n_eval = sum(r.n_agents for r in report.rows)
    assert n_eval >= 100
    assert report.k_used == 6
    assert report.overall_min_ade < 0.2, report.overall_min_ade
    assert report.overall_min_fde < 0.3, report.overall_min_fde
    assert elapsed < 30.0, f"benchmark took {elapsed:.1f}s"


def test_criterion_10_real_data_sanity(cfg, capsys):
    path = Path(os.environ.get(ZARA_ENV, ZARA_DEFAULT))
    if not path.is_file():
        pytest.skip(
            f"real pedestrian dataset not available: no file at {path} "
            f"(set {ZARA_ENV} or place the annotation file there; see README)")
    rows = cc.parse_obsmat(path.read_bytes())
    csv_bytes, summary = cc.to_canonical(rows, cc.Homography.identity(),
                                         2.5, cfg)
    tracks = cc.read_canonical_csv(csv_bytes, cfg.step_duration)
    first = min(int(tr.frames[0]) for tr in tracks)
    last = max(int(tr.frames[-1]) for tr in tracks)
    span = last - first
    endtimes = [first + cfg.known_time_steps - 1 + int(span * frac)
                for frac in (0.2, 0.45, 0.7)]
    params = cc.ForceParams.from_config(cfg)
    start = time.perf_counter()
    report = run_experiment(tracks, cc.SceneGeometry.empty(),
                            [Window(e) for e in endtimes], cfg, params)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"run took {elapsed:.1f}s"
    assert report.agents, "no evaluable agents at the chosen endtimes"
    frac = report.beats_baseline_fraction()
    with capsys.disabled():
        print(f"\nreal-data run: {len(report.agents)} agents, "
              f"hybrid<=baseline on {frac:.0%}")
        for row in report.rows:
            print(f"  endtime {row.endtime}: {row.n_groups} groups "
                  f"(reference dataset count: 8)")
    assert frac >= 0.5, f"hybrid beats baseline on only {frac:.0%} of agents"


def test_criterion_11_predict_determinism(tmp_path):
    from crowdcast.cli import main

    tracks = benchmark_tracks(6)
    csv_path = tmp_path / "bench.csv"
    csv_path.write_bytes(cc.write_canonical_csv(tracks))
    outputs = []
    for run in ("one", "two"):
        out = tmp_path / run
        rc = main(["predict", str(csv_path), "--endtime", "99",
                   "--seed", "42", "--mode", "seeded-jitter",
                   "--out", str(out), "--plot", str(out / "plot.svg")])
        assert rc == 0
        outputs.append((
            (out / "predictions.jsonl").read_bytes(),
            (out / "plot.svg").read_bytes(),
            (out / "run_config.txt").read_bytes(),
        ))
    assert outputs[0] == outputs[1]
    records = [json.loads(line) for line in
               outputs[0][0].decode().splitlines()]
    assert records, "predict produced no groups"
    for rec in records:
        assert len(rec["candidates"]) == 6
