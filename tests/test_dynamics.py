"""Force integrator and member reconstruction."""

from __future__ import annotations

import time

import numpy as np
import pytest

import crowdcast as cc
from crowdcast import dynamics
from crowdcast.core import DataError
from crowdcast.dynamics import (
    ForceParams,
    GroupInit,
    ReconstructionPolicy,
    constant_velocity_baseline,
    make_sim_state,
    predict_group_trajectory,
    reconstruct_members,
    step,
)

from conftest import STEP, line_track
import rollout_oracle
from rollout_oracle import predict_group_trajectory as oracle_rollout


@pytest.fixture
def params(cfg):
    return ForceParams.from_config(cfg)


@pytest.fixture
def scene():
    return cc.SceneGeometry.empty()


class TestForceParams:
    def test_from_config_copies_person_constants(self, cfg, params):
        assert params.mass == cfg.person_mass
        assert params.radius == cfg.person_radius
        assert params.neighborhood_range == cfg.neighborhood_range

    def test_validation(self):
        with pytest.raises(ValueError):
            ForceParams(relaxation_time=0.0)
        with pytest.raises(ValueError):
            ForceParams(substeps=0)
        with pytest.raises(ValueError):
            ForceParams(repulsion_range=-1.0)
        for name in ("relaxation_time", "repulsion_strength", "speed_floor"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError):
                    ForceParams(**{name: value})

    def test_speed_cap_floored(self, params):
        assert params.max_speed_for(0.0) == pytest.approx(0.6)
        assert params.max_speed_for(1.5) == pytest.approx(3.0)


class TestStep:
    def test_straight_line_progress(self, cfg, params, scene):
        state = make_sim_state([[0.0, 0.0]], [[1.0, 0.0]], [[10.0, 0.0]],
                               [1.0], params)
        state = step(state, scene, params, cfg.step_duration)
        assert state.positions[0, 0] == pytest.approx(cfg.step_duration, rel=1e-6)
        assert state.positions[0, 1] == 0.0

    def test_no_overshoot_near_destination(self, cfg, params, scene):
        state = make_sim_state([[0.0, 0.0]], [[2.0, 0.0]], [[0.5, 0.0]],
                               [2.0], params)
        for _ in range(10):
            state = step(state, scene, params, cfg.step_duration)
            assert state.positions[0, 0] <= 0.5 + params.radius + 1e-9

    def test_arrived_group_is_frozen(self, cfg, params, scene):
        state = make_sim_state([[5.0, 5.0]], [[1.0, 1.0]], [[5.1, 5.0]],
                               [1.0], params)
        assert state.arrived[0]
        before = state.positions.copy()
        state = step(state, scene, params, cfg.step_duration)
        assert np.array_equal(state.positions, before)
        assert np.all(state.velocities[0] == 0.0)

    def test_coincident_pair_separates(self, cfg, params, scene):
        state = make_sim_state([[1.0, 1.0], [1.0, 1.0]],
                               [[0.0, 0.0], [0.0, 0.0]],
                               [[5.0, 1.0], [-3.0, 1.0]],
                               [1.0, 1.0], params)
        state = step(state, scene, params, cfg.step_duration)
        assert np.all(np.isfinite(state.positions))
        assert state.positions[0, 0] != state.positions[1, 0]

    def test_bad_dt_rejected(self, params, scene):
        state = make_sim_state([[0.0, 0.0]], [[0.0, 0.0]], [[1.0, 0.0]],
                               [1.0], params)
        with pytest.raises(ValueError):
            step(state, scene, params, 0.0)

    def test_mismatched_arrays_rejected(self, params):
        with pytest.raises(DataError):
            make_sim_state([[0.0, 0.0]], [[0.0, 0.0]], [[1.0, 0.0]],
                           [1.0, 2.0], params)
        with pytest.raises(DataError):
            make_sim_state([[0.0, 0.0]], np.zeros((2, 1, 2)), np.ones((3, 1, 2)),
                           [1.0], params)


class TestPredictGroupTrajectory:
    def test_many_vertex_polygon_is_cheap(self, cfg, params):
        # contacts with a 10,000-vertex polygon cost one array pass per
        # substep, not a Python loop over its edges
        angles = np.linspace(0.0, 2.0 * np.pi, 10_000, endpoint=False)
        ring = np.array([3.0, 0.0]) + 2.0 * np.column_stack([np.cos(angles),
                                                             np.sin(angles)])
        scene = cc.SceneGeometry(polygons=(ring,),
                                 bounds=np.array([[-10.0, -10.0], [10.0, 10.0]]))
        t0 = time.perf_counter()
        trajs = predict_group_trajectory((0.0, 0.0), [(6.0, 0.5), (0.5, 6.0)], 1.0,
                                         scene, [], 5, params, cfg)
        assert time.perf_counter() - t0 < 2.0
        assert all(np.all(np.isfinite(t.positions)) for t in trajs)

    def test_rotation_equivariance(self, cfg, params):
        scene = cc.parse_scene("seg 2 -4 2 4")
        others = [GroupInit(np.array([6.0, 1.0]), np.array([-2.0, 1.0]), 0.9)]
        [base] = predict_group_trajectory((0.0, 0.2), [(6.0, 0.0)], 1.1, scene,
                                          others, 20, params, cfg)
        c, s = np.cos(np.pi / 2), np.sin(np.pi / 2)
        rot = np.array([[c, -s], [s, c]])
        scene_r = cc.SceneGeometry(
            segments=(np.array([[2.0, -4.0], [2.0, 4.0]]) @ rot.T,),
            polygons=(), bounds=np.array([[-20.0, -20.0], [20.0, 20.0]]))
        others_r = [GroupInit(rot @ np.array([6.0, 1.0]),
                              rot @ np.array([-2.0, 1.0]), 0.9)]
        [rotated] = predict_group_trajectory(rot @ np.array([0.0, 0.2]),
                                             [rot @ np.array([6.0, 0.0])], 1.1,
                                             scene_r, others_r, 20, params, cfg)
        assert np.max(np.abs(rotated.positions - base.positions @ rot.T)) < 1e-6

    def test_zero_speed_uses_floor(self, cfg, params, scene):
        [traj] = predict_group_trajectory((0.0, 0.0), [(5.0, 0.0)], 0.0, scene,
                                          [], 10, params, cfg)
        assert traj.positions[-1, 0] >= 0.2

    def test_start_frame_controls_grid(self, cfg, params, scene):
        [traj] = predict_group_trajectory((0.0, 0.0), [(5.0, 0.0)], 1.0, scene,
                                          [], 5, params, cfg, start_frame=100)
        assert list(traj.frames) == [101, 102, 103, 104, 105]
        assert traj.times[0] == pytest.approx(101 * cfg.step_duration)

    def test_bad_steps_rejected(self, cfg, params, scene):
        with pytest.raises(ValueError):
            predict_group_trajectory((0.0, 0.0), [(1.0, 0.0)], 1.0, scene, [],
                                     0, params, cfg)

    def test_non_finite_group_rejected_before_pruning(self, cfg, params, scene):
        far = GroupInit(np.array([1e4, np.nan]), np.array([0.0, 0.0]), 1.0)
        with pytest.raises(DataError):
            predict_group_trajectory((0.0, 0.0), [(5.0, 0.0)], 1.0, scene,
                                     [far], 5, params, cfg)

    def test_substep_free_integration_still_arrives(self, cfg, scene):
        coarse = ForceParams.from_config(cfg, substeps=1)
        [traj] = predict_group_trajectory((0.0, 0.0), [(6.0, 0.0)], 1.0, scene,
                                          [], 30, coarse, cfg)
        assert np.linalg.norm(traj.positions[-1] - [6.0, 0.0]) <= 0.5


class TestReconstruction:
    def _center(self, n=8):
        frames = np.arange(50, 50 + n)
        pos = np.column_stack([np.linspace(0, 3, n), np.zeros(n)])
        return cc.Trajectory.from_frame_grid("group[a,b]", frames, pos, STEP)

    def test_constant_deviation_hand_case(self):
        group = self._center()
        offsets = {"a": np.zeros(2), "b": np.array([0.0, 0.4])}
        residuals = {"a": np.tile([0.2, 0.0], (4, 1)),
                     "b": np.zeros((4, 2))}
        policy = ReconstructionPolicy("rigid", residuals)
        out = reconstruct_members(group, offsets, 0.5, policy)
        assert np.allclose(out["a"].positions,
                           group.positions + [0.1, 0.0], atol=1e-12)
        assert np.allclose(out["b"].positions,
                           group.positions + [0.0, 0.4], atol=1e-12)

    def test_residual_pattern_tiles(self):
        group = self._center(5)
        pattern = np.array([[0.1, 0.0], [-0.1, 0.0]])
        policy = ReconstructionPolicy("rigid", {"a": pattern})
        out = reconstruct_members(group, {"a": np.zeros(2)}, 0.0 + 0.5, policy)
        dev = out["a"].positions - group.positions
        assert np.allclose(dev[:, 0], [0.05, -0.05, 0.05, -0.05, 0.05])

    def test_emotion_bounds_enforced(self):
        group = self._center()
        policy = ReconstructionPolicy("rigid", {"a": np.zeros((2, 2))})
        for bad in (0.0, -0.2, 1.2):
            with pytest.raises(DataError):
                reconstruct_members(group, {"a": np.zeros(2)}, bad, policy)

    def test_member_mismatch_rejected(self):
        group = self._center()
        policy = ReconstructionPolicy("rigid", {"a": np.zeros((2, 2))})
        with pytest.raises(DataError):
            reconstruct_members(group, {"a": np.zeros(2), "b": np.zeros(2)},
                                0.5, policy)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ReconstructionPolicy("wobble", {})

    def test_jitter_mode_seed_determinism(self):
        group = self._center()
        residuals = {"a": np.full((4, 2), 0.2), "b": np.full((4, 2), 0.2)}
        offsets = {"a": np.zeros(2), "b": np.zeros(2)}
        one = reconstruct_members(group, offsets, 0.5,
                                  ReconstructionPolicy("seeded-jitter",
                                                       residuals, seed=3))
        two = reconstruct_members(group, offsets, 0.5,
                                  ReconstructionPolicy("seeded-jitter",
                                                       residuals, seed=3))
        other = reconstruct_members(group, offsets, 0.5,
                                    ReconstructionPolicy("seeded-jitter",
                                                         residuals, seed=4))
        for m in offsets:
            assert np.array_equal(one[m].positions, two[m].positions)
            assert not np.array_equal(one[m].positions, other[m].positions)

    def test_from_known_window_zero_at_anchor(self, cfg):
        a = line_track("a", 0, 10, (0.0, 0.0), (1.0, 0.1))
        b = line_track("b", 0, 10, (0.0, 0.4), (1.0, -0.1))
        state = cc.make_group_state([a, b], cfg)
        policy = ReconstructionPolicy.from_known_window(
            [a, b], state.center_trajectory, state.member_offsets)
        for m in ("a", "b"):
            assert np.allclose(policy.residuals[m][-1], [0.0, 0.0], atol=1e-12)


def test_constant_velocity_baseline(cfg):
    tr = line_track("a", 0, 10, (0.0, 0.0), (1.0, 0.5))
    base = constant_velocity_baseline(tr, 5, cfg)
    assert list(base.frames) == [10, 11, 12, 13, 14]
    expected_last = tr.positions[-1] + 5 * np.array([1.0, 0.5]) * cfg.step_duration
    assert np.allclose(base.positions[-1], expected_last, atol=1e-9)


class TestRolloutMatchesOracle:
    """The pruned, batched rollout returns exactly what the dense
    one-candidate rollout in ``rollout_oracle`` returns, candidate by
    candidate."""

    SCENE = ("seg -6 -30 -6 30\n"
             "poly 4 -2 7 -2 7 1 4 1\n"
             "bounds -60 -60 60 60")

    def _assert_matches(self, start, dests, speed, scene, others, steps,
                        params, cfg, initial_velocity=None):
        trajs = predict_group_trajectory(start, dests, speed, scene, others,
                                         steps, params, cfg, initial_velocity,
                                         start_frame=7)
        assert len(trajs) == len(dests)
        for dest, traj in zip(dests, trajs):
            ref = oracle_rollout(start, dest, speed, scene, others, steps,
                                 params, cfg, initial_velocity, start_frame=7)
            assert np.array_equal(traj.frames, ref.frames)
            assert np.array_equal(traj.times, ref.times)
            assert np.array_equal(traj.positions, ref.positions)

    def _random_case(self, rng, n_others):
        start = rng.uniform(-20.0, 20.0, 2)
        others = []
        for _ in range(n_others):
            if rng.random() < 0.4:      # a cluster around the subject
                pos = start + rng.uniform(-3.0, 3.0, 2)
            else:
                pos = rng.uniform(-55.0, 55.0, 2)
            vel = rng.uniform(-1.5, 1.5, 2) if rng.random() < 0.5 else None
            others.append(GroupInit(pos, rng.uniform(-50.0, 50.0, 2),
                                    float(rng.uniform(0.0, 2.0)), vel))
        dests = [rng.uniform(-50.0, 50.0, 2)
                 for _ in range(int(rng.integers(1, 7)))]
        if others and rng.random() < 0.5:
            # coincident starts; an exact twin keeps coinciding, so it is nudged
            twin = others[0]
            others.append(GroupInit(np.array(twin.pos), np.array(twin.dest),
                                    twin.speed, twin.velocity))
            others.append(GroupInit(start.copy(), np.array([30.0, -30.0]), 0.8))
        if rng.random() < 0.3:              # a candidate within radius
            dests[-1] = start + rng.uniform(-0.2, 0.2, 2)
        vel0 = rng.uniform(-1.5, 1.5, 2) if rng.random() < 0.5 else None
        return start, np.array(dests), float(rng.uniform(0.0, 2.0)), others, vel0

    @pytest.mark.parametrize("substeps", [1, 8])
    @pytest.mark.parametrize("with_scene", [False, True])
    def test_random_scenes(self, cfg, substeps, with_scene):
        params = ForceParams.from_config(cfg, substeps=substeps)
        scene = cc.parse_scene(self.SCENE) if with_scene else cc.SceneGeometry.empty()
        rng = np.random.default_rng(100 * substeps + with_scene)
        for n_others in (0, 3, 8, 15, 22, 29):
            start, dests, speed, others, vel0 = self._random_case(rng, n_others)
            self._assert_matches(start, dests, speed, scene, others, 12,
                                 params, cfg, vel0)

    def test_cluster_and_coincident_starts(self, cfg, params, scene):
        start = np.array([0.0, 0.0])
        others = [GroupInit(np.array([0.8, 0.1]), np.array([-9.0, 0.0]), 1.2),
                  GroupInit(np.array([-0.7, 0.4]), np.array([9.0, 1.0]), 1.0),
                  GroupInit(np.array([0.2, -0.9]), np.array([0.0, 9.0]), 0.9),
                  GroupInit(np.array([0.8, 0.1]), np.array([-9.0, 0.0]), 1.2),
                  GroupInit(start.copy(), np.array([8.0, 0.0]), 1.0)]
        dests = np.array([[8.0, 0.0], [0.1, 0.1], [-8.0, -2.0]])
        self._assert_matches(start, dests, 1.0, scene, others, 20, params, cfg)

    def test_reach_bound_edge(self, cfg, params, scene):
        from crowdcast.dynamics import _REACH_MARGIN, _reach_component

        steps = 10
        horizon = steps * cfg.step_duration
        cap = params.max_speed_for(1.0)
        bound = params.neighborhood_range + 2 * cap * horizon + _REACH_MARGIN
        start = np.array([0.0, 0.0])
        # both groups head straight at the subject, which heads at them
        inside = GroupInit(np.array([bound - 1e-6, 0.0]), np.array([-50.0, 0.0]), 1.0,
                           np.array([-cap, 0.0]))
        outside = GroupInit(np.array([0.0, bound + 1e-6]), np.array([0.0, -50.0]), 1.0,
                            np.array([0.0, -cap]))
        keep, _ = _reach_component(np.stack([start, inside.pos, outside.pos]),
                                   np.full(3, cap), params.neighborhood_range, horizon)
        assert keep.tolist() == [0, 1]
        dests = np.array([[50.0, 0.0], [0.0, 50.0]])
        self._assert_matches(start, dests, 1.0, scene, [inside, outside], steps,
                             params, cfg, np.array([cap, 0.0]))


class TestObstacleFieldMatchesOracle:
    """``SceneGeometry.obstacle_contacts`` and the obstacle terms of the
    force return the bits of the scalar per-point code in
    ``rollout_oracle``, signed zeros included, on points placed where the
    geometry is ambiguous: on vertices and edges, at equal distance from
    several edges, and inside or outside polygons of either orientation
    with repeated vertices."""

    SEGMENTS = ([(0.0, 0.0), (4.0, 0.0)],
                [(0.1, 0.7), (0.3, -0.2)],
                [(1.5, 1.5), (1.5, 1.5)],                   # zero length
                [(2.0, -1.0), (2.0 + 1e-10, -1.0)])         # shorter than 1e-9
    POLYGONS = ([(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)],
                [(5.0, 5.0), (5.0, 7.0), (7.0, 7.0), (7.0, 5.0)],      # clockwise
                [(0.1, 0.3), (0.7, 0.2), (0.9, 0.8), (0.2, 0.6)],
                [(3.0, 0.0), (4.0, 0.0), (4.0, 0.0), (3.5, 1.0)],      # repeated
                [(-3.0, 0.0), (-2.0, 0.0), (-1.0, 0.0), (-1.0, 1.0), (-3.0, 1.0)],
                [(-2.0, 0.0), (-3.0, 1.0), (-2.0, 2.0), (-1.0, 1.0)])  # diamond

    def _scene(self):
        return cc.SceneGeometry(tuple(np.array(s) for s in self.SEGMENTS),
                                tuple(np.array(p) for p in self.POLYGONS),
                                np.array([[-10.0, -10.0], [10.0, 10.0]]))

    def _points(self, rng):
        shapes = [np.array(s) for s in self.SEGMENTS + self.POLYGONS]
        pts = [rng.uniform(-4.0, 8.0, (1500, 2))]
        for shape in shapes:
            ends = np.roll(shape, -1, axis=0)
            t = np.linspace(0.0, 1.0, 15)[:, None, None]
            along = shape + t * (ends - shape)            # vertices, midpoints
            normal = (ends - shape)[:, ::-1] * np.array([1.0, -1.0])
            pts += [shape, along.reshape(-1, 2), shape.mean(axis=0)[None],
                    (along + 1e-17 * normal).reshape(-1, 2),
                    (along - 3e-16 * normal).reshape(-1, 2),
                    shape.mean(axis=0) + rng.normal(0.0, 1e-3, (40, 2)),
                    shape[0] + rng.uniform(-1.0, 1.0, (80, 2))]
        return np.vstack(pts)

    def test_contacts_bit_equal(self):
        scene = self._scene()
        pts = self._points(np.random.default_rng(7))
        near, dist = scene.obstacle_contacts(pts)
        assert near.shape == (10, len(pts), 2) and dist.shape == (10, len(pts))
        ref_near = np.empty_like(near)
        ref_dist = np.empty_like(dist)
        for m, p in enumerate(pts):
            for o, (q, d) in enumerate(rollout_oracle.obstacle_contacts(scene, p)):
                ref_near[o, m], ref_dist[o, m] = q, d
        assert near.tobytes() == ref_near.tobytes()
        assert dist.tobytes() == ref_dist.tobytes()
        assert np.any(dist < 0.0) and np.any(dist == 0.0)

    def test_forces_bit_equal(self, cfg, params):
        h = cfg.step_duration / params.substeps

        def assert_same_forces(scene, p, vel, dest):
            args = ([p], [vel], [dest], [1.0], params)
            forces, _ = dynamics._forces(make_sim_state(*args), scene, params, h)
            ref, _ = rollout_oracle._forces(rollout_oracle.make_sim_state(*args),
                                            scene, params, h)
            assert forces.tobytes() == ref.tobytes(), p
            return ref

        rng = np.random.default_rng(8)
        scene = self._scene()
        for p in self._points(rng)[::37]:
            assert_same_forces(scene, p, rng.uniform(-1.0, 1.0, 2),
                               rng.uniform(-9.0, 9.0, 2))
        # a body at rest on x = 0 heading for x = -0.0 feels a force whose x
        # is -0.0; it sits on both obstacles, so neither term may touch it
        contact = cc.parse_scene("seg 0 -1 0 1\npoly 0 -1 1 -1 1 1 0 1")
        ref = assert_same_forces(contact, np.array([0.0, 0.5]), np.zeros(2),
                                 np.array([-0.0, 3.0]))
        assert ref[0, 0] == 0.0 and np.signbit(ref[0, 0])
