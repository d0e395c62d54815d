"""Force integrator and member reconstruction."""

from __future__ import annotations

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdcast as cc
from crowdcast import dynamics
from crowdcast.core import DataError, ObstacleLayout
from crowdcast.dynamics import (
    ForceParams,
    ReconstructionPolicy,
    constant_velocity_baseline,
    make_sim_state,
    predict_group_trajectory,
    reconstruct_members,
    step,
)

from conftest import STEP, GroupInit, line_track, rollout_one
import evaluate_oracle
import rollout_oracle
from rollout_oracle import predict_group_trajectory as oracle_rollout


def dense_reach_adjacency(pos, caps, reach, horizon):
    """The reach graph by its definition: the edge test of the dynamics
    module docstring on every pair of rows, as a dense (G, G) matrix."""
    d = pos[:, None] - pos[None]
    adj = np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) \
        < reach + (caps[:, None] + caps[None]) * horizon + dynamics._REACH_MARGIN
    np.fill_diagonal(adj, False)
    return adj


def dense_reach_component(pos, caps, reach, horizon):
    """Row 0's connected component of the dense reach graph, ascending."""
    adj = dense_reach_adjacency(pos, caps, reach, horizon)
    seen = np.arange(len(pos)) == 0
    frontier = seen
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return np.flatnonzero(seen)


def substep_forces(state, scene, params, h):
    """``dynamics._forces`` on ``state`` at the start of a rollout: the
    scene laid out against its bodies and their distances to their
    destinations (+inf for an arrived body), as ``_advance`` hands them to
    the first substep."""
    dist = dynamics._length(state.positions - state.destinations)
    dist[state.arrived] = np.inf
    return dynamics._forces(state, ObstacleLayout(scene, len(state.positions)), params, h,
                            dist)


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
        for name in ("relaxation_time", "repulsion_strength", "repulsion_range",
                     "obstacle_strength", "obstacle_range", "max_speed_factor",
                     "speed_floor", "mass", "radius", "neighborhood_range"):
            for value in (float("nan"), float("inf"), 5e-324, 1e-300, 1e300,
                          1.7976931348623157e308):
                with pytest.raises(ValueError, match=name):
                    ForceParams(**{name: value})
            for value in (1e-9, 1e9):
                assert getattr(ForceParams(**{name: value}), name) == value

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

    def test_shared_arrays_read_only(self, cfg, params):
        # every copy of a state, and every rollout in a scene, shares these
        # arrays, so a write into one must raise instead of changing the rest
        pairs = np.array([[0, 1], [1, 0]])
        state = make_sim_state([[0.0, 0.0], [1.0, 0.0]], np.zeros((2, 2)),
                               [[5.0, 0.0], [-5.0, 0.0]], [1.0, 1.0], params, pairs)
        assert pairs.flags.writeable
        sibling = step(state, cc.SceneGeometry.empty(), params, cfg.step_duration)
        for name in ("rows", "cols", "ends", "bins"):
            assert getattr(sibling, name) is getattr(state, name)
            with pytest.raises(ValueError):
                getattr(sibling, name)[0] = 0
        scene = cc.parse_scene("seg 0 1 0 6\npoly 4 0 5 0 5 1")
        for name in ("_a", "_ab", "_div", "_short", "_ring_starts"):
            with pytest.raises(ValueError):
                getattr(scene, name)[0] = 0

    def test_input_state_unchanged(self, cfg, params):
        # a coincident pair, an arrived body, one body that arrives during
        # the step and one clamped to its cap, between obstacles: step
        # returns a new state and leaves every array of its input as it was
        scene = cc.parse_scene("seg 0 -3 8 -3\npoly 6 2 7 2 7 3 6 3")
        state = make_sim_state([[1.0, 1.0], [1.0, 1.0], [4.0, 0.0], [0.0, -2.0],
                                [5.0, 1.5]],
                               [[0.0, 0.0], [0.0, 0.0], [9.0, 0.0], [0.5, 0.0],
                                [0.0, 0.0]],
                               [[5.0, 1.0], [-3.0, 1.0], [4.1, 0.0], [0.35, -2.0],
                                [9.0, 1.5]],
                               [1.0, 1.0, 1.0, 1.0, 1.0], params)
        before = {name: getattr(state, name).copy() for name in vars(state)}
        out = step(state, scene, params, cfg.step_duration)
        for name, value in before.items():
            assert getattr(state, name).tobytes() == value.tobytes(), name
        assert out.arrived.tolist() == [False, False, True, True, False]
        assert not np.array_equal(out.positions, state.positions)

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
        points = rollout_one((0.0, 0.0), [(6.0, 0.5), (0.5, 6.0)], 1.0, scene, [], 5,
                             params, cfg)
        assert time.perf_counter() - t0 < 2.0
        assert np.all(np.isfinite(points))

    def test_rotation_equivariance(self, cfg, params):
        scene = cc.parse_scene("seg 2 -4 2 4")
        others = [GroupInit(np.array([6.0, 1.0]), np.array([-2.0, 1.0]), 0.9)]
        [base] = rollout_one((0.0, 0.2), [(6.0, 0.0)], 1.1, scene, others, 20,
                             params, cfg)
        c, s = np.cos(np.pi / 2), np.sin(np.pi / 2)
        rot = np.array([[c, -s], [s, c]])
        scene_r = cc.SceneGeometry(
            segments=(np.array([[2.0, -4.0], [2.0, 4.0]]) @ rot.T,),
            polygons=(), bounds=np.array([[-20.0, -20.0], [20.0, 20.0]]))
        others_r = [GroupInit(rot @ np.array([6.0, 1.0]),
                              rot @ np.array([-2.0, 1.0]), 0.9)]
        start_r = rot @ np.array([0.0, 0.2])
        [rotated] = rollout_one(start_r, [rot @ np.array([6.0, 0.0])], 1.1, scene_r,
                                others_r, 20, params, cfg)
        assert np.max(np.abs(rotated - base @ rot.T)) < 1e-6

    def test_zero_speed_uses_floor(self, cfg, params, scene):
        [points] = rollout_one((0.0, 0.0), [(5.0, 0.0)], 0.0, scene, [], 10, params, cfg)
        assert points[-1, 0] >= 0.2

    def test_bad_steps_rejected(self, cfg, params, scene):
        with pytest.raises(ValueError):
            rollout_one((0.0, 0.0), [(1.0, 0.0)], 1.0, scene, [], 0, params, cfg)

    def test_non_finite_group_rejected_before_pruning(self, cfg, params, scene):
        # each far group shares no component with the subject, so no block
        # simulates it; its input is still checked
        for far in (GroupInit(np.array([1e4, np.nan]), np.array([0.0, 0.0]), 1.0),
                    GroupInit(np.array([1e4, 0.0]), np.array([np.inf, 0.0]), 1.0),
                    GroupInit(np.array([1e4, 0.0]), np.array([0.0, 0.0]), 1.0,
                              np.array([np.nan, 0.0]))):
            with pytest.raises(DataError, match="non-finite"):
                rollout_one((0.0, 0.0), [(5.0, 0.0)], 1.0, scene, [far], 5, params, cfg)

    def test_substep_free_integration_still_arrives(self, cfg, scene):
        coarse = ForceParams.from_config(cfg, substeps=1)
        [points] = rollout_one((0.0, 0.0), [(6.0, 0.0)], 1.0, scene, [], 30, coarse, cfg)
        assert np.linalg.norm(points[-1] - [6.0, 0.0]) <= 0.5


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

    def test_members_are_read_only_and_equal_the_checked_construction(self):
        group = self._center()
        offsets = {"a": np.zeros(2), "b": np.array([0.0, 0.4])}
        residuals = {"a": np.array([[0.2, 0.0], [-0.1, 0.3]]), "b": np.zeros((4, 2))}
        out = reconstruct_members(group, offsets, 0.25,
                                  ReconstructionPolicy("rigid", residuals))
        for m, tr in out.items():
            dev = np.tile(residuals[m], (4, 1))[:len(group)]
            checked = cc.Trajectory(m, group.frames, group.times,
                                    group.positions + offsets[m] + 0.75 * dev)
            assert tr.frames is group.frames and tr.times is group.times
            for name in ("frames", "times", "positions"):
                got, want = getattr(tr, name), getattr(checked, name)
                assert not got.flags.writeable
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        # an offset that is not one point is refused, as the checked
        # construction refused the positions it broadcast to
        with pytest.raises(DataError, match="offset of member 'a'"):
            reconstruct_members(group, {"a": np.zeros((3, 1, 2)), "b": np.zeros(2)},
                                0.25, ReconstructionPolicy("rigid", residuals))

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
        for bad in (math.nan, -0.2, 1.2):
            with pytest.raises(DataError):
                reconstruct_members(group, {"a": np.zeros(2)}, bad, policy)
        # a long chained group's emotion rounds to 0: the deviation is unscaled
        policy = ReconstructionPolicy("rigid", {"a": np.tile([0.2, -0.1], (8, 1))})
        out = reconstruct_members(group, {"a": np.zeros(2)}, 0.0, policy)
        assert np.array_equal(out["a"].positions, group.positions + [0.2, -0.1])

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
        policy = evaluate_oracle.from_known_window(
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
        points = rollout_one(start, dests, speed, scene, others, steps, params, cfg,
                             initial_velocity)
        assert len(points) == len(dests)
        for dest, got in zip(dests, points):
            ref = oracle_rollout(start, dest, speed, scene, others, steps,
                                 params, cfg, initial_velocity)
            assert got.tobytes() == ref.positions.tobytes()

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

    def test_aimed_initial_velocities(self, cfg, params, scene):
        # with no velocity given, a body starts at its desired speed aimed at
        # its destination; the aim's length has the bits of the oracle's
        # np.linalg.norm, which a plain sqrt(x*x + y*y) misses in about 8%
        # of rows (the 8 substeps keep a 1-ulp start difference visible)
        rng = np.random.default_rng(11)
        others = [GroupInit(rng.uniform(-8.0, 8.0, 2), rng.uniform(-50.0, 50.0, 2),
                            float(rng.uniform(0.5, 2.0))) for _ in range(5)]
        dests = rng.uniform(-50.0, 50.0, (200, 2))
        self._assert_matches(np.zeros(2), dests, 1.3, scene, others, 1, params, cfg)

    def test_cluster_and_coincident_starts(self, cfg, params, scene):
        start = np.array([0.0, 0.0])
        others = [GroupInit(np.array([0.8, 0.1]), np.array([-9.0, 0.0]), 1.2),
                  GroupInit(np.array([-0.7, 0.4]), np.array([9.0, 1.0]), 1.0),
                  GroupInit(np.array([0.2, -0.9]), np.array([0.0, 9.0]), 0.9),
                  GroupInit(np.array([0.8, 0.1]), np.array([-9.0, 0.0]), 1.2),
                  GroupInit(start.copy(), np.array([8.0, 0.0]), 1.0)]
        dests = np.array([[8.0, 0.0], [0.1, 0.1], [-8.0, -2.0]])
        self._assert_matches(start, dests, 1.0, scene, others, 20, params, cfg)

    def test_arrivals_mid_step_beside_obstacles(self, cfg, monkeypatch):
        """Other groups arrive partway through an output step at 8
        substeps, beside the segment and the polygon, one of them in the
        substep that nudges the coincident twin of an already arrived
        group."""
        params = ForceParams.from_config(cfg, substeps=8)
        scene = cc.parse_scene(self.SCENE)
        start = np.array([0.0, 0.0])
        twin = np.array([-2.0, -2.0])
        others = [GroupInit(np.array([-5.0, 3.0]), np.array([-5.3, 0.0]), 1.0),
                  GroupInit(np.array([3.0, 3.0]), np.array([3.3, -0.5]), 1.0),
                  GroupInit(twin.copy(), twin + np.array([0.1, 0.0]), 1.0),
                  GroupInit(twin.copy(), np.array([-2.0, -12.0]), 0.8),
                  GroupInit(np.array([1.0, -3.0]), np.array([1.305, -3.0]), 1.0)]
        dests = np.array([[2.0, 1.5], [-4.0, -1.0], [0.1, 0.0]])

        seen = []       # (arrived at the substep's start, nudged), per substep
        oracle_forces = rollout_oracle._forces

        def spy(state, *args):
            forces, nudge_rows = oracle_forces(state, *args)
            seen.append((state.arrived.copy(), bool(nudge_rows)))
            return forces, nudge_rows

        monkeypatch.setattr(rollout_oracle, "_forces", spy)
        steps = 12
        self._assert_matches(start, dests, 1.0, scene, others, steps, params, cfg)

        per_rollout = steps * params.substeps
        assert len(seen) == len(dests) * per_rollout
        mid_step = in_nudge = 0
        for c in range(len(dests)):
            run = seen[c * per_rollout:(c + 1) * per_rollout]
            # rows 3 and 4 are the twins: 3 starts arrived, 4 does not, and
            # the first substep nudges them apart
            arrived, nudged = run[0]
            assert arrived[3] and not arrived[4] and nudged
            for s, ((before, nudged), (after, _)) in enumerate(zip(run, run[1:])):
                if (after & ~before)[1:].any():
                    mid_step += s % params.substeps != params.substeps - 1
                    in_nudge += nudged
        assert mid_step >= 3 * len(dests) and in_nudge >= len(dests)

    def test_substep_fast_paths_bit_equal_per_step(self, cfg, monkeypatch):
        """Every state the integrator reaches equals the oracle's, step by
        step, through the unmasked updates before the first arrival and the
        masked ones after it: the bodies arrive at different steps, a
        coincident pair is nudged, bodies are clamped to their caps before
        and after the first arrival, obstacles are present, and one body
        has no partner in range while the others do."""
        params = ForceParams.from_config(cfg, substeps=4)
        scene = cc.parse_scene("seg 0 -3 8 -3\npoly 6 2 7 2 7 3 6 3")
        pos = np.array([[0.0, 0.0], [0.25, 0.05],         # clamped at once
                        [-5.0, 5.0], [-5.0, 5.0],         # nudged twins
                        [40.0, 40.0],                     # alone, arrives first
                        [5.0, -2.7], [6.5, 1.7],          # beside the obstacles
                        [20.0, 0.0], [16.0, 0.05]])       # the fast one pushes
        dest = np.array([[2.5, 0.0], [0.2, 8.0], [-9.0, 5.0], [-1.0, 5.0],
                         [40.5, 40.0], [9.0, -2.7], [6.5, 6.0], [30.0, 0.0],
                         [30.0, 0.05]])
        vel = np.array([[1.0, 0.0], [0.0, 1.2], [0.0, 0.0], [0.0, 0.0], [0.3, 0.0],
                        [1.0, 0.0], [0.0, 1.0], [0.3, 0.0], [2.0, 0.0]])
        speeds = np.array([1.0, 1.2, 0.9, 1.1, 0.5, 1.0, 1.0, 0.3, 2.0])
        h = cfg.step_duration / params.substeps
        seen = []       # per substep: arrived, nudged, clamped, rows with a partner
        forces = dynamics._forces

        def spy(state, *args):
            out, nudge = forces(state, *args)
            v = state.velocities + out / params.mass * h
            over = ~state.arrived & (np.linalg.norm(v, axis=1) > state.max_speeds)
            d = np.linalg.norm(state.positions[:, None] - state.positions[None], axis=2)
            np.fill_diagonal(d, np.inf)
            seen.append((int(state.arrived.sum()), nudge is not None, bool(over.any()),
                         int((d < params.neighborhood_range).any(axis=1).sum())))
            return out, nudge

        monkeypatch.setattr(dynamics, "_forces", spy)
        state = make_sim_state(pos, vel, dest, speeds, params)
        ref = rollout_oracle.make_sim_state(pos, vel, dest, speeds, params)
        for _ in range(24):
            state = step(state, scene, params, cfg.step_duration)
            ref = rollout_oracle.step(ref, scene, params, cfg.step_duration)
            for name in ("positions", "velocities", "arrived"):
                assert getattr(state, name).tobytes() == getattr(ref, name).tobytes(), name
        arrived, nudged, clamped, partnered = zip(*seen)
        assert 0 in arrived and len(set(arrived)) >= 5 and not state.arrived.all()
        assert any(n for a, n in zip(arrived, nudged) if a == 0)
        assert {a > 0 for a, c in zip(arrived, clamped) if c} == {False, True}
        assert set(partnered) == {len(pos) - 1}

        # the same bodies as one rollout of the subject with three candidates
        others = [GroupInit(p, q, float(s), v)
                  for p, q, s, v in zip(pos[1:], dest[1:], speeds[1:], vel[1:])]
        self._assert_matches(pos[0], np.array([dest[0], [-6.0, -6.0], [3.0, 9.0]]),
                             speeds[0], scene, others, 24, params, cfg, vel[0])

    def test_arrived_on_an_edge_and_inside_the_pillar(self, cfg, monkeypatch):
        """An arrived row's terms are computed as any other and zeroed once,
        and masks guard coincidence only. At 8 substeps beside the wall and
        the pillar, one body starts arrived exactly on the wall, one starts
        arrived inside the pillar, one arrives mid-step and the rest move:
        every state equals the oracle's, step by step, with no warning."""
        params = ForceParams.from_config(cfg, substeps=8)
        scene = cc.parse_scene(self.SCENE)
        pos = np.array([[-6.0, 5.0],                      # on the wall, arrived
                        [5.5, -0.5],                      # inside the pillar, arrived
                        [0.0, 0.0],                       # arrives mid-step
                        [-3.0, -4.0], [2.0, 3.0], [8.5, -3.0]])
        dest = pos + np.array([[0.0, 0.1], [0.1, 0.0], [0.5, 0.0],
                               [10.0, 8.0], [-6.0, -9.0], [0.0, 9.0]])
        vel = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0],
                        [0.8, 0.6], [-0.5, -0.7], [0.0, 1.1]])
        speeds = np.array([1.0, 1.0, 1.0, 1.2, 0.9, 1.1])
        _, signed_d = ObstacleLayout(scene, len(pos)).contacts(pos)
        assert abs(signed_d[0, 0]) < 1e-9 and signed_d[1, 1] < 0.0

        arrived = []        # at the start of each substep
        forces = dynamics._forces

        def spy(state, *args):
            arrived.append(state.arrived.copy())
            return forces(state, *args)

        monkeypatch.setattr(dynamics, "_forces", spy)
        state = make_sim_state(pos, vel, dest, speeds, params)
        ref = rollout_oracle.make_sim_state(pos, vel, dest, speeds, params)
        assert state.arrived.tolist() == [True, True, False, False, False, False]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(12):
                state = step(state, scene, params, cfg.step_duration)
                ref = rollout_oracle.step(ref, scene, params, cfg.step_duration)
                for name in ("positions", "velocities", "arrived"):
                    assert getattr(state, name).tobytes() == getattr(ref, name).tobytes(), name
        first = next(s for s, a in enumerate(arrived) if a[2])
        assert 0 < first < params.substeps - 1
        assert not state.arrived[3:].any()
        assert not np.array_equal(state.positions[3:], pos[3:])

    def test_step_when_every_body_has_arrived(self, cfg, params):
        # masked updates keep each arrived body's bits, -0.0 included, where
        # an unmasked add of a zero velocity would turn -0.0 into +0.0; one
        # body sits exactly on its destination, and the twins are not nudged
        scene = cc.parse_scene("seg 0 -3 8 -3\npoly 6 2 7 2 7 3 6 3")
        pos = np.array([[-0.0, 1.0], [2.0, -0.0], [5.0, 5.0], [5.0, 5.0], [6.5, 2.5]])
        dest = pos + np.array([[0.1, 0.0], [0.0, -0.2], [0.0, 0.0], [0.1, 0.1],
                               [-0.1, 0.05]])
        args = (pos, np.ones((5, 2)), dest, np.full(5, 1.0), params)
        state = make_sim_state(*args)
        assert state.arrived.all()
        h = cfg.step_duration / params.substeps
        forces, nudge = substep_forces(state, scene, params, h)
        ref_forces, _ = rollout_oracle._forces(rollout_oracle.make_sim_state(*args),
                                               scene, params, h)
        assert forces.tobytes() == ref_forces.tobytes() and not nudge.any()
        out = step(state, scene, params, cfg.step_duration)
        ref = rollout_oracle.step(rollout_oracle.make_sim_state(*args), scene, params,
                                  cfg.step_duration)
        for name in ("positions", "velocities", "arrived"):
            assert getattr(out, name).tobytes() == getattr(ref, name).tobytes(), name
        assert out.positions.tobytes() == pos.tobytes()
        assert np.signbit(out.positions[0, 0]) and np.signbit(out.positions[1, 1])

    def test_step_keeps_an_arrived_bodys_velocity(self, cfg, params):
        # a state whose arrived rows were given a velocity after it was made:
        # one over its speed cap, one of -0.0s. A step leaves both as they
        # were, as the oracle does, and moves the others as before
        scene = cc.parse_scene("seg 0 -3 8 -3\npoly 6 2 7 2 7 3 6 3")
        pos = np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 4.0], [5.0, -1.0]])
        dest = pos + np.array([[0.1, 0.0], [0.0, 0.1], [6.0, -3.0], [-4.0, 5.0]])
        args = (pos, np.ones((4, 2)), dest, np.full(4, 1.0), params)
        state = make_sim_state(*args)
        ref = rollout_oracle.make_sim_state(*args)
        assert state.arrived.tolist() == [True, True, False, False]
        held = np.array([[9.0, -7.0], [-0.0, -0.0]])
        state.velocities[:2] = held
        ref.velocities[:2] = held
        for _ in range(3):
            state = step(state, scene, params, cfg.step_duration)
            ref = rollout_oracle.step(ref, scene, params, cfg.step_duration)
            for name in ("positions", "velocities", "arrived"):
                assert getattr(state, name).tobytes() == getattr(ref, name).tobytes(), name
        assert state.velocities[:2].tobytes() == held.tobytes()
        assert not np.array_equal(state.positions[2:], pos[2:])

    def test_reach_bound_edge(self, cfg, params, scene):
        from crowdcast.dynamics import _REACH_MARGIN

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
        keep = dense_reach_component(np.stack([start, inside.pos, outside.pos]),
                                     np.full(3, cap), params.neighborhood_range, horizon)
        assert keep.tolist() == [0, 1]
        dests = np.array([[50.0, 0.0], [0.0, 50.0]])
        self._assert_matches(start, dests, 1.0, scene, [inside, outside], steps,
                             params, cfg, np.array([cap, 0.0]))


    @pytest.mark.parametrize("given", [False, True])
    def test_several_subjects_beside_others(self, cfg, given):
        """Four subjects and twelve others in one call: each subject's
        candidates have the bits of the oracle given the other subjects,
        heading to their last candidates, then the others."""
        params = ForceParams.from_config(cfg, substeps=2)
        scene = cc.parse_scene(self.SCENE)
        rng = np.random.default_rng(21 + given)
        subjects = [self._random_case(rng, 0) for _ in range(4)]
        subjects[1] = (subjects[0][0] + 1.5,) + subjects[1][1:]
        start = np.array([c[0] for c in subjects])
        dest = [c[1] for c in subjects]
        speed = np.array([c[2] for c in subjects])
        vel = rng.uniform(-1.5, 1.5, (4, 2)) if given else None
        others = self._random_case(rng, 12)[3]
        as_others = [GroupInit(start[s], dest[s][-1], speed[s], None if vel is None else vel[s])
                     for s in range(4)]
        steps = 12
        out = predict_group_trajectory(start, dest, speed, scene, others, steps, params,
                                       cfg, vel)
        assert [len(o) for o in out] == [len(d) for d in dest]
        for s in range(4):
            rest = as_others[:s] + as_others[s + 1:] + others
            for d, got in zip(dest[s], out[s]):
                ref = oracle_rollout(start[s], d, speed[s], scene, rest, steps, params,
                                     cfg, None if vel is None else vel[s])
                assert got.tobytes() == ref.positions.tobytes()

    @pytest.mark.parametrize("given", [False, True])
    def test_only_bodies_without_a_velocity_are_aimed(self, cfg, monkeypatch, given):
        """The aimed start velocity is worked out for the bodies that keep
        it and no other: with every velocity given, for none."""
        params = ForceParams.from_config(cfg, substeps=1)
        rng = np.random.default_rng(5)
        start = rng.uniform(-5.0, 5.0, (3, 2))
        dest = [rng.uniform(-20.0, 20.0, (2, 2)) for _ in range(3)]
        vel = rng.uniform(-1.0, 1.0, (3, 2)) if given else None
        others = [GroupInit(rng.uniform(-5.0, 5.0, 2), rng.uniform(-20.0, 20.0, 2), 1.0, v)
                  for v in (rng.uniform(-1.0, 1.0, 2), None, None)]
        aimed = []

        def unit(to, real=dynamics._unit):
            aimed.append(len(to))
            return real(to)
        monkeypatch.setattr(dynamics, "_unit", unit)
        for rest in (others, others[:1]):
            aimed.clear()
            predict_group_trajectory(start, dest, [1.0, 1.2, 0.8], cc.SceneGeometry.empty(),
                                     rest, 6, params, cfg, vel)
            # the first call aims the bodies, if any; without given subject
            # velocities each block's lead is aimed at its candidate too
            want = 3 * (not given) + (len(rest) - 1)
            assert aimed == [want] * (want > 0) + [6] * (not given)

    def test_subject_arrays_checked(self, cfg, params, scene):
        for start, dest, speed in (([(0.0, 0.0), (5.0, 0.0)], [[(1.0, 0.0)]], [1.0, 1.0]),
                                   ([(0.0, 0.0)], [[(1.0, 0.0)]], [1.0, 1.0]),
                                   ([(0.0, 0.0)], [np.empty((0, 2))], [1.0])):
            with pytest.raises(DataError):
                predict_group_trajectory(start, dest, speed, scene, [], 5, params, cfg)
        with pytest.raises(ValueError, match="non-negative"):
            predict_group_trajectory([(0.0, 0.0)], [[(1.0, 0.0)]], [-1.0], scene, [], 5,
                                     params, cfg)
        assert predict_group_trajectory(np.empty((0, 2)), [], [], scene, [], 5, params,
                                        cfg) == []


def _window_at_the_reach_bound(cfg, params):
    """Tracks whose known window (frames 20..24) ends with groups at the
    reach bound ± 1 µm along x and along y, a two-member group, a lone
    group and two clusters far apart, all slower than the speed floor (so every speed cap
    is the floor's); walkers over frames 0..15 fill the database."""
    horizon = cfg.predict_time_steps * cfg.step_duration
    cap = params.max_speed_for(0.0)
    bound = params.neighborhood_range + (cap + cap) * horizon + dynamics._REACH_MARGIN
    ends = {"a": ((0.0, 0.0), (0.0, 0.0)),
            "b": ((bound - 1e-6, 0.0), (-0.25, 0.0)),             # linked to a
            "c": ((bound - 1e-6, bound + 1e-6), (0.0, 0.2)),      # not to b
            "d": ((bound - 1e-6, 2.0 * bound), (0.1, -0.2)),      # linked to c
            "e": ((300.0, -400.0), (0.2, 0.0)),
            "m1": ((-3.0, 2.0), (0.2, 0.1)), "m2": ((-3.0, 2.3), (0.2, 0.1))}
    rng = np.random.default_rng(5)
    for k, center in enumerate(((1000.0, 1000.0), (-5000.0, 300.0))):
        for g in range(4 - k):
            at = np.array(center) + rng.uniform(-4.0, 4.0, 2)
            ends[f"k{k}.{g}"] = (at, 0.25 * (np.array(center) - at) / 4.0)
    frames = np.arange(20, 25)
    tracks = []
    for name, (last, vel) in ends.items():
        back = (24 - frames)[:, None] * np.asarray(vel) * STEP
        tracks.append(cc.Trajectory.from_frame_grid(name, frames, np.asarray(last) - back,
                                                    STEP))
        walk = np.asarray(last) + rng.normal(0.0, 0.4, (16, 2)).cumsum(axis=0)
        tracks.append(cc.Trajectory.from_frame_grid(f"h.{name}", np.arange(16), walk,
                                                    STEP))
    return tracks


def _unordered_pairs(edges):
    i, j = (np.asarray(e) for e in edges)
    return sorted(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))


def _spy_advance(monkeypatch) -> list:
    """Patch ``dynamics._advance`` to record, per call, the state's bodies,
    its pair entries and the number of rows it watches."""
    advances = []
    advance = dynamics._advance

    def spy(sim, scene, params, dt, steps, watch):
        advances.append((len(sim.positions), len(sim.rows), len(watch)))
        return advance(sim, scene, params, dt, steps, watch)

    monkeypatch.setattr(dynamics, "_advance", spy)
    return advances


def _spy_near_pairs(monkeypatch) -> list:
    """Patch the ``core.near_pairs`` that ``dynamics.reach_edges`` calls to
    record the size of each block of pairs it hands out for testing."""
    blocks = []
    near_pairs = dynamics.near_pairs

    def spy(*args):
        for i, j in near_pairs(*args):
            blocks.append(len(i))
            yield i, j

    monkeypatch.setattr(dynamics, "near_pairs", spy)
    return blocks


def _predict_window(monkeypatch, tracks, endtime, cfg, params, scene):
    """``predict_at_endtime`` with spies: returns its predictions, the
    ``reach_edges`` calls as (arguments, result), the
    ``predict_group_trajectory`` calls as (arguments, keywords, result), and
    the ``_spy_advance`` records."""
    from crowdcast import pipeline

    graphs, calls = [], []
    reach_edges = dynamics.reach_edges      # the spy calls the original

    def spy(*args, **kw):
        out = predict_group_trajectory(*args, **kw)
        calls.append((args, kw, out))
        return out

    def graph_spy(*args):
        out = reach_edges(*args)
        graphs.append((args, out))
        return out

    monkeypatch.setattr(pipeline, "predict_group_trajectory", spy)
    monkeypatch.setattr(dynamics, "reach_edges", graph_spy)
    advances = _spy_advance(monkeypatch)
    preds = cc.predict_at_endtime(tracks, endtime, cc.build_database(tracks, cfg, endtime),
                                  cfg, params, scene)
    return preds, graphs, calls, advances


def test_window_components_equal_full_rollouts(monkeypatch):
    """``predict_at_endtime`` makes one rollout call per window, with every
    group as a subject, and that call builds one reach graph: the edges of
    the dense test over every pair of the window's groups. Each group's
    candidates have the bits of a one-subject call given every other group;
    its component, as the dense test over every group of the window finds
    it, has the size the tracks were built for."""
    cfg = cc.Config(known_time_steps=5, predict_time_steps=10, k_candidates=2,
                    min_overlap_frames=3)
    params = ForceParams.from_config(cfg, substeps=2)
    scene = cc.parse_scene("seg 1001 990 1001 1010")
    tracks = _window_at_the_reach_bound(cfg, params)
    preds, graphs, calls, _ = _predict_window(monkeypatch, tracks, 24, cfg, params, scene)
    assert [p.members for p in preds][-1] == ("m1", "m2")
    assert len(graphs) == len(calls) == 1
    [((start, dest, speed, _, others, steps, *_), kw, out)] = calls
    [(_, edges)] = graphs
    assert others == [] and steps == cfg.predict_time_steps
    assert len(start) == len(dest) == len(speed) == len(out) == len(preds)
    vel = kw["initial_velocity"]
    inits = [GroupInit(p, d[-1], s, v) for p, d, s, v in zip(start, dest, speed, vel)]
    adj = dense_reach_adjacency(start, params.max_speed_for(speed),
                                params.neighborhood_range, steps * cfg.step_duration)
    assert _unordered_pairs(edges) == [tuple(e) for e in np.argwhere(np.triu(adj)).tolist()]
    sizes = []
    for g, (pred, got) in enumerate(zip(preds, out)):
        assert pred.group_points is got
        rest = inits[:g] + inits[g + 1:]
        want = rollout_one(start[g], dest[g], speed[g], scene, rest, steps, params, cfg,
                           vel[g])
        assert len(got) == len(want) == len(dest[g])
        assert got.tobytes() == want.tobytes()
        pos = np.stack([start[g]] + [o.pos for o in rest])
        caps = params.max_speed_for(np.array([speed[g]] + [o.speed for o in rest]))
        sizes.append(len(dense_reach_component(pos, caps, params.neighborhood_range,
                                               steps * cfg.step_duration)))
    # a, b and the pair; c and d; e alone; the two clusters
    assert sizes == [3, 3, 2, 2, 1] + [4] * 4 + [3] * 3 + [3]


class TestChunkedRollout:
    """``predict_group_trajectory`` advances whole subjects' blocks in chunks
    of at most ``_CHUNK`` bodies plus pair entries, or one subject."""

    def test_chunk_budget_changes_no_bit(self, monkeypatch):
        cfg = cc.Config(known_time_steps=5, predict_time_steps=10, k_candidates=2,
                        min_overlap_frames=3)
        params = ForceParams.from_config(cfg, substeps=2)
        scene = cc.parse_scene("seg 1001 990 1001 1010")
        tracks = _window_at_the_reach_bound(cfg, params)
        runs = {}
        for budget in (1, 2**40):
            monkeypatch.setattr(dynamics, "_CHUNK", budget)
            preds, _, _, advances = _predict_window(monkeypatch, tracks, 24, cfg, params,
                                                    scene)
            runs[budget] = [g.tobytes() for p in preds for g in p.group_points]
            assert len(advances) == (len(preds) if budget == 1 else 1)
            assert sum(n for *_, n in advances) == len(runs[budget])
        assert runs[1] == runs[2**40]

    def test_concourse_window_advances_once(self, monkeypatch):
        """Three clusters of six lone walkers, 120 m apart, with six
        candidates each: the shape of a ``concourse`` benchmark window. Its
        108 blocks fit one chunk, so the window runs one ``_advance``."""
        cfg = cc.Config()
        params = ForceParams.from_config(cfg, substeps=1)
        rng = np.random.default_rng(3)
        tracks = []
        for c in range(3):
            for g in range(6):
                at = np.array([120.0 * c + 6.0 * (g % 3), 6.0 * (g // 3)]) \
                    + rng.uniform(-1.0, 1.0, 2)
                vel = np.array([1.2, 0.0]) + rng.uniform(-0.1, 0.1, 2)
                tracks.append(line_track(f"g{c}.{g}", 30, 30, at - 29 * vel * STEP, vel))
                tracks.append(line_track(f"h{c}.{g}", 0, 25, at - 40 * vel * STEP, vel))
        preds, _, _, advances = _predict_window(monkeypatch, tracks, 59, cfg, params,
                                                cc.SceneGeometry.empty())
        assert len(preds) == 18
        assert {len(p.candidates) for p in preds} == {cfg.k_candidates + 1}
        [(bodies, entries, blocks)] = advances
        assert blocks == 108 and bodies + entries <= dynamics._CHUNK

    def test_dense_window_chunks_stay_bounded(self, monkeypatch, cfg):
        """A dense crowd of 40 subjects in one reach component, beside 30
        far-apart lone ones: every chunk holds at most the budget or one
        subject's blocks, every block runs once, and each subject's
        candidates have the bits of a one-subject call given the others."""
        params = ForceParams.from_config(cfg, substeps=1)
        rng = np.random.default_rng(9)
        start = np.concatenate([rng.uniform(-8.0, 8.0, (40, 2)),
                                500.0 * np.arange(1, 31)[:, None] + np.zeros((30, 2))])
        dest = [start[s] + rng.uniform(-20.0, 20.0, (int(rng.integers(1, 6)), 2))
                for s in range(len(start))]
        speed = rng.uniform(0.5, 1.5, len(start))
        steps = 3
        horizon = steps * cfg.step_duration
        caps = params.max_speed_for(speed)
        adj = dense_reach_adjacency(start, caps, params.neighborhood_range, horizon)
        costs = []
        for s in range(len(start)):
            comp = dense_reach_component(np.roll(start, -s, axis=0),
                                         np.roll(caps, -s), params.neighborhood_range,
                                         horizon)
            rows = (comp + s) % len(start)
            costs.append(len(dest[s]) * (len(rows) + adj[np.ix_(rows, rows)].sum()))
        assert len(set(costs[:40])) > 1 and max(costs) > dynamics._CHUNK

        advances = _spy_advance(monkeypatch)
        out = predict_group_trajectory(start, dest, speed, cc.SceneGeometry.empty(), [],
                                       steps, params, cfg)
        assert [len(o) for o in out] == [len(d) for d in dest]
        sizes = [bodies + entries for bodies, entries, _ in advances]
        assert max(sizes) <= max(dynamics._CHUNK, max(costs))
        assert sum(sizes) == sum(costs)
        assert sum(n for *_, n in advances) == sum(len(d) for d in dest)
        assert len(advances) < len(start)

        inits = [GroupInit(p, d[-1], v) for p, d, v in zip(start, dest, speed)]
        for s in range(len(start)):
            want = rollout_one(start[s], dest[s], speed[s], cc.SceneGeometry.empty(),
                               inits[:s] + inits[s + 1:], steps, params, cfg)
            assert out[s].tobytes() == want.tobytes()


class TestBlockAssemblyMatchesOracle:
    """Each chunk's ``SimState`` and block first rows, built in one array
    pass, have the bytes of ``rollout_oracle.block_states``, which builds
    them one subject at a time."""

    @staticmethod
    def _spy_states(mp) -> list:
        """Patch ``dynamics._advance`` to record each chunk's state and
        watched rows and return zero positions without simulating."""
        seen = []

        def spy(sim, scene, params, dt, steps, watch):
            seen.append((sim, watch))
            return np.zeros((len(watch), steps, 2))

        mp.setattr(dynamics, "_advance", spy)
        return seen

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_sub=st.integers(0, 7),
           n_others=st.integers(0, 4), spread=st.sampled_from([3.0, 15.0, 60.0, 1e4]),
           budget=st.sampled_from([1, 8, 40, 300, dynamics._CHUNK]),
           given_vel=st.booleans(), max_cands=st.integers(1, 6))
    def test_random_components(self, seed, n_sub, n_others, spread, budget, given_vel,
                               max_cands):
        """Random component shapes (a spread of 1e4 m leaves only
        singletons), 1-6 candidates per subject (one is the straight-line
        case), no subject at all, chunk splits forced by a small
        ``_CHUNK``, and velocities given or not."""
        cfg = cc.Config(predict_time_steps=4)
        params = ForceParams.from_config(cfg, substeps=1)
        rng = np.random.default_rng(seed)
        start = rng.uniform(-spread, spread, (n_sub, 2))
        dest = [start[s] + rng.uniform(-20.0, 20.0, (int(rng.integers(1, max_cands + 1)), 2))
                for s in range(n_sub)]
        speed = rng.uniform(0.0, 2.0, n_sub)
        vel = rng.uniform(-1.5, 1.5, (n_sub, 2)) if given_vel else None
        others = [GroupInit(rng.uniform(-spread, spread, 2), rng.uniform(-50.0, 50.0, 2),
                            float(rng.uniform(0.0, 2.0)),
                            rng.uniform(-1.0, 1.0, 2) if rng.random() < 0.5 else None)
                  for _ in range(n_others)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_CHUNK", budget)
            seen = self._spy_states(mp)
            out = predict_group_trajectory(start, dest, speed, cc.SceneGeometry.empty(),
                                           others, cfg.predict_time_steps, params, cfg, vel)
            want = rollout_oracle.block_states(start, dest, speed, others,
                                               cfg.predict_time_steps, params, cfg, vel)
        assert [len(o) for o in out] == [len(d) for d in dest]
        assert len(seen) == len(want)
        for (sim, lead), (ref, ref_lead) in zip(seen, want):
            for name in ("positions", "velocities", "destinations", "desired_speeds",
                         "max_speeds", "arrived", "rows", "cols", "ends", "bins"):
                got, exp = getattr(sim, name), getattr(ref, name)
                assert got.dtype == exp.dtype and got.shape == exp.shape, name
                assert got.tobytes() == exp.tobytes(), name
            assert lead.dtype == ref_lead.dtype and lead.tobytes() == ref_lead.tobytes()


class TestRolloutCostFamily:
    """The rollout slice of the cost family: one ``predict_at_endtime``
    window at n and 4n groups. The pairs ``reach_edges`` tests, and the
    bodies and pair entries handed to ``_advance``, each grow by at most
    4 × (1 + ε), or by the model's own order where that is larger. A block
    holds its subject's whole reach component, so a component of G groups
    costs G² bodies and G · 2E pair entries over its G blocks (E edges,
    one candidate per group here: the window has no history)."""

    N = 9
    # room for the ends of a chain and the cells' phase along it (11 pairs
    # tested at 9 groups, 51 at 36), far below a quadratic count's 16x
    EPS = 0.25

    # group g's position at the endtime, of G groups
    SHAPES = {
        # 100 m apart along y: no reach edge, and no pair to test
        "singletons": lambda g, G: (0.0, 100.0 * g),
        # 20 m apart along x: each group reach-linked to its neighbours only
        "chain": lambda g, G: (20.0 * g, 0.0),
        # a square block 2.5 m apart: every pair a reach edge
        "plaza": lambda g, G: (2.5 * (g % math.isqrt(G)), 2.5 * (g // math.isqrt(G))),
    }

    # each count's order in G: (pairs tested, bodies, pair entries)
    ORDERS = {
        "singletons": (lambda G: G, lambda G: G, lambda G: G),
        "chain": (lambda G: G, lambda G: G * G, lambda G: G * (G - 1)),
        "plaza": (lambda G: G * (G - 1), lambda G: G * G, lambda G: G * G * (G - 1)),
    }

    def counts(self, monkeypatch, shape: str, n_groups: int) -> tuple:
        cfg = cc.Config(known_time_steps=5, predict_time_steps=10, min_overlap_frames=3)
        params = ForceParams.from_config(cfg, substeps=1)
        vel = np.array([1.0, 0.0])
        tracks = [line_track(f"g{g}", 0, 5, np.array(self.SHAPES[shape](g, n_groups))
                             - 4 * vel * STEP, vel) for g in range(n_groups)]
        blocks = _spy_near_pairs(monkeypatch)
        preds, [(_, (i, _))], _, advances = _predict_window(
            monkeypatch, tracks, 4, cfg, params, cc.SceneGeometry.empty())
        assert len(preds) == n_groups
        assert {len(p.candidates) for p in preds} == {1}
        pairs = sum(blocks)
        # every reach edge is a pair the cell list handed out
        assert pairs >= len(i)
        return (pairs, sum(b for b, _, _ in advances), sum(e for _, e, _ in advances))

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_growth_within_the_model_order(self, monkeypatch, shape):
        small = self.counts(monkeypatch, shape, self.N)
        large = self.counts(monkeypatch, shape, 4 * self.N)
        for name, a, b, order in zip(("pairs tested", "bodies", "pair entries"),
                                     small, large, self.ORDERS[shape]):
            growth = max(4.0, order(4 * self.N) / order(self.N))
            assert b <= growth * (1.0 + self.EPS) * a, (shape, name, a, b)
        if shape == "chain":
            # the whole component in every block: about 16x the bodies
            assert large[1] == 16 * small[1]


class TestPerWindowCallCounts:
    """The call slice of the cost family: one ``predict_at_endtime`` window
    under ``seeded-jitter`` at n and 4n groups, a chain of pairs each
    reach-linked to its neighbours. The ``np.random.default_rng``
    constructions per window and the ``np.lexsort`` calls per rollout chunk
    are of order 0 in G: they may not grow at all."""

    N = 9
    ORDER = 0

    def counts(self, monkeypatch, n_groups: int) -> tuple:
        from crowdcast import pipeline

        cfg = cc.Config(known_time_steps=5, predict_time_steps=10, min_overlap_frames=3)
        params = ForceParams.from_config(cfg, substeps=1)
        vel = np.array([1.0, 0.0])
        tracks = [line_track(f"g{g}.{m}", 0, 5, (20.0 * g - 4 * STEP, 0.5 * m), vel)
                  for g in range(n_groups) for m in range(2)]
        calls = {"default_rng": 0, "lexsort": 0}
        inside = []

        def counted(name, fn):
            def spy(*args, **kw):
                calls[name] += name == "default_rng" or bool(inside)
                return fn(*args, **kw)
            return spy

        def rollout(*args, **kw):
            inside.append(True)
            try:
                return predict_group_trajectory(*args, **kw)
            finally:
                inside.pop()

        monkeypatch.setattr(np.random, "default_rng",
                            counted("default_rng", np.random.default_rng))
        monkeypatch.setattr(np, "lexsort", counted("lexsort", np.lexsort))
        monkeypatch.setattr(pipeline, "predict_group_trajectory", rollout)
        advances = _spy_advance(monkeypatch)
        preds = cc.predict_at_endtime(tracks, 4, cc.build_database(tracks, cfg, 4), cfg,
                                      params, cc.SceneGeometry.empty(),
                                      mode="seeded-jitter", seed=3)
        assert [len(p.members) for p in preds] == [2] * n_groups
        assert len(advances) == 1
        return calls["default_rng"], calls["lexsort"] / len(advances)

    def test_constant_in_the_group_count(self, monkeypatch):
        small = self.counts(monkeypatch, self.N)
        large = self.counts(monkeypatch, 4 * self.N)
        growth = 4.0 ** self.ORDER
        for name, a, b in zip(("generators", "lexsorts per chunk"), small, large):
            assert 0 < a and b <= growth * a, (name, a, b)


class TestObstacleLayoutPerChunk:
    """The obstacle slice of the call counts: one ``predict_at_endtime``
    window at n and 4n groups, a chain of pairs each reach-linked to its
    neighbours, in a scene with a wall and a pillar. Each rollout chunk lays
    out the scene's obstacle edges exactly once, against its own bodies,
    however many substeps it runs: layouts per chunk are of order 0 in G."""

    N = 9
    ORDER = 0
    SCENE = "seg -10 3 -10 9\npoly 30 -4 31 -4 31 -3 30 -3"

    def counts(self, monkeypatch, n_groups: int, substeps: int) -> tuple:
        cfg = cc.Config(known_time_steps=5, predict_time_steps=10, min_overlap_frames=3)
        params = ForceParams.from_config(cfg, substeps=substeps)
        vel = np.array([1.0, 0.0])
        tracks = [line_track(f"g{g}.{m}", 0, 5, (20.0 * g - 4 * STEP, 0.5 * m), vel)
                  for g in range(n_groups) for m in range(2)]
        layouts = []

        def spy(scene, m):
            layouts.append(m)
            return ObstacleLayout(scene, m)

        monkeypatch.setattr(dynamics, "ObstacleLayout", spy)
        advances = _spy_advance(monkeypatch)
        preds = cc.predict_at_endtime(tracks, 4, cc.build_database(tracks, cfg, 4), cfg,
                                      params, cc.parse_scene(self.SCENE))
        assert [len(p.members) for p in preds] == [2] * n_groups
        # one layout per chunk, as wide as the chunk's bodies
        assert layouts == [bodies for bodies, _, _ in advances]
        return len(layouts) / len(advances), len(advances)

    # the default chunk holds either window whole; 256 splits the larger one
    @pytest.mark.parametrize("chunk, split", [(dynamics._CHUNK, False), (1 << 8, True)])
    @pytest.mark.parametrize("substeps", [1, 8])
    def test_one_layout_per_chunk(self, monkeypatch, substeps, chunk, split):
        monkeypatch.setattr(dynamics, "_CHUNK", chunk)
        (small, _), (large, chunks) = (self.counts(monkeypatch, n, substeps)
                                       for n in (self.N, 4 * self.N))
        assert small == 1.0 and large <= 4.0 ** self.ORDER * small
        assert (chunks > 1) == split


class TestReachEdgesMatchDense:
    """``reach_edges`` returns, as i < j pairs, exactly the edges of the
    dense test over every pair of rows."""

    REACH, HORIZON = 10.0, 4.0

    def check(self, pos, caps):
        pos = np.asarray(pos, dtype=np.float64).reshape(-1, 2)
        caps = np.asarray(caps, dtype=np.float64)
        i, j = dynamics.reach_edges(pos, caps, self.REACH, self.HORIZON)
        assert i.dtype == j.dtype == np.intp and np.all(i < j)
        got = sorted(zip(i.tolist(), j.tolist()))
        adj = dense_reach_adjacency(pos, caps, self.REACH, self.HORIZON)
        assert got == [tuple(e) for e in np.argwhere(np.triu(adj)).tolist()]
        return len(got)

    def bound(self, cap_sum):
        return self.REACH + cap_sum * self.HORIZON + dynamics._REACH_MARGIN

    @pytest.mark.parametrize("seed", range(4))
    def test_random_points(self, seed):
        rng = np.random.default_rng(seed)
        n = 400
        pos = rng.uniform(-150.0, 150.0, (n, 2))
        pos[: n // 4] = pos[0] + rng.normal(0.0, 3.0, (n // 4, 2))   # a cluster
        assert self.check(pos, rng.uniform(0.6, 4.0, n)) > n // 4

    @pytest.mark.parametrize("axis", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)],
                             ids=["x", "y", "diagonal"])
    @pytest.mark.parametrize("origin", [0.0, 1e9 - 500.0, -1e9 + 500.0],
                             ids=["origin", "plus-1e9", "minus-1e9"])
    def test_at_the_bound(self, axis, origin):
        cap = 1.7
        unit = np.array(axis)
        base = np.array([origin, -origin])
        for d, edges in ((self.bound(2 * cap) - 1e-6, 1), (self.bound(2 * cap) + 1e-6, 0)):
            n = self.check([base, base + d * unit], [cap, cap])
            if origin == 0.0:
                assert n == edges

    def test_exactly_at_the_bound_is_no_edge(self):
        # sqrt(x*x) == |x|, so these two pairs lie exactly at the bound
        b = self.bound(2 * 0.5)
        assert self.check([(0.0, 0.0), (b, 0.0), (b, b)], [0.5] * 3) == 0

    def test_near_scale_limit(self):
        rng = np.random.default_rng(3)
        pos = np.vstack([1e9 - rng.uniform(0.0, 60.0, (50, 2)),
                         -1e9 + rng.uniform(0.0, 60.0, (50, 2)),
                         [[1e9, -1e9], [-1e9, 1e9]]])
        assert self.check(pos, np.full(len(pos), 0.6)) > 0

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_inputs(self, n):
        assert self.check(np.zeros((n, 2)), np.full(n, 0.6)) == n * (n - 1) // 2

    def test_unequal_caps(self):
        # the broad phase reaches as far as the largest cap allows; an edge
        # between two slow groups needs their own, shorter bound
        slow, fast = 0.6, 5.0
        between = 0.5 * (self.bound(2 * slow) + self.bound(slow + fast))
        pos = [(0.0, 0.0), (between, 0.0), (0.0, between), (-100.0, 0.0)]
        caps = [slow, slow, fast, fast]
        assert self.check(pos, caps) == 1


def oracle_contacts(scene, pts) -> tuple:
    """The (O, M, 2) offsets ``p - q`` and (O, M) signed distances of
    ``rollout_oracle.obstacle_contacts``, point by point."""
    away = np.empty((len(scene.segments) + len(scene.polygons), len(pts), 2))
    dist = np.empty(away.shape[:2])
    for m, p in enumerate(pts):
        for o, (q, d) in enumerate(rollout_oracle.obstacle_contacts(scene, p)):
            away[o, m], dist[o, m] = p - q, d
    return away, dist


class TestObstacleFieldMatchesOracle:
    """``ObstacleLayout.contacts`` and the obstacle terms of the force
    return the bits of the scalar per-point code in ``rollout_oracle``,
    signed zeros included, on points placed where the geometry is
    ambiguous: on vertices and edges, at equal distance from several
    edges, and inside or outside polygons of either orientation with
    repeated vertices. The contacts' offsets are compared as ``p - q`` of
    the oracle's nearest points ``q``."""

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
        away, dist = ObstacleLayout(scene, len(pts)).contacts(pts)
        assert away.shape == (10, len(pts), 2) and dist.shape == (10, len(pts))
        ref_away, ref_dist = oracle_contacts(scene, pts)
        assert away.tobytes() == ref_away.tobytes()
        assert dist.tobytes() == ref_dist.tobytes()
        assert np.any(dist < 0.0) and np.any(dist == 0.0)

    def test_contacts_signed_zero_at_a_vertex(self):
        # a point on a vertex at x = -0.0 of an edge heading to -x and -y:
        # its projection t sums two -0.0 products, and must come out as the
        # oracle's max(0.0, t) = +0.0, or the offset's x would be
        # -0.0 - 0.0 = -0.0 where the oracle's is -0.0 - (-0.0) = +0.0
        scene = cc.SceneGeometry((np.array([[-0.0, 1.0], [-1.0, 0.0]]),),
                                 (np.array([[-0.0, 3.0], [-1.0, 2.0], [1.0, 2.0]]),),
                                 np.array([[-5.0, -5.0], [5.0, 5.0]]))
        pts = np.array([[-0.0, 1.0], [-0.0, 3.0], [0.0, 1.0]])
        away, dist = ObstacleLayout(scene, len(pts)).contacts(pts)
        ref_away, ref_dist = oracle_contacts(scene, pts)
        assert away.tobytes() == ref_away.tobytes()
        assert dist.tobytes() == ref_dist.tobytes()
        assert not np.signbit(away[0, 0, 0])

    @pytest.mark.parametrize("segments, polygons", [
        (range(4), ()),                 # segments only
        ((), (4, 0, 5)),                # rings of 5, 4 and 4 vertices in a row
        ((1, 2), (2, 3, 1)),            # a zero-length ring edge mid-stack
    ])
    def test_contacts_bit_equal_on_edge_stack(self, segments, polygons):
        scene = cc.SceneGeometry(tuple(np.array(self.SEGMENTS[i]) for i in segments),
                                 tuple(np.array(self.POLYGONS[i]) for i in polygons),
                                 np.array([[-10.0, -10.0], [10.0, 10.0]]))
        n_obstacles = len(segments) + len(polygons)
        away, dist = ObstacleLayout(scene, 0).contacts(np.empty((0, 2)))
        assert away.shape == (n_obstacles, 0, 2) and dist.shape == (n_obstacles, 0)
        pts = self._points(np.random.default_rng(9))[::3]
        away, dist = ObstacleLayout(scene, len(pts)).contacts(pts)
        ref_away, ref_dist = oracle_contacts(scene, pts)
        assert away.tobytes() == ref_away.tobytes()
        assert dist.tobytes() == ref_dist.tobytes()

    def test_forces_bit_equal(self, cfg, params):
        h = cfg.step_duration / params.substeps

        def assert_same_forces(scene, p, vel, dest):
            args = ([p], [vel], [dest], [1.0], params)
            forces, _ = substep_forces(make_sim_state(*args), scene, params, h)
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
