"""Core types: trajectories, resampling, scene geometry, canonical CSV,
and the sample database."""

from __future__ import annotations

import time

import numpy as np
import pytest

import crowdcast as cc
from crowdcast.core import (
    DataError,
    TooFewPointsError,
    history_for_endtime,
    natural_key,
    parse_scene,
)

from conftest import STEP, line_track, random_track


class TestTrajectory:
    def test_frames_must_increase(self):
        with pytest.raises(DataError):
            cc.Trajectory("1", np.array([3, 2, 5]), np.arange(3.0),
                          np.zeros((3, 2)))

    def test_arrays_read_only(self):
        tr = line_track("1", 0, 4, (0, 0), (1, 0))
        with pytest.raises(ValueError):
            tr.positions[0, 0] = 9.0

    def test_position_lookup(self):
        tr = line_track("1", 5, 4, (0, 0), (1, 0))
        assert tr.index_of_frame(6) == 1
        assert tr.has_frame(8) and not tr.has_frame(9)

    def test_velocity_at_frame_array(self):
        rng = np.random.default_rng(2)
        pos = rng.normal(size=(6, 2))
        tr = cc.Trajectory.from_frame_grid("1", [3, 4, 6, 7, 9, 12], pos, STEP)
        frames = [3, 4, 7, 12]
        rows = cc.velocity_at(tr, frames)
        assert rows.shape == (4, 2)
        for f, row in zip(frames, rows):
            assert np.array_equal(cc.velocity_at(tr, f), row)
        assert np.array_equal(cc.velocity_at(tr, 3), cc.velocity_at(tr, 4))
        assert np.array_equal(cc.velocity_at(tr, 7),
                              (pos[3] - pos[2]) / (tr.times[3] - tr.times[2]))
        with pytest.raises(DataError, match="frame 5"):
            cc.velocity_at(tr, [3, 5])
        with pytest.raises(DataError, match="frame 13"):
            cc.velocity_at(tr, 13)
        with pytest.raises(DataError):
            tr.index_of_frame(99)

    def test_restrict_frames_inclusive(self):
        tr = line_track("1", 0, 10, (0, 0), (1, 0))
        part = tr.restrict_frames(3, 6)
        assert list(part.frames) == [3, 4, 5, 6]
        assert np.array_equal(part.positions, tr.positions[3:7])


class TestVelocity:
    def test_backward_difference(self):
        tr = line_track("1", 0, 5, (0, 0), (1.5, 0))
        v = cc.velocity_at(tr, 3)
        assert np.allclose(v, [1.5, 0.0], atol=1e-12)

    def test_first_point_uses_forward_difference(self):
        tr = line_track("1", 0, 5, (0, 0), (0, 2.0))
        v = cc.velocity_at(tr, 0)
        assert np.allclose(v, [0.0, 2.0], atol=1e-12)

    def test_single_point_rejected(self):
        tr = cc.Trajectory.from_frame_grid("1", np.array([0]),
                                           np.zeros((1, 2)), STEP)
        with pytest.raises(TooFewPointsError):
            cc.velocity_at(tr, 0)


class TestAverageDirection:
    def test_hand_example(self):
        tr = line_track("1", 0, 3, (0, 0), (1 / STEP, 0))
        # positions (0,0), (1,0), (2,0); mean of (2-0) and (2-1) is 1.5
        assert np.allclose(cc.average_direction(tr, 3), [1.5, 0.0])

    def test_step_bounds(self):
        tr = line_track("1", 0, 3, (0, 0), (1, 0))
        with pytest.raises(TooFewPointsError):
            cc.average_direction(tr, 1)
        with pytest.raises(DataError):
            cc.average_direction(tr, 4)


class TestResample:
    def test_on_grid_input_is_identity(self):
        tr = line_track("1", 2, 6, (0, 0), (1.2, -0.4))
        out = cc.resample_trajectory(tr, STEP)
        assert np.array_equal(out.frames, tr.frames)
        assert np.array_equal(out.positions, tr.positions)

    def test_linear_interpolation_between_samples(self):
        times = np.array([0.0, 1.0])
        pos = np.array([[0.0, 0.0], [10.0, 0.0]])
        tr = cc.Trajectory("1", np.array([0, 1]), times, pos)
        out = cc.resample_trajectory(tr, 0.25)
        assert list(out.frames) == [0, 1, 2, 3, 4]
        assert np.allclose(out.positions[:, 0], [0.0, 2.5, 5.0, 7.5, 10.0])

    def test_off_grid_ends_trimmed(self):
        times = np.array([0.3, 1.7])
        pos = np.array([[0.0, 0.0], [1.4, 0.0]])
        tr = cc.Trajectory("1", np.array([0, 1]), times, pos)
        out = cc.resample_trajectory(tr, 0.5)
        assert list(out.frames) == [1, 2, 3]
        assert np.allclose(out.positions[:, 0], [0.2, 0.7, 1.2])


class TestScene:
    def test_parse_and_contacts(self):
        scene = parse_scene("# walls\nseg 0 0 4 0\npoly 10 0 12 0 12 2 10 2\n")
        assert len(scene.segments) == 1 and len(scene.polygons) == 1
        points, dists = scene.obstacle_contacts(np.array([[2.0, 1.0], [13.0, 1.0]]))
        assert points.shape == (2, 2, 2) and dists.shape == (2, 2)
        assert np.allclose(points[0, 0], [2.0, 0.0]) and abs(dists[0, 0] - 1.0) < 1e-12
        assert np.allclose(points[1, 1], [12.0, 1.0]) and abs(dists[1, 1] - 1.0) < 1e-12

    def test_inside_polygon_negative_distance(self):
        scene = parse_scene("poly 0 0 2 0 2 2 0 2")
        _, dists = scene.obstacle_contacts(np.array([[1.0, 0.3]]))
        assert abs(dists[0, 0] + 0.3) < 1e-12

    def test_bad_line_reports_number(self):
        with pytest.raises(DataError, match="line 2"):
            parse_scene("seg 0 0 1 1\nseg 0 0 oops 1\n")

    @pytest.mark.parametrize("ring", [
        "0 0 4 0 1 1 0 4",              # dented
        "0 0 2 6 4 0 -1 4 5 4",         # star: turns one way, winds twice
        "0 0 2 0 4 0",                  # zero area
        "1 1 1 1 1 1",
    ])
    def test_degenerate_polygon_rejected(self, ring):
        with pytest.raises(DataError, match="line 2"):
            parse_scene(f"seg 0 0 1 1\npoly {ring}\n")
        with pytest.raises(DataError):
            cc.SceneGeometry(polygons=(np.array(ring.split(), float).reshape(-1, 2),))

    @pytest.mark.parametrize("ring", ["0 0 0 2 2 2 2 0",      # clockwise
                                      "0 0 0.1 0 0.3 0 0.3 0.3 0 0.3",
                                      "0 0 2 0 2 0 2 2 0 2"])  # repeated vertex
    def test_convex_polygon_accepted(self, ring):
        assert len(parse_scene(f"poly {ring}").polygons) == 1

    def test_empty_scene(self):
        scene = cc.SceneGeometry.empty()
        assert scene.is_empty
        points, dists = scene.obstacle_contacts(np.zeros((3, 2)))
        assert points.shape == (0, 3, 2) and dists.shape == (0, 3)


class TestCanonicalCsv:
    def test_round_trip(self):
        tracks = [line_track("2", 0, 4, (0, 0), (1, 0)),
                  line_track("10", 2, 3, (5, 5), (0, 1))]
        data = cc.write_canonical_csv(tracks)
        assert data.startswith(b"frame,agent_id,x,y\n")
        back = cc.read_canonical_csv(data, STEP)
        assert [tr.agent_id for tr in back] == ["2", "10"]
        for a, b in zip(tracks, back):
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.frames, b.frames)

    def test_natural_agent_order(self):
        assert sorted(["10", "9", "a2", "a10"], key=natural_key) \
            == ["9", "10", "a2", "a10"]

    def test_duplicate_frame_rejected(self):
        data = b"frame,agent_id,x,y\n0,1,0.0,0.0\n0,1,1.0,1.0\n"
        with pytest.raises(DataError):
            cc.read_canonical_csv(data, STEP)

    def test_header_required(self):
        with pytest.raises(DataError):
            cc.read_canonical_csv(b"0,1,0.0,0.0\n", STEP)


class TestDatabase:
    def test_sample_layout(self, cfg):
        tr = line_track("7", 0, 5, (0, 0), (1, 0))
        db = cc.build_database([tr], cfg)
        # steps 3, 4, 5 for a five-point track
        assert len(db) == 3
        assert db.steps.tolist() == [3, 4, 5]
        assert db.agent_ids == ("7",) and db.agent_codes.tolist() == [0, 0, 0]
        assert np.array_equal(db.positions, tr.positions[2:])
        assert np.array_equal(db.destinations, np.repeat(tr.positions[-1:], 3, axis=0))
        assert np.array_equal(db.directions[-1], cc.average_direction(tr, 5))

    def test_directions_bit_equal_average_direction(self, cfg):
        rng = np.random.default_rng(5)
        tracks = [random_track(rng, f"r{i}", first_frame=0, n=n)
                  for i, n in enumerate((60, 1, 2, 3, 2000, 4, 17, 301))]
        db = cc.build_database(tracks, cfg)
        expected = [cc.average_direction(tr, step)
                    for tr in tracks for step in range(3, len(tr) + 1)]
        assert len(db) == len(expected)
        assert db.directions.tobytes() == np.array(expected).tobytes()

    def test_long_track_builds_in_linear_time(self, cfg):
        # every direction comes from one prefix sum over the track, so a
        # 40,000-point track costs one pass, not one pass per point
        tr = random_track(np.random.default_rng(9), "w", first_frame=0, n=40_000)
        t0 = time.perf_counter()
        db = cc.build_database([tr], cfg)
        assert time.perf_counter() - t0 < 1.0
        assert db.directions[-1].tobytes() == cc.average_direction(tr, 40_000).tobytes()

    def test_agent_codes_follow_natural_order(self, cfg):
        tracks = [line_track(aid, 0, 4, (0, 0), (1, 0))
                  for aid in ("b10", "b9", "a", "b9x")]
        db = cc.build_database(tracks, cfg)
        assert db.agent_ids == ("a", "b9", "b9x", "b10")
        assert db.agent_codes.tolist() == [3, 3, 1, 1, 0, 0, 2, 2]
        assert db.codes_of(["b9", "nobody", "a"]).tolist() == [1, 0]

    def test_gap_rejected(self, cfg):
        tr = cc.Trajectory.from_frame_grid(
            "1", np.array([0, 1, 5]), np.zeros((3, 2)), STEP)
        with pytest.raises(DataError):
            cc.build_database([tr], cfg)

    def test_history_for_endtime_holds_only_the_past(self, cfg):
        tr = line_track("1", 0, 80, (0, 0), (1, 0))
        # the known window of endtime 50 starts at frame 21
        (part,) = history_for_endtime([tr], 50, cfg)
        assert part.frames[0] == 0 and part.frames[-1] == 20
        assert history_for_endtime([tr], 31, cfg) == []


def test_database_arrays_are_read_only(cfg):
    tr = line_track("7", 0, 5, (0, 0), (1, 0))
    db = cc.build_database([tr], cfg)
    for arr in (db.positions, db.directions, db.destinations, db.steps,
                db.agent_codes):
        with pytest.raises(ValueError):
            arr[0] = 9


class TestNonFiniteInput:
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_csv_coordinate_rejected_with_line(self, text):
        data = f"frame,agent_id,x,y\n0,1,0.0,0.0\n1,1,{text},0.0\n".encode()
        with pytest.raises(DataError, match="line 3"):
            cc.read_canonical_csv(data, STEP)

    def test_csv_frame_beyond_int64_rejected(self):
        data = b"frame,agent_id,x,y\n0,1,0.0,0.0\n99999999999999999999,1,1.0,0.0\n"
        with pytest.raises(DataError, match="frame 99999999999999999999 is out of range"):
            cc.read_canonical_csv(data, STEP)

    def test_csv_frames_too_large_for_distinct_times(self):
        # near 2**63 neighbouring frames round to one time, and a velocity
        # would divide by zero
        top = np.iinfo(np.int64).max
        data = f"frame,agent_id,x,y\n{top - 1},1,0.0,0.0\n{top},1,1.0,0.0\n"
        with pytest.raises(DataError, match="times of agent '1'"):
            cc.read_canonical_csv(data.encode(), STEP)

    def test_scene_number_rejected_with_line(self):
        with pytest.raises(DataError, match="line 2"):
            parse_scene("seg 0 0 1 1\npoly 0 0 nan 0 1 1\n")

    @pytest.mark.parametrize("name", ["person_radius", "step_duration",
                                      "personal_distance", "direction_weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_config_rejects(self, name, value):
        with pytest.raises(ValueError):
            cc.Config(**{name: value})


@pytest.mark.parametrize("steps", [0, 1])
def test_known_window_needs_two_steps(steps):
    with pytest.raises(ValueError, match="known_time_steps"):
        cc.Config(known_time_steps=steps)
    assert cc.Config(known_time_steps=2).known_time_steps == 2
