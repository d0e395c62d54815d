"""Core types: trajectories, resampling, scene geometry, canonical CSV,
and the sample database."""

from __future__ import annotations

import ast
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crowdcast as cc
from crowdcast import core
from crowdcast.core import (
    SCALE,
    DataError,
    ObstacleLayout,
    TooFewPointsError,
    _directions,
    natural_key,
    near_pairs,
    parse_scene,
)
from crowdcast.pipeline import known_window_tracks

import test_ingest
from conftest import STEP, line_track, random_track
from window_oracle import (count_before, covering, first_gap, frame_span, ids_before,
                           known_window_spans, stored_lengths, stored_rows)

CONFIG_FLOATS = ["person_radius", "step_duration", "neighborhood_range",
                 "person_mass", "intimate_distance", "personal_distance",
                 "direction_weight"]


class TestTrajectory:
    def test_frames_must_increase(self):
        with pytest.raises(DataError):
            cc.Trajectory("1", np.array([3, 2, 5]), np.arange(3.0),
                          np.zeros((3, 2)))

    def test_arrays_read_only(self):
        tr = line_track("1", 0, 4, (0, 0), (1, 0))
        with pytest.raises(ValueError):
            tr.positions[0, 0] = 9.0

    @pytest.mark.parametrize("start,stop", [(0, 0), (5, 5), (4, 5), (2, 7), (0, 9)])
    def test_span_is_a_read_only_view_of_checked_rows(self, start, stop):
        # empty, one-row, interior and full ranges of a nine-point track
        tr = random_track(np.random.default_rng(6), "7", first_frame=3, n=9)
        rows = slice(start, stop)
        for agent_id in (None, "g"):
            got = tr.span(start, stop, agent_id)
            want = cc.Trajectory(agent_id or "7", tr.frames[rows].copy(),
                                 tr.times[rows].copy(), tr.positions[rows].copy())
            assert_same_track(got, want)
            for name in ("frames", "times", "positions"):
                arr, source = getattr(got, name), getattr(tr, name)
                assert not arr.flags.writeable
                assert np.shares_memory(arr, source) == (stop > start)
                with pytest.raises(ValueError):
                    arr.setflags(write=True)
            if stop > start:
                assert got.directions.tobytes() == want.directions.tobytes()

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

    def test_directions_read_only_and_kept(self):
        tr = random_track(np.random.default_rng(4), "1", n=12)
        rows = tr.directions
        assert tr.directions is rows
        with pytest.raises(ValueError):
            rows[3, 0] = 9.0

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 301, 2000])
    def test_directions_prefix_of_every_prefix(self, n):
        # row i depends only on points 0 .. i, so the directions of any
        # prefix of a track are that prefix of the track's directions
        tr = random_track(np.random.default_rng(n), "1", n=n)
        for m in range(1, n + 1):
            assert (tr.directions[:m].tobytes()
                    == _directions(tr.positions[:m]).tobytes())

    def test_directions_prefix_of_a_long_track(self):
        tr = random_track(np.random.default_rng(8), "1", n=40_000)
        rng = np.random.default_rng(9)
        lengths = set(range(1, 65)) | {2 ** k + d for k in range(6, 16)
                                       for d in (-1, 0, 1)}
        lengths |= {39_999, 40_000} | set(rng.integers(1, 40_001, size=100).tolist())
        for m in sorted(lengths):
            assert (tr.directions[:m].tobytes()
                    == _directions(tr.positions[:m]).tobytes())


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


class TestNearPairs:
    """``near_pairs`` against a brute-force pass over every pair: it must
    yield each pair within ``bound`` in |dx| and |dy| (every pair with a
    non-finite row), once, as i < j, in blocks of at most ``block``, and no
    finite pair beyond two cells."""

    @staticmethod
    def check(points, bound, block):
        points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        blocks = list(near_pairs(points, bound, block))
        assert all(0 < len(i) == len(j) <= block for i, j in blocks)
        got = np.concatenate([np.column_stack(b) for b in blocks]) if blocks \
            else np.empty((0, 2), dtype=np.intp)
        assert np.all(got[:, 0] < got[:, 1])
        found = set(map(tuple, got.tolist()))
        assert len(found) == len(got)
        n = len(points)
        i, j = np.triu_indices(n, 1)
        bad = ~np.isfinite(points).all(axis=1)
        gap = np.abs(points[i] - points[j]).max(axis=1)
        need = bad[i] | bad[j] | (gap <= bound)
        assert set(zip(i[need].tolist(), j[need].tolist())) <= found
        far = ~(bad[i] | bad[j]) & (gap > 2.000001 * bound
                                    + 1e-15 * np.abs(points[~bad]).max(initial=0.0))
        assert not found & set(zip(i[far].tolist(), j[far].tolist()))
        return found

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_random_points(self, block):
        rng = np.random.default_rng(block)
        for _ in range(20):
            n = int(rng.integers(0, 80))
            scale = 10.0 ** rng.uniform(-2, 3)
            self.check(rng.uniform(-scale, scale, (n, 2)), 10.0 ** rng.uniform(-1, 1),
                       block)

    @pytest.mark.parametrize("bound", [1e-9, 0.1, 1.2, 7.0])
    @pytest.mark.parametrize("origin", [0.0, -3.7, 1e6, -9e8])
    def test_lattice_at_the_bound(self, bound, origin):
        # neighbours bound apart, up to the rounding of the coordinates
        k = np.arange(-4, 5) * bound
        self.check(origin + np.stack(np.meshgrid(k, k), axis=-1).reshape(-1, 2),
                   bound, 7)

    @pytest.mark.parametrize("bound", [1e-9, 1e-6, 1.0, 1e3, 1e9])
    def test_coordinates_at_the_scale(self, bound):
        rng = np.random.default_rng(int(-np.log10(bound)) + 10)
        for center in (SCALE, -SCALE, 9e8, -9e8, 1e8):
            points = center + rng.integers(-3, 4, (40, 2)) * bound \
                + rng.normal(0.0, bound * 0.1, (40, 2))
            self.check(np.clip(points, -SCALE, SCALE), bound, 100)

    def test_non_finite_rows_pair_with_every_row(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(-20.0, 20.0, (30, 2))
        points[[0, 7, 8]] = np.nan
        points[12, 1] = np.nan
        points[20, 0] = np.inf
        found = self.check(points, 1.2, 7)
        for r in (0, 7, 8, 12, 20):
            assert sum(r in pair for pair in found) == 29

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_tiny_inputs(self, block):
        assert self.check(np.empty((0, 2)), 1.0, block) == set()
        assert self.check([[3.0, 4.0]], 1.0, block) == set()
        assert self.check([[np.nan, 0.0]], 1.0, block) == set()
        assert self.check([[0.0, 0.0], [1.0, -1.0]], 1.0, block) == {(0, 1)}
        assert self.check([[0.0, 0.0], [5.0, 0.0]], 1.0, block) == set()
        assert self.check([[0.0, 0.0], [np.nan, np.nan]], 1.0, block) == {(0, 1)}

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_every_point_in_one_cell(self, block):
        points = np.random.default_rng(block).uniform(0.0, 0.5, (120, 2))
        assert len(self.check(points, 1.0, block)) == 120 * 119 // 2


class TestNearPairsWithinTwoCells:
    """Points whose finite rows span at most two cells on each axis, where
    the cell list pairs every row with every other, and spans just beyond.
    Either way ``near_pairs``' pairs are exactly the brute-force cell
    relation: a non-finite row, or cells at most one apart on both axes,
    with the cells and the side ``near_pairs`` defines."""

    @staticmethod
    def cell_pairs(points, bound):
        bad = ~np.isfinite(points).all(axis=1)
        side = bound * (1.0 + 1e-9) + 4.5e-16 * float(np.abs(points[~bad]).max(initial=0.0))
        cells = np.floor(np.where(bad[:, None], 0.0, points) / side)
        i, j = np.triu_indices(len(points), 1)
        near = bad[i] | bad[j] | (np.abs(cells[i] - cells[j]) <= 1.0).all(axis=1)
        return set(zip(i[near].tolist(), j[near].tolist())), side

    def check(self, points, bound, block):
        points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        found = TestNearPairs.check(points, bound, block)
        assert found == self.cell_pairs(points, bound)[0]
        return found

    @pytest.mark.parametrize("scale", [1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0 - 1e-12, 2.0,
                                       2.0 + 1e-12])
    @pytest.mark.parametrize("origin", [0.0, -0.5, 7.3, 1e8])
    @pytest.mark.parametrize("axes", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
                             ids=["x", "y", "both"])
    def test_extents_at_one_and_two_sides(self, scale, origin, axes):
        bound = 1.3
        _, side = self.cell_pairs(np.array([[origin, origin]]), bound)
        for start in (origin, origin + 0.5 * side):
            base = np.array([start, -start])
            far = base + scale * side * np.array(axes)
            mid = base + np.random.default_rng(5).uniform(0.0, 1.0, (6, 2)) \
                * (far - base)
            self.check(np.vstack([base, far, mid]), bound, 7)

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_non_finite_rows(self, block):
        rng = np.random.default_rng(block)
        points = rng.uniform(0.0, 0.9, (12, 2))
        points[[2, 9]] = np.nan
        points[4, 0] = -np.inf
        assert len(self.check(points, 1.0, block)) == 12 * 11 // 2
        assert len(self.check(np.full((5, 2), np.nan), 1.0, block)) == 10

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_tiny_inputs(self, block):
        for n in (0, 1, 2):
            assert len(self.check(np.zeros((n, 2)), 1.0, block)) == n * (n - 1) // 2

    @pytest.mark.parametrize("n, block", [(40, 7), (40, 39), (40, 780), (300, 1000),
                                          (20, 1)])
    def test_more_pairs_than_one_block(self, n, block):
        points = np.random.default_rng(n).uniform(-0.5, 0.5, (n, 2))
        blocks = list(near_pairs(points, 1.0, block))
        assert len(blocks) >= n * (n - 1) // 2 // block
        assert len(self.check(points, 1.0, block)) == n * (n - 1) // 2

    @pytest.mark.parametrize("seed", range(6))
    def test_random_spans(self, seed):
        # spans from well inside one cell to a few cells, so the cell list
        # meets both every pair and pairs it must leave out
        rng = np.random.default_rng(seed)
        for _ in range(30):
            n = int(rng.integers(0, 30))
            points = rng.uniform(-1.0, 1.0, (n, 2)) * 10.0 ** rng.uniform(-1, 1, 2)
            self.check(points, 1.0, int(rng.integers(1, 50)))


class TestScene:
    def test_parse_and_contacts(self):
        scene = parse_scene("# walls\nseg 0 0 4 0\npoly 10 0 12 0 12 2 10 2\n")
        assert len(scene.segments) == 1 and len(scene.polygons) == 1
        pts = np.array([[2.0, 1.0], [13.0, 1.0]])
        away, dists = ObstacleLayout(scene, 2).contacts(pts)
        assert away.shape == (2, 2, 2) and dists.shape == (2, 2)
        # the offsets from the nearest points (2, 0) and (12, 1)
        assert np.allclose(pts[0] - away[0, 0], [2.0, 0.0]) and abs(dists[0, 0] - 1.0) < 1e-12
        assert np.allclose(pts[1] - away[1, 1], [12.0, 1.0]) and abs(dists[1, 1] - 1.0) < 1e-12

    def test_inside_polygon_negative_distance(self):
        scene = parse_scene("poly 0 0 2 0 2 2 0 2")
        _, dists = ObstacleLayout(scene, 1).contacts(np.array([[1.0, 0.3]]))
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
        away, dists = ObstacleLayout(scene, 3).contacts(np.zeros((3, 2)))
        assert away.shape == (0, 3, 2) and dists.shape == (0, 3)


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


class TestCsvArrayPass:
    """``read_canonical_csv`` reads the body in one pass of numpy's C text
    reader and walks its lines only when that pass refuses it; the pass
    accepts only what the line walk accepts, with the same bits, and every
    message comes from the line walk."""

    # the float tokens of the raw-annotation battery, plus what Python's
    # int accepts around a frame: spaces, a plus sign, a negative zero
    TOKENS = test_ingest.TestParseArrayPass.TOKENS + [" 7", "7 ", "+7", "-0"]
    # ids are kept verbatim: spaces, comment and quote characters, NUL; a
    # quote does not hide a comma
    IDS = ["a b", " a", "a ", " ", "#", "a#b", "# a", '"a"', "'a'", '"a,', "a\x00",
           "\x00", "\x00a", ""]

    @staticmethod
    def outcome(text):
        """The table's bits and ids, or the message of the DataError."""
        try:
            table = cc.read_canonical_csv(text, STEP)
        except DataError as exc:
            return str(exc)
        return ([tr.agent_id for tr in table], table.lengths.tolist(),
                [(a.dtype.str, a.shape, a.tobytes())
                 for a in (table.frames, table.times, table.positions)])

    def walked(self, text, monkeypatch):
        """The outcome of the line walk alone."""
        with monkeypatch.context() as m:
            m.setattr(core, "_csv_table", lambda body: None)
            return self.outcome(text)

    @pytest.mark.parametrize("column", [0, 2, 3])
    def test_tokens_as_the_line_walk(self, column, monkeypatch):
        for tok in self.TOKENS:
            row = ["3", "a", "2.5", "-1.5"]
            row[column] = tok
            text = "frame,agent_id,x,y\n100,a,1.0,2.0\n" + ",".join(row) + "\n"
            assert self.outcome(text) == self.walked(text, monkeypatch), tok

    def test_ids_kept_verbatim(self, monkeypatch):
        for aid in self.IDS:
            text = f"frame,agent_id,x,y\n0,{aid},1.0,2.0\n1,b,0,0\n1,{aid},1.5,2.5\n"
            got = self.outcome(text)
            assert got == self.walked(text, monkeypatch), aid
            if isinstance(got, list):
                assert aid in got[0]

    def test_plain_file_takes_the_array_pass(self, monkeypatch):
        data = cc.write_canonical_csv(
            [line_track(f"p{k}", k, 5, (k, -k), (0.5, 0.25)) for k in range(12)])
        want = self.walked(data, monkeypatch)
        calls = []
        array_pass = core._csv_table

        def spy(body):
            calls.append(len(body))
            return array_pass(body)

        def no_walk(body):
            raise AssertionError("line walk taken")

        monkeypatch.setattr(core, "_csv_table", spy)
        monkeypatch.setattr(core, "_csv_lines", no_walk)
        assert self.outcome(data) == want and calls == [60]
        table = cc.read_canonical_csv(data, STEP)
        assert all(a.flags.c_contiguous and not a.flags.writeable
                   for a in (table.frames, table.times, table.positions))

    @pytest.mark.parametrize("body", ["", "\n", "\n\n\r\n"])
    def test_empty_body_skips_the_array_pass(self, body, monkeypatch):
        def no_array_pass(body):
            raise AssertionError("array pass taken")

        monkeypatch.setattr(core, "_csv_table", no_array_pass)
        table = cc.read_canonical_csv("frame,agent_id,x,y\n" + body, STEP)
        assert len(table) == 0 and table.positions.shape == (0, 2)

    def test_blank_lines_of_spaces_are_walked(self):
        table = cc.read_canonical_csv("frame,agent_id,x,y\n  \n0,a,1,2\n\t\n", STEP)
        assert table.frames.tolist() == [0] and table.positions.tolist() == [[1.0, 2.0]]

    @pytest.mark.parametrize("rows, message", [
        # a line the walk rejects is named before any agent's fault
        (["0,a,0,0", "0,a,1,1", "1,b,0,0", "-3,b,0,0"], "^CSV line 5: negative frame -3$"),
        (["0,a,0,0", "0,a,1,1", "1,b,0,0", "2,b,0,1e10"], "^CSV line 5: coordinates"),
        (["0,a,0,0", "0,a,1,1", "1,b,0,0", "2,b,0,0,0"],
         "^CSV line 5: expected 4 fields, got 5$"),
        # else the first faulty agent in natural order
        (["0,b,0,0", "1,b,0,0", "99999999999999999999,b,0,0", "5,a,0,0", "5,a,1,1"],
         "^agent 'a' has duplicate frames$"),
        (["0,a,0,0", "1,a,0,0", "99999999999999999999,a,0,0", "5,b,0,0", "5,b,1,1"],
         "^agent 'a': frame 99999999999999999999 is out of range$"),
        (["0,b10,0,0", "0,b10,1,1", "3,b9,0,0", "3,b9,1,1"], "^agent 'b9' has duplicate"),
        # ids of one natural key keep their order of first appearance
        (["0,a1,0,0", "0,a1,1,1", "3,a01,0,0", "3,a01,1,1"], "^agent 'a1' has duplicate"),
        (["3,a01,0,0", "3,a01,1,1", "0,a1,0,0", "0,a1,1,1"], "^agent 'a01' has duplicate"),
    ])
    def test_first_fault_named(self, rows, message, monkeypatch):
        lines = [f"{k},c,0,0" for k in range(40)] + rows
        text = "frame,agent_id,x,y\n" + "\n".join(lines) + "\n"
        message = message.replace("line 5", f"line {len(lines) + 1}")
        with pytest.raises(DataError, match=message):
            cc.read_canonical_csv(text, STEP)
        assert self.outcome(text) == self.walked(text, monkeypatch)

    def test_tied_ids_take_either_pass_alike(self, monkeypatch):
        text = "frame,agent_id,x,y\n0,a01,0,0\n0,a1,1,1\n1,a01,2,2\n"
        got = self.outcome(text)
        assert got == self.walked(text, monkeypatch)
        assert got[0] == ["a01", "a1"] and got[1] == [2, 1]


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

    def test_sample_steps_and_norms(self, cfg):
        tracks = [line_track("b", 0, 5, (0, 0), (1, 0)),
                  line_track("a", 0, 2, (0, 0), (1, 0)),
                  line_track("a", 3, 4, (1, 1), (0, 0)),
                  line_track("c", 0, 3, (2, 0), (0, -1))]
        db = cc.build_database(tracks, cfg)
        # the two-point track holds no sample; each other track's samples
        # are contiguous, in ascending step
        assert db.steps.tolist() == [3, 4, 5, 3, 4, 3]
        assert db.agent_codes.tolist() == [1, 1, 1, 0, 0, 2]
        assert db.direction_norms.tobytes() == np.sqrt(
            np.vecdot(db.directions, db.directions)).tobytes()
        # the stationary track's directions are exactly zero
        assert db.direction_norms.tolist()[3:5] == [0.0, 0.0]

    def test_gap_rejected(self, cfg):
        tr = cc.Trajectory.from_frame_grid(
            "1", np.array([0, 1, 5]), np.zeros((3, 2)), STEP)
        with pytest.raises(DataError):
            cc.build_database([tr], cfg)

    def test_history_for_endtime_holds_only_the_past(self, cfg):
        tr = line_track("1", 0, 80, (0, 0), (1, 0))
        # the known window of endtime 50 starts at frame 21: frames 0 .. 20
        # are stored, samples at frames 2 .. 20
        db = cc.build_database([tr], cfg, endtime=50)
        assert db.steps.tolist() == list(range(3, 22))
        assert np.array_equal(db.positions, tr.positions[2:21])
        assert np.array_equal(db.destinations,
                              np.repeat(tr.positions[20:21], 19, axis=0))
        assert len(cc.build_database([tr], cfg, endtime=31)) == 0
        assert cc.build_database([tr], cfg, endtime=32).steps.tolist() == [3]

    def test_window_gap_rules(self):
        cfg = cc.Config(known_time_steps=2)
        # endtime e stores the frames up to e - 2: a gap after them is legal,
        # and so is one inside a two-point clip, which stores nothing
        for frames, fine, gapped in (([0, 1, 2, 3, 4, 10, 11], 11, 12),
                                     ([0, 5, 6, 7], 7, 8)):
            tracks = [cc.Trajectory.from_frame_grid(
                "g", frames, np.zeros((len(frames), 2)), STEP)]
            assert len(cc.build_database(tracks, cfg, endtime=fine)) \
                == len(clip_then_build(tracks, cfg, fine))
            with pytest.raises(DataError, match="not resampled"):
                cc.build_database(tracks, cfg, endtime=gapped)
            with pytest.raises(DataError, match="not resampled"):
                clip_then_build(tracks, cfg, gapped)
            with pytest.raises(DataError, match="not resampled"):
                cc.build_database(tracks, cfg)
        # a track under three points stores nothing, so its gap goes
        # unchecked with or without an endtime
        tracks = [cc.Trajectory.from_frame_grid("s", [0, 5], np.zeros((2, 2)), STEP)]
        for endtime in (None, 5, 7, 8, 100):
            assert len(cc.build_database(tracks, cfg, endtime=endtime)) == 0


def clip_then_build(tracks: list, cfg, endtime: int):
    """Reference for ``build_database(tracks, cfg, endtime=endtime)``: every
    track clipped by a frame mask to the frames before the known window and
    copied, clips under three points dropped, the clips indexed whole. Each
    clip computes its own directions, apart from the full track's."""
    cutoff = endtime - cfg.known_time_steps
    clips = []
    for tr in tracks:
        keep = tr.frames <= cutoff
        clip = cc.Trajectory(tr.agent_id, tr.frames[keep], tr.times[keep],
                             tr.positions[keep])
        if len(clip) >= 3:
            clips.append(clip)
    return cc.build_database(clips, cfg)


DATABASE_ARRAYS = ("agent_codes", "steps", "positions", "directions", "destinations",
                   "direction_norms")


def assert_same_database(got, want):
    assert got.agent_ids == want.agent_ids and len(got) == len(want)
    for name in DATABASE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


LATTICE_MOVES = st.sampled_from([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (0, 0)])


@st.composite
def window_tracks(draw):
    """0-6 tracks of 1-20 points on a 0.5 m lattice, first frames 0-8, ids
    from a pool of three. One track in three skips 1-4 frames once, so a
    window's clip can end before, at or after its gap."""
    tracks = []
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.integers(1, 20))
        frames = draw(st.integers(0, 8)) + np.arange(n)
        if n >= 2 and draw(st.integers(0, 2)) == 0:
            frames[draw(st.integers(1, n - 1)):] += draw(st.integers(1, 4))
        steps = draw(st.lists(LATTICE_MOVES, min_size=n - 1, max_size=n - 1))
        start = draw(st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
        points = np.cumsum([start] + steps, axis=0) * 0.5
        tracks.append(cc.Trajectory.from_frame_grid(
            draw(st.sampled_from(("a", "b", "10"))), frames, points, STEP))
    return tracks


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tracks=window_tracks(), known=st.integers(2, 5))
# clips of 0-4 points, then a gap after frame 3 that a clip reaches at
# endtime 5 + known
@example(tracks=[cc.Trajectory.from_frame_grid(
             "a", [0, 1, 2, 3, 6, 7], np.arange(12.0).reshape(6, 2), STEP)],
         known=2)
def test_window_database_equals_clip_then_build(tracks, known):
    cfg = cc.Config(known_time_steps=known)
    last = max((int(tr.frames[-1]) for tr in tracks), default=0)
    for endtime in range(-2, last + known + 3):
        try:
            want = clip_then_build(tracks, cfg, endtime)
        except DataError as err:
            with pytest.raises(DataError) as got:
                cc.build_database(tracks, cfg, endtime=endtime)
            assert str(got.value) == str(err)
            continue
        assert_same_database(cc.build_database(tracks, cfg, endtime=endtime), want)


def empty_track(agent_id: str):
    return cc.Trajectory.from_frame_grid(agent_id, [], np.empty((0, 2)), STEP)


def test_window_database_with_empty_tracks():
    # empty tracks first, between and last store nothing and move no other
    # track's rows
    cfg = cc.Config(known_time_steps=2)
    tracks = [empty_track("e0"), line_track("b", 0, 8, (0, 0), (1, 0)),
              empty_track("e1"), empty_track("e2"),
              line_track("c", 3, 6, (0, 1), (0, 1)), empty_track("e3")]
    for endtime in range(-2, 12):
        assert_same_database(cc.build_database(tracks, cfg, endtime=endtime),
                             clip_then_build(tracks, cfg, endtime))


@pytest.mark.parametrize("precomputed", [False, True])
def test_window_database_ignores_the_window_and_after(precomputed):
    # moving or appending points at or after the known window's first frame
    # leaves the database of that window unchanged, whether or not the
    # changed tracks' directions were computed in full beforehand
    cfg = cc.Config(known_time_steps=4)
    rng = np.random.default_rng(17)
    for _ in range(60):
        tracks = [random_track(rng, f"r{i}") for i in range(int(rng.integers(1, 6)))]
        endtime = int(rng.integers(0, 60))
        first = endtime - cfg.known_time_steps + 1
        changed = []
        for tr in tracks:
            pos = tr.positions.copy()
            moved = (tr.frames >= first) & (rng.random(len(tr)) < 0.5)
            pos[moved] += rng.normal(size=(int(moved.sum()), 2))
            extra = int(rng.integers(0, 4))
            # appended from the window on, past a gap when the track ends earlier
            after = max(int(tr.frames[-1]) + 1, first)
            frames = np.concatenate([tr.frames, after + np.arange(extra)])
            pos = np.vstack([pos, rng.normal(size=(extra, 2))])
            changed.append(cc.Trajectory.from_frame_grid(tr.agent_id, frames, pos,
                                                         STEP))
        if precomputed:
            for tr in tracks + changed:
                assert len(tr.directions) == len(tr)
        assert_same_database(cc.build_database(changed, cfg, endtime=endtime),
                             cc.build_database(tracks, cfg, endtime=endtime))


RECORDING_IDS = st.sampled_from(("a", "a#2", "a#3", "b", "10", "10#2"))


def recording_track(agent_id: str, frames, rng_points=None) -> cc.Trajectory:
    """A track on ``frames`` with times 0, STEP, 2 STEP, ... (frames near
    ``core._MAX_FRAME`` have no grid time of their own) and lattice points."""
    frames = np.asarray(frames, dtype=np.int64)
    points = (np.zeros((len(frames), 2)) if rng_points is None
              else np.cumsum(rng_points, axis=0) * 0.5)
    return cc.Trajectory(agent_id, frames, np.arange(len(frames)) * STEP, points)


@st.composite
def recordings(draw):
    """0-8 tracks of 0-20 points (empty ones, and ones of 1-2 points) with
    ids from a pool of split parts (``a``, ``a#2``, ...) that repeats, so
    several tracks hold one id. A track skips 1-4 frames up to twice, so
    each window finds gaps before, at and after it. The first frames lie
    near 0, or in half the runs within 60 of ``core._MAX_FRAME``."""
    origin = core._MAX_FRAME - 60 if draw(st.booleans()) else 0
    tracks = []
    for _ in range(draw(st.integers(0, 8))):
        n = draw(st.integers(0, 20))
        frames = draw(st.integers(0, 30)) + np.arange(n)
        for _ in range(draw(st.integers(0, 2)) if n >= 2 else 0):
            frames[draw(st.integers(1, n - 1)):] += draw(st.integers(1, 4))
        steps = draw(st.lists(LATTICE_MOVES, min_size=n, max_size=n))
        tracks.append(recording_track(draw(RECORDING_IDS), origin + frames,
                                      np.reshape(steps, (n, 2))))
    return tracks


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tracks=recordings(), known=st.integers(2, 5), steps=st.integers(1, 6))
# a track spanning the whole recording among short ones, split and repeated
# ids, an empty track, tracks of one and two points and a gap at frame 20
@example(tracks=[recording_track("a", np.arange(0, 60)), recording_track("a#2", [61, 62]),
                 recording_track("b", []), recording_track("10", [5]),
                 recording_track("a", np.r_[10:20, 21:30]), recording_track("b", [3, 4])],
         known=3, steps=4)
# the same near the largest frame
@example(tracks=[recording_track("a", core._MAX_FRAME - np.arange(59, -1, -1)),
                 recording_track("a#2", core._MAX_FRAME - np.array([40, 39, 37, 36])),
                 recording_track("b", [])], known=2, steps=3)
def test_window_reads_equal_one_scan_of_the_table(tracks, known, steps):
    """At every endtime, the run's summaries give what one scan of its
    table gives (``window_oracle``): the head count, ``covering``'s tracks
    and rows, each track's stored length, the stored samples, ``len(db)``
    and the first-gap ``DataError``."""
    cfg = cc.Config(known_time_steps=known)
    table = cc.Tracks(tracks)
    every = np.arange(len(table))
    frames = table.frames.tolist() or [0]
    for limit in (None, *range(min(frames) - 2, max(frames) + 4)):
        if limit is not None:
            assert table.ids_before(limit) == ids_before(table, limit)
            got, want = table.covering(limit, steps), covering(table, limit, steps)
            assert [a.tolist() for a in got] == [a.tolist() for a in want]
            assert (table.rows_at(every, limit) - table.starts).tolist() == \
                count_before(table, limit).tolist()
        endtime = None if limit is None else limit + known - 1
        gap = first_gap(table, limit)
        if gap is not None:
            with pytest.raises(DataError) as err:
                cc.build_database(table, cfg, endtime=endtime)
            assert str(err.value) == \
                f"agent {table[gap].agent_id!r} is not resampled to the step grid"
            continue
        db = cc.build_database(table, cfg, endtime=endtime)
        rows = stored_rows(table, limit)
        assert len(db) == len(rows)
        assert db.lengths.tolist() == stored_lengths(table, limit).tolist()
        if len(db):
            assert np.sort(db.order).tolist() == rows.tolist()


def assert_same_track(got, want):
    assert got.agent_id == want.agent_id
    for name in ("frames", "times", "positions"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tracks=window_tracks(), steps=st.integers(1, 6))
def test_frame_span_keeps_exactly_the_covering_tracks(tracks, steps):
    # None unless the track holds every frame of the span; otherwise the
    # rows of those frames, as the checked constructor builds them
    for tr in tracks:
        for first in range(-2, int(tr.frames[-1]) + 3):
            got = frame_span(tr, first, steps)
            keep = (tr.frames >= first) & (tr.frames < first + steps)
            if keep.sum() < steps:
                assert got is None
            else:
                assert_same_track(got, cc.Trajectory(
                    tr.agent_id, tr.frames[keep], tr.times[keep], tr.positions[keep]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tracks=window_tracks(), known=st.integers(2, 5))
@example(tracks=[empty_track("a"), line_track("b", 0, 6, (0, 0), (1, 0)),
                 empty_track("c")], known=2)
@example(tracks=[line_track("a", 0, 4, (0, 0), (1, 0)),
                 line_track("a", 2, 5, (1, 1), (0, 1)),
                 line_track("10", 1, 3, (2, 0), (1, 1))], known=3)
def test_known_window_tracks_equal_the_per_track_cut(tracks, known):
    # the cut on the table keeps the tracks, order and rows that one
    # searchsorted per track keeps
    cfg = cc.Config(known_time_steps=known)
    table = cc.Tracks(tracks)
    last = max((int(tr.frames[-1]) for tr in tracks if len(tr)), default=0)
    for endtime in range(-2, last + known + 3):
        got = known_window_tracks(table, endtime, cfg)
        want = known_window_spans(tracks, endtime, cfg)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_track(a, b)


class TestTracks:
    def test_table_of_the_tracks(self):
        tracks = [line_track("b10", 2, 3, (0, 0), (1, 0)), empty_track("a"),
                  line_track("b9", 0, 2, (5, 5), (0, 1))]
        table = cc.Tracks(tracks)
        assert list(table) == tracks
        assert table.starts.tolist() == [0, 3, 3] and table.lengths.tolist() == [3, 0, 2]
        assert table.frames.tolist() == [2, 3, 4, 0, 1]
        assert table.agent_ids == ("a", "b9", "b10") and table.codes.tolist() == [2, 0, 1]
        assert count_before(table, 3).tolist() == [1, 0, 2]
        assert (table.rows_at(np.arange(3), 3) - table.starts).tolist() == [1, 0, 2]
        assert table.owners.tolist() == [0, 0, 0, 2, 2]
        assert [a.tolist() for a in table.covering(0, 2)] == [[2], [0]]
        assert [a.tolist() for a in table.covering(0, 10**20)] == [[], []]
        assert table.directions.tobytes() == np.concatenate(
            [tr.directions for tr in tracks if len(tr)]).tobytes()

    def test_immutable_and_converted_once(self):
        table = cc.Tracks([line_track("a", 0, 3, (0, 0), (1, 0))])
        assert cc.Tracks.of(table) is table
        assert isinstance(cc.Tracks.of(list(table)), cc.Tracks)
        with pytest.raises(AttributeError):
            table.frames = None
        with pytest.raises(ValueError):
            table.positions[0, 0] = 1.0

    def test_summaries_built_once_under_threads(self):
        # threads asking a fresh run for the cut, the head count and the
        # stored lengths of random frames, with a switch forced every
        # microsecond, build its summaries on first use while the others
        # read them, and each gets what one scan of the table gives
        rng = np.random.default_rng(3)
        table = cc.Tracks([random_track(rng, f"r{i % 20}") for i in range(30)])
        frames = list(range(-1, 45))
        every = np.arange(len(table))
        want = {f: (count_before(table, f), ids_before(table, f), covering(table, f, 3))
                for f in frames}
        bad = []

        def ask(seed):
            pick = np.random.default_rng(seed)
            for f in pick.choice(frames, 300).tolist():
                counts, ids, (t, rows) = want[f]
                got_t, got_rows = table.covering(f, 3)
                if not (np.array_equal(table.rows_at(every, f) - table.starts, counts)
                        and table.ids_before(f) == ids and np.array_equal(got_t, t)
                        and np.array_equal(got_rows, rows)):
                    bad.append(f)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=ask, args=(k,)) for k in range(6)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert bad == []

    def test_read_tracks_are_views_of_the_table(self):
        data = b"frame,agent_id,x,y\n4,b,1.0,2.0\n0,a10,0.0,0.0\n3,b,0.5,0.5\n1,a10,1.0,0.0\n"
        table = cc.read_canonical_csv(data, STEP)
        assert [tr.agent_id for tr in table] == ["a10", "b"]
        assert table.frames.tolist() == [0, 1, 3, 4]
        assert all(np.shares_memory(tr.positions, table.positions) for tr in table)
        assert table[1].positions.tolist() == [[0.5, 0.5], [1.0, 2.0]]

    @pytest.mark.parametrize("rows, message", [
        # the first agent in natural order with a fault is named
        (["0,b,0,0", "1,b,0,0", "5,a,0,0", "5,a,1,1"], "agent 'a' has duplicate"),
        (["5,a2,0,0", "99999999999999999999,a10,0,0", "5,a2,1,1"],
         "agent 'a2' has duplicate"),
        (["99999999999999999999,a2,0,0", "5,a10,0,0", "5,a10,1,1"],
         "agent 'a2': frame 99999999999999999999 is out of range"),
        ([f"{2**63 - 2},c,0,0", f"{2**63 - 1},c,0,0", "5,d,0,0", "5,d,1,1"],
         "times of agent 'c'"),
    ])
    def test_first_faulty_agent_named(self, rows, message):
        data = ("frame,agent_id,x,y\n" + "\n".join(rows) + "\n").encode()
        with pytest.raises(DataError, match=message):
            cc.read_canonical_csv(data, STEP)


def test_database_arrays_are_read_only(cfg):
    tr = line_track("7", 0, 5, (0, 0), (1, 0))
    db = cc.build_database([tr], cfg)
    for arr in (db.positions, db.directions, db.destinations, db.steps,
                db.agent_codes):
        with pytest.raises(ValueError):
            arr[0] = 9


class TestNonFiniteInput:
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "-1000000000.0000001",
                                      "1e200", "1.7976931348623157e308"])
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

    @pytest.mark.parametrize("name", CONFIG_FLOATS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 5e-324, 1e-300,
                                       1e300, 1.7976931348623157e308])
    def test_config_rejects(self, name, value):
        if name == "direction_weight" and value < 1.0:
            # the weight may be 0, so a tiny one is kept
            assert cc.Config(direction_weight=value).direction_weight == value
            return
        with pytest.raises(ValueError, match=name):
            cc.Config(**{name: value})

    @pytest.mark.parametrize("name", CONFIG_FLOATS)
    @pytest.mark.parametrize("value", [1 / SCALE, SCALE])
    def test_config_accepts_the_ends_of_the_scale(self, name, value):
        if (name, value) in (("intimate_distance", SCALE),
                             ("personal_distance", 1 / SCALE)):
            # no personal_distance in range lies above an intimate one of
            # 1e9, nor an intimate one below a personal one of 1e-9
            with pytest.raises(ValueError, match="intimate_distance < personal"):
                cc.Config(**{name: value})
        else:
            assert getattr(cc.Config(**{name: value}), name) == value
        if name == "direction_weight":
            assert cc.Config(direction_weight=-value).direction_weight == -value


class TestScaleContract:
    """Input coordinates within ±SCALE m, checked where they enter."""

    def test_csv_coordinate_at_the_scale_kept(self):
        data = f"frame,agent_id,x,y\n0,1,{SCALE!r},{-SCALE!r}\n".encode()
        assert cc.read_canonical_csv(data, STEP)[0].positions.tolist() == [[SCALE, -SCALE]]

    def test_scene_vertex_beyond_the_scale(self):
        with pytest.raises(DataError, match="line 2: .*within"):
            parse_scene("seg 0 0 1 1\npoly 0 0 2e9 0 0 1\n")
        with pytest.raises(DataError, match="within"):
            cc.SceneGeometry(segments=(np.array([[0.0, 0.0], [1e10, 0.0]]),))
        with pytest.raises(DataError, match="within"):
            cc.SceneGeometry(polygons=(np.array([[0.0, 0.0], [1e300, 0.0], [0.0, 1.0]]),))
        # bounds are only compared with the vertices, so any finite ones do
        scene = parse_scene("bounds -1e308 -1e308 1e308 1e308\nseg -1e9 0 1e9 0\n")
        assert len(scene.segments) == 1
        with pytest.raises(DataError, match="line 1: .*finite"):
            parse_scene("bounds -inf 0 1 1\n")

    def test_small_polygon_far_from_the_origin(self):
        # the area is taken about the first vertex, so a 0.5 m² triangle
        # keeps it at 1e8 m, and a flat one there still has none
        scene = parse_scene("poly 1e8 1e8 100000001 1e8 100000001 100000001")
        assert scene.polygons[0].tolist() == [[1e8, 1e8], [1e8 + 1, 1e8],
                                              [1e8 + 1, 1e8 + 1]]
        with pytest.raises(DataError, match="zero area"):
            parse_scene("poly 1e8 1e8 100000001 1e8 100000002 1e8")


# np.errstate sites allowed in src/: each guards arithmetic on input before
# the scale check, or input its own tests feed unbounded
ERRSTATE_SITES = {
    ("core.py", "resample_parts"),
    ("ingest.py", "Homography.__post_init__"),
    ("ingest.py", "_homography_product"),
    ("ingest.py", "_canonical_tracks"),
}


# places in src/ that call __new__ (an object made by __new__ skips
# __init__): the tuple of a Tracks, and Trajectory.trusted, which builds a
# Trajectory without the checks of __post_init__
NEW_SITES = {("core.py", "Tracks._of_table"), ("core.py", "Trajectory.trusted")}

# the callers of Trajectory.trusted, each on rows already checked once: a
# span of a checked track, the tracks of the table that read_canonical_csv
# checks whole, reconstructed members sharing their group trajectory's
# (built from the one-candidate member array), and group centers on frames
# and times that are a subset of one checked member's;
# ingest's tracks are slices of one resample whose grid times it checks
UNCHECKED_TRAJECTORY_SITES = {("core.py", "Trajectory.span"),
                              ("core.py", "read_canonical_csv"),
                              ("dynamics.py", "reconstruct_members"),
                              ("grouping.py", "_center"),
                              ("ingest.py", "_canonical_tracks")}


def _attribute_sites(path: Path, attrs: tuple) -> list:
    """(file, enclosing function) of every use of an attribute in ``attrs``."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and node.attr in attrs:
            sites.append((path.name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return sites


def _src_sites(attrs: tuple) -> list:
    src = Path(cc.__file__).parent
    return [site for path in sorted(src.glob("*.py"))
            for site in _attribute_sites(path, attrs)]


def test_errstate_only_at_input_guards():
    """Overflow is bounded once, where input enters (``core.SCALE``); a later
    layer may not silence floating-point warnings locally again."""
    sites = _src_sites(("errstate", "seterr"))
    assert sorted(set(sites)) == sorted(ERRSTATE_SITES)
    assert len(sites) == len(ERRSTATE_SITES)


def test_trajectory_checks_skipped_only_by_span():
    """Every other Trajectory in src/ is built through the checked
    constructor."""
    sites = _src_sites(("__new__",))
    assert sorted(set(sites)) == sorted(NEW_SITES)
    assert len(sites) == len(NEW_SITES)
    sites = _src_sites(("trusted",))
    assert sorted(set(sites)) == sorted(UNCHECKED_TRAJECTORY_SITES)
    assert len(sites) == len(UNCHECKED_TRAJECTORY_SITES)


@pytest.mark.parametrize("steps", [0, 1])
def test_known_window_needs_two_steps(steps):
    with pytest.raises(ValueError, match="known_time_steps"):
        cc.Config(known_time_steps=steps)
    assert cc.Config(known_time_steps=2).known_time_steps == 2
