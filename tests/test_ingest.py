"""Annotation parsing, homography, gap splitting, and resampling on ingest."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import crowdcast as cc
import ingest_oracle
from crowdcast import ingest
from crowdcast.core import DataError, Trajectory, resample_trajectory
from crowdcast.ingest import (
    Homography,
    ParseError,
    apply_homography,
    parse_obsmat,
    to_canonical,
)


OBSMAT_8COL = """\
% frame id pos_x pos_z pos_y v_x v_z v_y
0 1 1.00 0.0 2.00 0 0 0
1 1 1.40 0.0 2.00 0 0 0
2 1 1.80 0.0 2.00 0 0 0
"""


class TestParseObsmat:
    def test_eight_column_layout(self):
        rows = parse_obsmat(OBSMAT_8COL.encode())
        assert len(rows) == 3
        frame, agent_id, raw_x, raw_y = rows[0]
        assert frame == 0 and agent_id == 1
        assert raw_x == 1.0 and raw_y == 2.0

    def test_four_column_layout(self):
        rows = parse_obsmat(b"0 7 3.5 4.5\n1 7 3.6 4.4\n")
        assert rows[0, 2] == 3.5 and rows[0, 3] == 4.5

    def test_column_map_override(self):
        rows = parse_obsmat(b"0 7 4.5 3.5\n", column_map="0,1,3,2")
        assert rows[0, 2] == 3.5 and rows[0, 3] == 4.5

    def test_comments_and_blanks_skipped(self):
        rows = parse_obsmat(b"# c\n\n% c\n0 1 1.0 1.0\n")
        assert len(rows) == 1

    def test_bad_width_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_obsmat(b"0 1 1.0 1.0\n0 1 1.0\n")

    def test_non_numeric_field(self):
        with pytest.raises(ParseError, match="oops"):
            parse_obsmat(b"0 1 oops 1.0\n")

    def test_fractional_frame_rejected(self):
        with pytest.raises(ParseError, match="integer"):
            parse_obsmat(b"0.5 1 1.0 1.0\n")

    def test_negative_frame_rejected(self):
        with pytest.raises(ParseError, match="negative"):
            parse_obsmat(b"-3 1 1.0 1.0\n")

    def test_bad_column_map(self):
        # a wrong count, a non-integer or a negative index is a usage
        # error, not bad data
        for column_map in ["0,1,2", "0,1,2,3,4", "a,b,c,d", "0,1,2,", "0,1,2,-1"]:
            with pytest.raises(ValueError, match="bad column map") as exc:
                parse_obsmat(b"0 1 1.0 1.0\n", column_map=column_map)
            assert not isinstance(exc.value, DataError), column_map

    @pytest.mark.parametrize("row", [b"1 1 nan 1.0", b"1 1 1.0 -inf",
                                     b"inf 1 1.0 1.0", b"1 nan 1.0 1.0"])
    def test_non_finite_field_reports_line(self, row):
        with pytest.raises(ParseError, match="line 2"):
            parse_obsmat(b"0 1 1.0 1.0\n" + row + b"\n")


class TestParseArrayPass:
    """``parse_obsmat`` parses blocks of lines in one array pass and walks
    a block's lines only when that pass refuses it; the array pass accepts
    exactly what the line walk accepts, with the same bits."""

    # tokens Python's float accepts, rejects, or turns non-finite, where
    # other parsers differ: underscores, non-ASCII digits, hex, Fortran
    # exponents, NUL characters (which numpy's unicode arrays drop)
    TOKENS = ["1_0", "1__0", "_1", "1_", "1e1_0", "١٢", "١.٥", "１２", "𝟙", "²", "ⅷ",
              "0x10", "0x1p3", "1d5", "1D5", "1e400", "-1e400", "1e-400", "4.9e-324",
              "inf", "-Infinity", "nan", "NaN", "nan(1)", "+1.5", ".5", "5.", "-0",
              "-0.0000003", "0.0000003", "2.0000004", "2.000002", "1.5e", "e5", "--1",
              "1,5", "0b1", "1j", "True", "1\x00", "\x001", "1\x002", "7"]

    @staticmethod
    def walk(text, override=None):
        lines = text.splitlines()
        try:
            return ingest._parse_lines(lines, override, 0), None
        except ParseError as exc:
            return None, str(exc)

    @pytest.mark.parametrize("column", range(4))
    def test_tokens_as_the_line_walk(self, column):
        for tok in self.TOKENS:
            row = ["3", "1", "2.5", "-1.5"]
            row[column] = tok
            text = "0 1 1.0 2.0\n" + " ".join(row) + "\n"
            want, error = self.walk(text)
            got = ingest._parse_block(text.splitlines(), None)
            if error is not None:
                assert got is None, tok
                with pytest.raises(ParseError) as exc:
                    parse_obsmat(text)
                assert str(exc.value) == error
            else:
                assert got.tobytes() == want.tobytes(), tok
                assert parse_obsmat(text).tobytes() == want.tobytes(), tok

    def test_accepted_tokens_take_the_array_pass(self):
        text = "1_0 ١٢ １２ 𝟙\n-0 -0.0000003 1e-400 -0\n0.0000003 7 4.9e-324 -1e-400\n"
        got = ingest._parse_block(text.splitlines(), None)
        assert got is not None
        assert got.tobytes() == self.walk(text)[0].tobytes()
        assert not np.signbit(got[:, :2]).any() and np.signbit(got[2, 3])

    def test_blocks_of_many_lines(self):
        rng = np.random.default_rng(3)
        n = 3 * ingest._PARSE_BLOCK + 17
        frames, ids = rng.integers(0, 10_000, n), rng.integers(-50, 50, n)
        xy = rng.normal(0.0, 30.0, (n, 2))
        lines = [f"{f} {i} {x!r} 0 {y!r} 0 0 0"
                 for f, i, (x, y) in zip(frames, ids, xy.tolist())]
        lines[5] = "% a comment"
        lines[ingest._PARSE_BLOCK + 3] = "   "
        lines[2 * ingest._PARSE_BLOCK - 1] = f"{frames[0]} {ids[0]} 1.0 2.0"   # 4 columns
        text = "\n".join(lines) + "\n"
        want, error = self.walk(text)
        assert error is None and len(want) == n - 2
        assert parse_obsmat(text.encode()).tobytes() == want.tobytes()

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_first_bad_line_of_a_later_block(self, where):
        block = ingest._PARSE_BLOCK
        lines = [f"{k} 1 1.0 2.0" for k in range(3 * block)]
        bad = block * where + 7
        lines[bad] = f"{bad} 1 oops 2.0"
        lines[bad + 40] = "-3 1 1.0 1.0"
        with pytest.raises(ParseError, match=f"^line {bad + 1}: malformed numeric field 'oops'$"):
            parse_obsmat("\n".join(lines))

    def test_column_map_outside_the_row(self):
        # a negative column is refused before any line is read; the line
        # walk reports a column past the end, the array pass leaves it to it
        text = "0 7 4.5 3.5\n1 7 4.6 3.4\n"
        with pytest.raises(ValueError, match="non-negative"):
            parse_obsmat(text, column_map="0,1,-1,-2")
        with pytest.raises(ParseError, match="line 1: column 4 missing in 4-column row"):
            parse_obsmat(text, column_map="0,1,2,4")


class TestHomography:
    def test_identity(self):
        p = apply_homography(Homography.identity(), np.array([[3.0, -2.0]]))
        assert np.allclose(p, [3.0, -2.0])

    def test_scaling(self):
        h = Homography.from_text("2 0 0  0 2 0  0 0 1")
        assert np.allclose(apply_homography(h, np.array([[1.0, 2.0]])), [2.0, 4.0])

    def test_singular_rejected(self):
        with pytest.raises(DataError):
            Homography.from_text("1 0 0  0 1 0  0 0 0")

    @pytest.mark.parametrize("text,message", [
        ("1 2 3  2 4 6  0 0 1", "not invertible"),
        ("0 0 0  0 0 0  0 0 0", "not invertible"),
        ("0 0 0  0 1 0  2.225073858507203e-309 0 1", "not invertible"),
        ("1e300 0 0  0 1e300 0  0 0 1", "determinant overflows")])
    def test_singular_zero_and_overflowing_messages(self, text, message):
        with pytest.raises(DataError, match=message):
            Homography.from_text(text)

    @pytest.mark.parametrize("text", [
        "1e-7 0 0  0 1e-7 0  0 0 1", "1e-300 0 0  0 1e-300 0  0 0 1",
        "1e200 0 0  0 1e-200 0  0 0 1", "1.4e154 0 0  1.2124e154 7e153 0  0 0 1"])
    def test_invertibility_is_scale_free(self, text):
        # det 1e-14, 1e-600 (underflows to 0), 1 and 9.8e307 (the row norms'
        # product overflows): rows of any scale that are far from dependent
        h = Homography.from_text(text)
        assert np.all(np.isfinite(apply_homography(h, np.array([[1.0, 2.0]]))))

    def test_degenerate_point(self):
        h = Homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 0, 1.0]]))
        with pytest.raises(DataError, match=r"point \(-1.0, 0.0\) maps to infinity"):
            apply_homography(h, np.array([[2.0, 0.0], [-1.0, 0.0]]))

    def test_from_text_needs_nine_numbers(self):
        with pytest.raises(DataError):
            Homography.from_text("1 0 0 0 1 0 0 0")

    def test_from_text_rejects_non_finite(self):
        with pytest.raises(DataError, match="finite"):
            Homography.from_text("1 0 0 0 1 0 0 0 nan")


IDENTITY = Homography.identity()


def _rows(agent_id, frames, xs, ys):
    frames = np.asarray(frames, dtype=np.float64)
    return np.column_stack([frames, np.full(len(frames), agent_id), xs, ys])


class TestToCanonical:
    def test_resamples_onto_step_grid(self, cfg):
        # 2.5 fps annotations are 0.4 s apart, slightly off the 0.3999 grid
        rows = _rows(1, range(11), [0.4 * f for f in range(11)], [0.0] * 11)
        csv_bytes, summary = to_canonical(rows, IDENTITY, 2.5, cfg)
        tracks = cc.read_canonical_csv(csv_bytes, cfg.step_duration)
        assert summary.n_tracks == 1 and summary.n_dropped == 0
        tr = tracks[0]
        assert list(tr.frames) == list(range(11))
        # position follows x = t at 1 m/s in annotation time
        assert np.allclose(tr.positions[:, 0], tr.times, atol=1e-9)

    def test_single_missing_frame_is_bridged(self, cfg):
        frames = [0, 1, 3, 4]
        rows = _rows(1, frames, [0.4 * f for f in frames], [0.0] * 4)
        _, summary = to_canonical(rows, IDENTITY, 2.5, cfg)
        assert summary.n_tracks == 1 and summary.n_split == 0

    def test_long_gap_splits_track(self, cfg):
        frames = [0, 1, 2, 6, 7, 8]
        rows = _rows(5, frames, [0.4 * f for f in frames], [0.0] * 6)
        csv_bytes, summary = to_canonical(rows, IDENTITY, 2.5, cfg)
        names = [tr.agent_id
                 for tr in cc.read_canonical_csv(csv_bytes, cfg.step_duration)]
        assert names == ["5", "5#2"]
        assert summary.n_split == 1

    def test_short_remnant_dropped(self, cfg):
        rows = _rows(9, [0], [1.0], [1.0])
        csv_bytes, summary = to_canonical(rows, IDENTITY, 2.5, cfg)
        assert summary.n_dropped == 1 and summary.n_tracks == 0
        assert list(cc.read_canonical_csv(csv_bytes, cfg.step_duration)) == []

    def test_homography_applied(self, cfg):
        rows = _rows(1, range(4), [0.4 * f for f in range(4)], [1.0] * 4)
        h = Homography.from_text("2 0 0  0 2 0  0 0 1")
        csv_bytes, _ = to_canonical(rows, h, 2.5, cfg)
        tr = cc.read_canonical_csv(csv_bytes, cfg.step_duration)[0]
        assert np.allclose(tr.positions[0], [0.0, 2.0])

    def test_point_mapped_beyond_the_scale_rejected(self, cfg):
        # 5e8 doubles to exactly 1e9, kept; the first point past it is named
        rows = np.vstack([_rows(1, range(3), [0.0, 1.0, 5e8], [0.0] * 3),
                          _rows(2, range(3), [0.0, 3e8, 6e8], [0.0] * 3)])
        h = Homography.from_text("2 0 0  0 2 0  0 0 1")
        with pytest.raises(DataError, match=r"agent 2: point \(600000000.0, 0.0\)"):
            to_canonical(rows, h, 2.5, cfg)
        # on the step grid every sample is copied bit for bit
        csv_bytes, _ = to_canonical(rows[:3], h, 1.0 / cfg.step_duration, cfg)
        tr = cc.read_canonical_csv(csv_bytes, cfg.step_duration)[0]
        assert tr.positions[-1, 0] == 1e9

    def test_duplicate_source_frame_rejected(self, cfg):
        rows = _rows(1, [0, 0, 1], [0.0, 0.1, 0.2], [0.0] * 3)
        with pytest.raises(DataError):
            to_canonical(rows, IDENTITY, 2.5, cfg)

    def test_zero_fps_rejected(self, cfg):
        with pytest.raises(ValueError):
            to_canonical(np.empty((0, 4)), IDENTITY, 0.0, cfg)

    def test_summary_describe(self, cfg):
        rows = _rows(1, range(4), [0.4 * f for f in range(4)], [0.0] * 4)
        _, summary = to_canonical(rows, IDENTITY, 2.5, cfg)
        text = summary.describe()
        assert "1 source agents" in text and "1 tracks" in text


STEPS = st.sampled_from([0.3999, 0.4, 0.1, 1.0 / 3.0, 2.5])
COORDS = st.one_of(st.floats(-100.0, 100.0),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def raw_track(draw) -> tuple:
    """Samples on the grid, within about 1e-9 of it (either side of the
    snap tolerance), or between grid points, so ranges often start or end
    off the grid; coordinates up to the largest finite floats."""
    step = draw(STEPS)
    times = []
    # grid indices in a small range, so two samples often share a grid point
    for k in draw(st.lists(st.integers(-3, 20), min_size=2, max_size=12)):
        t = k * step
        kind = draw(st.sampled_from(["on", "near", "off"]))
        if kind == "near":
            t += draw(st.floats(-1.5e-9, 1.5e-9)) * max(1.0, abs(t))
        elif kind == "off":
            t += draw(st.floats(-0.49, 0.49)) * step
        times.append(t)
    times = np.unique(times)
    assume(len(times) >= 2)
    points = np.array(draw(st.lists(COORDS, min_size=2 * len(times),
                                    max_size=2 * len(times)))).reshape(-1, 2)
    return Trajectory("a", np.arange(len(times)), times, points), step


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=raw_track())
def test_resample_bit_equal_to_oracle(case):
    traj, step = case
    got = resample_trajectory(traj, step)
    want = ingest_oracle.resample_trajectory(traj, step)
    assert got.frames.tobytes() == want.frames.tobytes()
    assert got.times.tobytes() == want.times.tobytes()
    assert got.positions.tobytes() == want.positions.tobytes()


MATRIX_ENTRIES = st.one_of(st.sampled_from([0.0, 0.5, -1.0, 1.0, 2.0]),
                           st.floats(-10.0, 10.0), st.floats(-1e200, 1e200))
POINT_COORDS = st.one_of(st.integers(-4, 4).map(float), COORDS)


def _transform_or_error(transform, h, points):
    try:
        return transform(h, points).tobytes()
    except DataError as err:
        return str(err)


def _oracle_transform(h, points):
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array([ingest_oracle.apply_homography(h, p)
                         for p in points]).reshape(-1, 2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(entries=st.lists(MATRIX_ENTRIES, min_size=9, max_size=9),
       coords=st.lists(POINT_COORDS, min_size=0, max_size=16))
def test_homography_bit_equal_to_oracle(entries, coords):
    try:
        h = Homography(np.array(entries))
    except DataError:
        assume(False)
    points = np.array(coords[:len(coords) // 2 * 2]).reshape(-1, 2)
    assert (_transform_or_error(apply_homography, h, points)
            == _transform_or_error(_oracle_transform, h, points))
