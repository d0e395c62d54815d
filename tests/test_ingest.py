"""Annotation parsing, homography, gap splitting, and resampling on ingest."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import crowdcast as cc
import ingest_oracle
from crowdcast import ingest
from crowdcast.core import DataError, Trajectory, resample_parts, resample_trajectory
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
    """``parse_obsmat`` parses each block of lines in one pass of numpy's C
    text reader and walks a block's lines only when that pass refuses it;
    the pass returns the walk's bits or None, never other bits, and the
    walk alone raises ``ParseError``."""

    # tokens Python's float accepts, rejects, or turns non-finite, where
    # other parsers differ: underscores, non-ASCII digits, hex, Fortran
    # exponents, NUL characters (which numpy's unicode arrays drop)
    TOKENS = ["1_0", "1__0", "_1", "1_", "1e1_0", "١٢", "١.٥", "１２", "𝟙", "²", "ⅷ",
              "0x10", "0x1p3", "1d5", "1D5", "1e400", "-1e400", "1e-400", "4.9e-324",
              "inf", "-Infinity", "nan", "NaN", "nan(1)", "+1.5", ".5", "5.", "-0",
              "-0.0000003", "0.0000003", "2.0000004", "2.000002", "1.5e", "e5", "--1",
              "1,5", "0b1", "1j", "True", "1\x00", "\x001", "1\x002", "7"]

    # str.split separators: the first five also end a line for splitlines
    SEPARATORS = ["\t", "\x0b", "\x0c", "\x1c", "\x85", "\x1f", "\xa0", "\u1680", "\u2003",
                  "\u3000", "\t \u2003"]

    @staticmethod
    def walk(text, override=None):
        lines = text.splitlines()
        try:
            return ingest._parse_lines(lines, override, 0), None
        except ParseError as exc:
            return None, str(exc)

    def assert_as_the_walk(self, text, override=None, column_map=None):
        """``parse_obsmat`` gives the walk's bits or raises its message, and
        the C pass gives them too or refuses; returns the C pass's rows."""
        want, error = self.walk(text, override)
        got = ingest._parse_block(text.splitlines(), override)
        if error is not None:
            assert got is None, text
            with pytest.raises(ParseError) as exc:
                parse_obsmat(text, column_map=column_map)
            assert str(exc.value) == error
        else:
            assert got is None or got.tobytes() == want.tobytes(), text
            assert parse_obsmat(text, column_map=column_map).tobytes() == want.tobytes(), text
        return got

    @pytest.mark.parametrize("column", range(4))
    def test_tokens_as_the_line_walk(self, column):
        for tok in self.TOKENS:
            row = ["3", "1", "2.5", "-1.5"]
            row[column] = tok
            self.assert_as_the_walk("0 1 1.0 2.0\n" + " ".join(row) + "\n")
            # an 8-column row reads column 4 and never column 3
            row = ["3", "1", "2.5", "9", "-1.5", "0", "0", "0"]
            row[(0, 1, 2, 4)[column]] = tok
            self.assert_as_the_walk("0 1 1.0 0 2.0 0 0 0\n" + " ".join(row) + "\n")
            row[3] = tok
            self.assert_as_the_walk(" ".join(row) + "\n", (0, 1, 2, 4), "0,1,2,4")

    def test_exotic_tokens_refused_by_the_c_pass_parse_as_the_walk(self):
        # Python's float reads underscores and non-ASCII digits; the C pass
        # refuses them, so their block is walked
        for tok in ["1_0", "1e1_0", "١٢", "１２", "𝟙"]:
            text = f"0 1 1.0 2.0\n{tok} 1 2.5 -1.5\n4 {tok} {tok} {tok}\n"
            assert ingest._parse_block(text.splitlines(), None) is None, tok
            assert parse_obsmat(text).tobytes() == self.walk(text)[0].tobytes(), tok
        text = "-0 -0.0000003 1e-400 -0\n0.0000003 7 4.9e-324 -1e-400\n"
        got = self.assert_as_the_walk(text)
        assert got is not None
        assert not np.signbit(got[:, :2]).any() and np.signbit(got[1, 3])

    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_separators_as_the_line_walk(self, sep):
        rows = ["0 1 1.5 2.5", "1 1 1.5 0 2.5 0 0 0", "  2 1 1.5 2.5", "3 1 1.5 2.5  "]
        for row in rows:
            text = row.replace(" ", sep) + "\n" + row.replace(" ", sep + sep) + "\n"
            got = self.assert_as_the_walk(text)
            # a separator that does not end a line takes the C pass
            assert (got is not None) == (len(text.splitlines()) == 2), repr(sep)

    @pytest.mark.parametrize("lines", [[""], ["", ""], ["   "], [" \t", "\xa0"], ["# c"],
                                       ["% c", "  # c", ""]])
    def test_blocks_without_rows(self, lines):
        # numpy's reader warns on a block with no data; the C pass is not
        # run on one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self.assert_as_the_walk("\n".join(lines) + "\n")
            assert got is not None and got.shape == (0, 4)
            text = "\n".join(lines * ingest._PARSE_BLOCK + ["0 1 1.0 2.0"])
            assert parse_obsmat(text).tolist() == [[0.0, 1.0, 1.0, 2.0]]

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
        # walk reports a column past the end, the C pass leaves it to it
        text = "0 7 4.5 3.5\n1 7 4.6 3.4\n"
        with pytest.raises(ValueError, match="non-negative"):
            parse_obsmat(text, column_map="0,1,-1,-2")
        with pytest.raises(ParseError, match="line 1: column 4 missing in 4-column row"):
            parse_obsmat(text, column_map="0,1,2,4")
        # rows of several widths are read when every mapped column exists
        text = "0 7 4.5 3.5 9\n1 7 4.6 3.4\n2 7 4.7 3.3 x y\n"
        assert self.assert_as_the_walk(text, (0, 1, 3, 2), "0,1,3,2") is not None
        self.assert_as_the_walk(text + "3 7 4.8\n", (0, 1, 3, 2), "0,1,3,2")
        self.assert_as_the_walk(text, (0, 0, 1, 1), "0,0,1,1")

    def test_mixed_widths_without_a_map(self):
        for text in ["0 1 1.0 2.0\n1 1 1.0 0 2.0 0 0 0\n",
                     "0 1 1.0 0 2.0 0 0 0\n1 1 1.0 0 2.0 0 0 0 0\n",
                     "0 1 1.0 0 2.0 0 0 0\n1 1 1.0 0 2.0\n", "0 1 1.0\n", "0 1 1 1 1 1\n",
                     "0 1 1.0 2.0 # x\n", "0 1 1.0 0 2.0 0 0 0 # x\n"]:
            self.assert_as_the_walk(text)


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


class TestWorkCounts:
    """Ingest works in whole-file passes: the C reader for every block of a
    plain file, one homography product and one resample for all agents."""

    def test_plain_file_never_walks(self, monkeypatch):
        n = 3 * ingest._PARSE_BLOCK + 17
        text = "".join(f"{k} {k % 97} {0.5 * k!r} 0 {-0.25 * k!r} 0 0 0\n" for k in range(n))
        want = ingest._parse_lines(text.splitlines(), None, 0)
        walks = []
        monkeypatch.setattr(ingest, "_parse_lines", lambda *args: walks.append(args))
        assert parse_obsmat(text).tobytes() == want.tobytes()
        assert walks == []

    def test_one_product_and_one_resample_for_all_agents(self, monkeypatch, cfg):
        calls = []
        for name in ("_homography_product", "resample_parts"):
            def counted(*args, real=getattr(ingest, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(ingest, name, counted)
        # 300 agents of 12 frames, every third one split by a gap
        rows = np.vstack([_rows(a, [f + 9 * (f > 5 and a % 3 == 0) for f in range(12)],
                                np.arange(12) * 0.3 + a, np.full(12, 0.5 * a))
                          for a in range(300)])
        h = Homography.from_text("0.021 0.0009 -0.4  -0.0006 0.026 -0.2  0.00002 0.00004 1")
        got = to_canonical(rows, h, 2.5, cfg)
        assert sorted(calls) == ["_homography_product", "resample_parts"]
        assert got[1].n_tracks == 400 and got[1].n_split == 100
        assert got == ingest_oracle.to_canonical(rows, h, 2.5, cfg)


STEPS = st.sampled_from([0.3999, 0.4, 0.1, 1.0 / 3.0, 2.5])
COORDS = st.one_of(st.floats(-100.0, 100.0),
                   st.floats(allow_nan=False, allow_infinity=False))


def draw_times(draw, step: float, first: int = 0) -> np.ndarray:
    """Sorted distinct times on the grid, within about 1e-9 of it (either
    side of the snap tolerance), or between grid points, at grid indices
    -3 .. 20, so ranges often start or end off the grid and two samples
    often share a grid point; then shifted by ``first`` steps."""
    times = []
    for k in draw(st.lists(st.integers(-3, 20), min_size=2, max_size=12)):
        t = k * step
        kind = draw(st.sampled_from(["on", "near", "off"]))
        if kind == "near":
            t += draw(st.floats(-1.5e-9, 1.5e-9)) * max(1.0, abs(t))
        elif kind == "off":
            t += draw(st.floats(-0.49, 0.49)) * step
        times.append(first * step + t)
    return np.unique(times)


@st.composite
def raw_track(draw) -> tuple:
    """Times from :func:`draw_times`; coordinates up to the largest finite
    floats."""
    step = draw(STEPS)
    times = draw_times(draw, step)
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


# first grid indices of a part: small, beyond 2**50 where grid times are
# coarse, and beyond 2**53 where two grid frames round to one time
FIRST_INDICES = st.sampled_from([0, 0, 7, 2**40, 2**50, 2**52, 2**53 + 8])


@st.composite
def raw_parts(draw) -> tuple:
    """A step and parts of :func:`draw_times` on it, one after another,
    each at its own first grid index; some lie between two grid points,
    so their grid is empty."""
    step = draw(STEPS)
    parts = []
    for first in draw(st.lists(FIRST_INDICES, min_size=1, max_size=5)):
        if draw(st.booleans()):
            times = draw_times(draw, step, first)
        else:
            times = (first + np.sort(draw(st.lists(st.floats(0.01, 0.99), min_size=2,
                                                    max_size=4, unique=True)))) * step
        assume(len(np.unique(times)) == len(times) >= 2)
        points = np.array(draw(st.lists(COORDS, min_size=2 * len(times),
                                        max_size=2 * len(times)))).reshape(-1, 2)
        parts.append(Trajectory("a", np.arange(len(times)), times, points))
    return step, parts


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=raw_parts())
def test_resample_parts_bit_equal_to_oracle(case):
    """Each part of one ``resample_parts`` pass is bit-equal to its own
    scalar resample; where that resample refuses grid times that round
    together, so do the part's times."""
    step, parts = case
    frames, times, points, counts = resample_parts(
        np.concatenate([tr.times for tr in parts]),
        np.concatenate([tr.positions for tr in parts]),
        np.array([len(tr) for tr in parts]), step)
    assert len(frames) == len(times) == len(points) == counts.sum()
    ends = np.cumsum(counts)
    for tr, lo, hi in zip(parts, ends - counts, ends):
        try:
            want = ingest_oracle.resample_trajectory(tr, step)
        except DataError:
            assert not (times[lo + 1:hi] > times[lo:hi - 1]).all()
            continue
        assert frames[lo:hi].tobytes() == want.frames.tobytes()
        assert times[lo:hi].tobytes() == want.times.tobytes()
        assert points[lo:hi].tobytes() == want.positions.tobytes()


@pytest.mark.parametrize("times", [[1e300, 2e300], [4e18, 4e18 + 1024.0]])
def test_grid_frames_beyond_int64_overflow(times):
    # the grid frame of 1e300 s overflows the division, 1e19 overflows int64
    traj = Trajectory("a", [0, 1], times, [[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(OverflowError, match="int64"):
        resample_trajectory(traj, 0.4)


# w = x + 1 for the last: a point with x = -1 maps to infinity
HOMOGRAPHIES = [Homography.identity(), Homography.from_text("2 0 0  0 2 0  0 0 1"),
                Homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 0, 1.0]]))]
# 1 / 0.3999 fps puts frames on the grid; at 1e-300 fps a frame past 179
# overflows the time axis
SOURCE_FPS = st.sampled_from([2.5, 10.0, 1.0 / 0.3999, 3.0, 1e-300])
# a planted fault per agent, most agents none: a repeated frame; huge
# frames, where frames 0.4 s apart round to one time (2**51 s at 2.5 fps),
# frame numbers round together (beyond 2**53) or times overflow (at 1e-300
# fps); two frames whose times differ but whose grid times round to one
# (at 2.5 fps); a point x = -1, at infinity under the third homography; a
# point beyond ±1e9 m, at once or once doubled
PLANTS = st.sampled_from(["none"] * 6 + ["dup", "huge", "grid", "far", "beyond"])
HUGE_FRAMES = st.sampled_from([200.0, 2.0**51 * 2.5, 2.0**51 * 2.5 + 1, 2.0**53, 2.0**60,
                               1e300])


@st.composite
def annotation_rows(draw) -> tuple:
    """Shuffled rows as ``parse_obsmat`` returns them (integer frames and
    ids, finite coordinates) with planted faults, a homography and a frame
    rate. Strides of 3 and 7 frames often cut a track, leaving short parts."""
    blocks = []
    for agent in draw(st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True)):
        plant = draw(PLANTS)
        strides = draw(st.lists(st.sampled_from([1, 1, 1, 1, 2, 3, 7]), max_size=12))
        if plant == "dup":
            strides.insert(draw(st.integers(0, len(strides))), 0)
        first = draw(st.integers(0, 30)) + (draw(HUGE_FRAMES) if plant == "huge" else 0.0)
        if plant == "grid":
            strides, first = [1], 2.0**51 * 2.5 + 5 * draw(st.integers(1, 6))
        frames = first + np.cumsum([0] + strides)
        n = len(frames)
        xs = draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n))
        if plant in ("far", "beyond"):
            xs[draw(st.integers(0, n - 1))] = (-1.0 if plant == "far" else
                                               draw(st.sampled_from([5e8, 6e8, 2e9])))
        ys = draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n))
        blocks.append(np.column_stack([frames, np.full(n, float(agent)), xs, ys]))
    rows = np.vstack(blocks)
    order = draw(st.permutations(range(len(rows))))
    return rows[order], draw(st.sampled_from(HOMOGRAPHIES)), draw(SOURCE_FPS)


def _canonical_or_error(convert, rows, h, fps, cfg):
    try:
        return convert(rows, h, fps, cfg)
    except DataError as err:
        return str(err)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=annotation_rows())
def test_to_canonical_equal_to_oracle(case):
    """The same CSV bytes and summary as one agent at a time, or the same
    first data error."""
    rows, h, fps = case
    cfg = cc.Config()
    assert (_canonical_or_error(to_canonical, rows, h, fps, cfg)
            == _canonical_or_error(ingest_oracle.to_canonical, rows, h, fps, cfg))


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
