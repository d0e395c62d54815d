"""Annotation parsing, homography, gap splitting, and resampling on ingest."""

from __future__ import annotations

import numpy as np
import pytest

import crowdcast as cc
from crowdcast.core import DataError
from crowdcast.ingest import (
    DegeneratePointError,
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
        assert rows[0].frame == 0 and rows[0].agent_id == 1
        assert rows[0].raw_x == 1.0 and rows[0].raw_y == 2.0

    def test_four_column_layout(self):
        rows = parse_obsmat(b"0 7 3.5 4.5\n1 7 3.6 4.4\n")
        assert rows[0].raw_x == 3.5 and rows[0].raw_y == 4.5

    def test_column_map_override(self):
        rows = parse_obsmat(b"0 7 4.5 3.5\n", column_map="0,1,3,2")
        assert rows[0].raw_x == 3.5 and rows[0].raw_y == 4.5

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
        with pytest.raises(DataError):
            parse_obsmat(b"0 1 1.0 1.0\n", column_map="0,1,2")

    @pytest.mark.parametrize("row", [b"1 1 nan 1.0", b"1 1 1.0 -inf",
                                     b"inf 1 1.0 1.0", b"1 nan 1.0 1.0"])
    def test_non_finite_field_reports_line(self, row):
        with pytest.raises(ParseError, match="line 2"):
            parse_obsmat(b"0 1 1.0 1.0\n" + row + b"\n")


class TestHomography:
    def test_identity(self):
        p = apply_homography(Homography.identity(), (3.0, -2.0))
        assert np.allclose(p, [3.0, -2.0])

    def test_scaling(self):
        h = Homography.from_text("2 0 0  0 2 0  0 0 1")
        assert np.allclose(apply_homography(h, (1.0, 2.0)), [2.0, 4.0])

    def test_singular_rejected(self):
        with pytest.raises(DataError):
            Homography.from_text("1 0 0  0 1 0  0 0 0")

    def test_degenerate_point(self):
        h = Homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 0, 1.0]]))
        with pytest.raises(DegeneratePointError):
            apply_homography(h, (-1.0, 0.0))

    def test_from_text_needs_nine_numbers(self):
        with pytest.raises(DataError):
            Homography.from_text("1 0 0 0 1 0 0 0")

    def test_from_text_rejects_non_finite(self):
        with pytest.raises(DataError, match="finite"):
            Homography.from_text("1 0 0 0 1 0 0 0 nan")


def _rows(agent_id, frames, xs, ys):
    return [cc.ingest.RawAnnotationRow(f, agent_id, x, y)
            for f, x, y in zip(frames, xs, ys)]


class TestToCanonical:
    def test_resamples_onto_step_grid(self, cfg):
        # 2.5 fps annotations are 0.4 s apart, slightly off the 0.3999 grid
        rows = _rows(1, range(11), [0.4 * f for f in range(11)], [0.0] * 11)
        csv_bytes, summary = to_canonical(rows, None, 2.5, cfg)
        tracks = cc.read_canonical_csv(csv_bytes, cfg.step_duration)
        assert summary.n_tracks == 1 and summary.n_dropped == 0
        tr = tracks[0]
        assert list(tr.frames) == list(range(11))
        # position follows x = t at 1 m/s in annotation time
        assert np.allclose(tr.positions[:, 0], tr.times, atol=1e-9)

    def test_single_missing_frame_is_bridged(self, cfg):
        frames = [0, 1, 3, 4]
        rows = _rows(1, frames, [0.4 * f for f in frames], [0.0] * 4)
        _, summary = to_canonical(rows, None, 2.5, cfg)
        assert summary.n_tracks == 1 and summary.n_split == 0

    def test_long_gap_splits_track(self, cfg):
        frames = [0, 1, 2, 6, 7, 8]
        rows = _rows(5, frames, [0.4 * f for f in frames], [0.0] * 6)
        csv_bytes, summary = to_canonical(rows, None, 2.5, cfg)
        names = [tr.agent_id
                 for tr in cc.read_canonical_csv(csv_bytes, cfg.step_duration)]
        assert names == ["5", "5#2"]
        assert summary.n_split == 1

    def test_short_remnant_dropped(self, cfg):
        rows = _rows(9, [0], [1.0], [1.0])
        csv_bytes, summary = to_canonical(rows, None, 2.5, cfg)
        assert summary.n_dropped == 1 and summary.n_tracks == 0
        assert cc.read_canonical_csv(csv_bytes, cfg.step_duration) == []

    def test_homography_applied(self, cfg):
        rows = _rows(1, range(4), [0.4 * f for f in range(4)], [1.0] * 4)
        h = Homography.from_text("2 0 0  0 2 0  0 0 1")
        csv_bytes, _ = to_canonical(rows, h, 2.5, cfg)
        tr = cc.read_canonical_csv(csv_bytes, cfg.step_duration)[0]
        assert np.allclose(tr.positions[0], [0.0, 2.0])

    def test_duplicate_source_frame_rejected(self, cfg):
        rows = _rows(1, [0, 0, 1], [0.0, 0.1, 0.2], [0.0] * 3)
        with pytest.raises(DataError):
            to_canonical(rows, None, 2.5, cfg)

    def test_zero_fps_rejected(self, cfg):
        with pytest.raises(ValueError):
            to_canonical([], None, 0.0, cfg)

    def test_summary_describe(self, cfg):
        rows = _rows(1, range(4), [0.4 * f for f in range(4)], [0.0] * 4)
        _, summary = to_canonical(rows, None, 2.5, cfg)
        text = summary.describe()
        assert "1 source agents" in text and "1 tracks" in text
