"""Dataset ingestion: annotation matrices to canonical CSV.

Handles the whitespace-separated annotation matrices shipped with the common
public pedestrian datasets, applies a homography when the source coordinates
are pixels, resamples every track onto the shared step grid, and emits the
canonical ``frame,agent_id,x,y`` CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Config, DataError, Trajectory, resample_trajectory, write_canonical_csv

# a single missing annotation step must interpolate, not split, so the gap
# threshold gets a little slack against frame-rate rounding
_GAP_TOL = 1e-3


class ParseError(ValueError):
    """Malformed annotation input; carries the 1-based source line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DegeneratePointError(ValueError):
    """Perspective transform mapped a point to infinity."""


@dataclass(frozen=True)
class RawAnnotationRow:
    """One annotation: frame, agent id, and position in source units."""

    frame: int
    agent_id: int
    raw_x: float
    raw_y: float


@dataclass(frozen=True)
class Homography:
    """Invertible 3x3 perspective transform from source units to meters."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64).reshape(3, 3)
        with np.errstate(over="ignore", invalid="ignore"):
            det = np.linalg.det(m)
        if not math.isfinite(det):
            raise DataError("homography matrix too large: its determinant overflows")
        if abs(det) <= 1e-12:
            raise DataError("homography matrix is not invertible")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "Homography":
        return cls(np.eye(3))

    @classmethod
    def from_text(cls, text: str) -> "Homography":
        """Parse a 9-number whitespace-separated sidecar file."""
        vals = text.split()
        if len(vals) != 9:
            raise DataError(f"homography file needs 9 numbers, got {len(vals)}")
        nums = [float(v) for v in vals]
        if not all(math.isfinite(v) for v in nums):
            raise DataError("homography numbers must be finite")
        return cls(np.array(nums).reshape(3, 3))


def apply_homography(h: Homography, p) -> np.ndarray:
    """Apply the perspective transform to one 2D point."""
    x, y = float(p[0]), float(p[1])
    u, v, w = h.matrix @ np.array([x, y, 1.0])
    if abs(w) < 1e-12:
        raise DegeneratePointError(f"point ({x}, {y}) maps to infinity")
    return np.array([u / w, v / w])


@dataclass(frozen=True)
class IngestSummary:
    """Counts reported after converting one annotation file."""

    n_rows: int
    n_source_agents: int
    n_tracks: int
    n_dropped: int
    n_split: int

    def describe(self) -> str:
        return (f"{self.n_rows} rows, {self.n_source_agents} source agents -> "
                f"{self.n_tracks} tracks ({self.n_dropped} dropped, "
                f"{self.n_split} split off)")


def parse_obsmat(data, column_map: str | None = None) -> list:
    """Parse a whitespace-separated annotation matrix.

    Two layouts are recognized by column count: the 8-or-more column
    observation-matrix convention (frame, id, x, ., y, ...) where position
    columns are 2 and 4, and the plain 4-column (frame, id, x, y) layout.
    ``column_map`` overrides the detection with four comma-separated column
    indices for frame, id, x, y. Rows come back in file order; rows are never
    reordered or deduplicated here.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    override = None
    if column_map is not None:
        try:
            override = tuple(int(c) for c in column_map.split(","))
        except ValueError:
            raise DataError(f"bad column map {column_map!r}, expected e.g. 0,1,2,4")
        if len(override) != 4:
            raise DataError("column map needs exactly 4 indices: frame,id,x,y")
    rows = []
    isfinite = math.isfinite
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", "%")):
            continue
        toks = line.split()
        if override is not None:
            cols = override
        elif len(toks) >= 8:
            cols = (0, 1, 2, 4)
        elif len(toks) == 4:
            cols = (0, 1, 2, 3)
        else:
            raise ParseError(lineno, f"expected 4 or >= 8 columns, got {len(toks)}")
        if max(cols) >= len(toks):
            raise ParseError(lineno, f"column {max(cols)} missing in {len(toks)}-column row")
        try:
            vals = [float(toks[c]) for c in cols]
        except ValueError:
            bad = next(toks[c] for c in cols
                       if not _is_number(toks[c]))
            raise ParseError(lineno, f"malformed numeric field {bad!r}") from None
        frame_f, id_f, x, y = vals
        if not (isfinite(x) and isfinite(y) and isfinite(frame_f) and isfinite(id_f)):
            raise ParseError(lineno, "numeric fields must be finite")
        frame = int(round(frame_f))
        agent = int(round(id_f))
        if abs(frame_f - frame) > 1e-6 or abs(id_f - agent) > 1e-6:
            raise ParseError(lineno, "frame and id columns must be integers")
        if frame < 0:
            raise ParseError(lineno, f"negative frame {frame}")
        rows.append(RawAnnotationRow(frame, agent, x, y))
    return rows


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def to_canonical(rows: list, homography: Homography | None, source_fps: float,
                 cfg: Config) -> tuple:
    """Convert parsed annotation rows to canonical CSV bytes plus a summary.

    Rows are grouped per agent, transformed to meters, resampled onto the
    shared step grid, and emitted sorted by (agent_id, frame). A temporal gap
    longer than two steps splits a track; the later parts get ``#2``, ``#3``
    suffixes on the agent id. Tracks that end up shorter than 2 grid points
    are dropped and counted.
    """
    if not (source_fps > 0 and math.isfinite(source_fps)):
        raise ValueError("source_fps must be positive and finite")
    per_agent: dict = {}
    for row in rows:
        per_agent.setdefault(row.agent_id, []).append(row)
    tracks = []
    n_dropped = 0
    n_split = 0
    gap_limit = 2.0 * cfg.step_duration * (1.0 + _GAP_TOL)
    for agent_id in sorted(per_agent):
        agent_rows = sorted(per_agent[agent_id], key=lambda r: r.frame)
        frames = [r.frame for r in agent_rows]
        if len(set(frames)) != len(frames):
            raise DataError(f"agent {agent_id} has duplicate frames in the source")
        times = np.array(frames, dtype=np.float64) / source_fps
        points = np.array([[r.raw_x, r.raw_y] for r in agent_rows])
        if homography is not None:
            points = np.array([apply_homography(homography, p) for p in points])
        segments = _split_on_gaps(times, points, gap_limit)
        part = 0
        for seg_times, seg_points in segments:
            if len(seg_times) < 2:
                n_dropped += 1
                continue
            raw = Trajectory(str(agent_id), np.arange(len(seg_times)), seg_times, seg_points)
            res = resample_trajectory(raw, cfg.step_duration)
            if len(res) < 2:
                n_dropped += 1
                continue
            part += 1
            name = str(agent_id) if part == 1 else f"{agent_id}#{part}"
            if part > 1:
                n_split += 1
            tracks.append(Trajectory(name, res.frames, res.times, res.positions))
    csv_bytes = write_canonical_csv(tracks)
    summary = IngestSummary(n_rows=len(rows), n_source_agents=len(per_agent),
                            n_tracks=len(tracks), n_dropped=n_dropped, n_split=n_split)
    return csv_bytes, summary


def _split_on_gaps(times: np.ndarray, points: np.ndarray, gap_limit: float) -> list:
    segments = []
    start = 0
    for i in range(1, len(times)):
        if times[i] - times[i - 1] > gap_limit:
            segments.append((times[start:i], points[start:i]))
            start = i
    segments.append((times[start:], points[start:]))
    return segments
