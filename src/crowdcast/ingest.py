"""Dataset ingestion: annotation matrices to canonical CSV.

Parses the whitespace-separated annotation matrices shipped with the common
public pedestrian datasets into one (N, 4) array of (frame, id, x, y) rows,
maps each agent's points to meters with one stacked homography product, cuts
the track at long gaps, resamples every part onto the shared step grid in one
pass, and emits the canonical ``frame,agent_id,x,y`` CSV. Agents and parts are
handled in order, so of several faults the first is the one reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SCALE, Config, DataError, Trajectory, resample_trajectory, write_canonical_csv

# a single missing annotation step must interpolate, not split, so the gap
# threshold gets a little slack against frame-rate rounding
_GAP_TOL = 1e-3

# lines per array pass of parse_obsmat: bounds the token lists held at once
_PARSE_BLOCK = 4096


class ParseError(ValueError):
    """Malformed annotation input; carries the 1-based source line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Homography:
    """Invertible 3x3 perspective transform from source units to meters."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64).reshape(3, 3)
        # numpy takes log(0) at a zero pivot, which flags a division; det is 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            det = np.linalg.det(m)
            # |det| over the row norms' product, so no uniform scaling decides:
            # the determinant of the unit-length rows, safe from over/underflow
            norms = np.hypot.reduce(m, axis=1)
            relative = np.linalg.det(m / norms[:, None]) if norms.all() else 0.0
        if not math.isfinite(det):
            raise DataError("homography matrix too large: its determinant overflows")
        if abs(relative) <= 1e-12:
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


def apply_homography(h: Homography, points: np.ndarray) -> np.ndarray:
    """Apply the perspective transform to an (N, 2) array of points.

    One stacked product ``H @ [x, y, 1]`` gives every point the same bits as
    a product per point would. A point that overflows comes out non-finite,
    and :func:`to_canonical` rejects it as a data error.
    """
    ones = np.ones((len(points), 1))
    with np.errstate(over="ignore", invalid="ignore"):
        u, v, w = np.matmul(h.matrix, np.hstack([points, ones])[:, :, None])[:, :, 0].T
        far = np.flatnonzero(np.abs(w) < 1e-12)
        if far.size:
            x, y = points[far[0]]
            raise DataError(f"point ({float(x)}, {float(y)}) maps to infinity")
        return np.column_stack([u / w, v / w])


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


def parse_obsmat(data, column_map: str | None = None) -> np.ndarray:
    """Parse a whitespace-separated annotation matrix.

    Two layouts are recognized by column count: the 8-or-more column
    observation-matrix convention (frame, id, x, ., y, ...) where position
    columns are 2 and 4, and the plain 4-column (frame, id, x, y) layout.
    ``column_map`` overrides the detection with four comma-separated column
    indices for frame, id, x, y. The result is an (N, 4) float array of
    (frame, id, x, y) rows in file order, never reordered or deduplicated
    here; frame and id hold integers.
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
    lines = data.splitlines()
    blocks = [np.empty((0, 4))]
    for lo in range(0, len(lines), _PARSE_BLOCK):
        block = lines[lo:lo + _PARSE_BLOCK]
        rows = _parse_block(block, override)
        blocks.append(rows if rows is not None else _parse_lines(block, override, lo))
    return np.concatenate(blocks)


def _parse_block(lines: list, override: tuple | None) -> np.ndarray | None:
    """The rows of ``lines`` in one array pass, or None when the block has
    no row, rows of several widths, a column out of range or any value the
    line walk would reject. Casting object-dtype tokens to float calls
    Python's ``float`` on each, so no token passes that ``float`` refuses."""
    toks = [t for t in map(str.split, lines) if t and t[0][0] not in "#%"]
    widths = set(map(len, toks))
    if len(widths) != 1:
        return None
    (width,) = widths
    cols = override or ((0, 1, 2, 4) if width >= 8 else (0, 1, 2, 3) if width == 4 else ())
    if not (cols and all(0 <= c < width for c in cols)):
        return None
    try:
        vals = np.array(toks, dtype=object)[:, list(cols)].astype(np.float64)
    except ValueError:
        return None
    if not np.isfinite(vals).all():
        return None
    whole = np.rint(vals[:, :2])
    if not ((np.abs(vals[:, :2] - whole) <= 1e-6).all() and (whole[:, 0] >= 0.0).all()):
        return None
    # + 0.0 turns the -0.0 of a frame or id just below zero into the 0.0
    # that int(round(...)) gives
    vals[:, :2] = whole + 0.0
    return vals


def _parse_lines(lines: list, override: tuple | None, offset: int) -> np.ndarray:
    """The rows of ``lines`` one line at a time, raising ``ParseError`` at
    the first bad line; ``offset`` is the number of lines before them."""
    rows = []
    isfinite = math.isfinite
    for lineno, raw in enumerate(lines, start=offset + 1):
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
        rows.append((frame, agent, x, y))
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def to_canonical(rows: np.ndarray, homography: Homography, source_fps: float,
                 cfg: Config) -> tuple:
    """Convert parsed (N, 4) annotation rows to canonical CSV and a summary.

    Rows are grouped per agent, transformed to meters, resampled onto the
    shared step grid, and emitted sorted by (agent_id, frame). A temporal gap
    longer than two steps splits a track; the later parts get ``#2``, ``#3``
    suffixes on the agent id. Tracks that end up shorter than 2 grid points
    are dropped and counted. Every point must map within ±``SCALE`` m.
    """
    if not (source_fps > 0 and math.isfinite(source_fps)):
        raise ValueError("source_fps must be positive and finite")
    rows = rows[np.lexsort((rows[:, 0], rows[:, 1]))]
    agent_ids, starts = np.unique(rows[:, 1], return_index=True)
    tracks = []
    n_dropped = n_split = 0
    gap_limit = 2.0 * cfg.step_duration * (1.0 + _GAP_TOL)
    for agent, block in zip(agent_ids, np.split(rows, starts[1:])):
        agent_id = int(agent)
        frames = block[:, 0]
        if np.any(np.diff(frames) == 0):
            raise DataError(f"agent {agent_id} has duplicate frames in the source")
        with np.errstate(over="ignore"):
            times = frames / source_fps
        if not np.isfinite(times[-1]):
            frame = int(frames[np.flatnonzero(~np.isfinite(times))[0]])
            raise DataError(f"agent {agent_id}: frame {frame} at {source_fps} fps "
                            f"overflows the time axis")
        points = apply_homography(homography, block[:, 2:])
        beyond = np.flatnonzero(~np.all(np.abs(points) <= SCALE, axis=1))
        if beyond.size:
            x, y = block[beyond[0], 2:]
            raise DataError(f"agent {agent_id}: point ({x}, {y}) maps beyond ±{SCALE:g} m")
        cuts = np.flatnonzero(np.diff(times) > gap_limit) + 1
        part = 0
        for seg_times, seg_points in zip(np.split(times, cuts), np.split(points, cuts)):
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
    summary = IngestSummary(n_rows=len(rows), n_source_agents=len(agent_ids),
                            n_tracks=len(tracks), n_dropped=n_dropped, n_split=n_split)
    return csv_bytes, summary
