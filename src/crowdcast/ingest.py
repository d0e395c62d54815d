"""Dataset ingestion: annotation matrices to canonical CSV.

Parses the whitespace-separated annotation matrices shipped with the common
public pedestrian datasets into one (N, 4) array of (frame, id, x, y) rows,
each block of lines in one pass of numpy's C text reader. Then, in array
passes over the whole file: maps every point to meters with one homography
product per file, checks every agent for faults at once, cuts the tracks at
long gaps, resamples every part onto the shared step grid in one pass, and
emits the canonical ``frame,agent_id,x,y`` CSV. Of several faults the first
agent's, in id order, is the one reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SCALE, Config, DataError, Trajectory, resample_parts, write_canonical_csv

# a single missing annotation step must interpolate, not split, so the gap
# threshold gets a little slack against frame-rate rounding
_GAP_TOL = 1e-3

# lines per C-reader pass of parse_obsmat: a block the reader refuses is
# walked again line by line, so one odd line costs at most a block's walk
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
    mapped, far = _homography_product(h, points)
    if far.any():
        x, y = points[np.argmax(far)]
        raise DataError(f"point ({float(x)}, {float(y)}) maps to infinity")
    return mapped


def _homography_product(h: Homography, points: np.ndarray) -> tuple:
    """The (N, 2) ``points`` mapped by one stacked product, and the mask of
    those at infinity (``|w| < 1e-12``), whose mapped rows mean nothing."""
    uvw = np.ones((len(points), 3, 1))
    uvw[:, :2, 0] = points
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        uvw = np.matmul(h.matrix, uvw)[:, :, 0]
        return uvw[:, :2] / uvw[:, 2:], np.abs(uvw[:, 2]) < 1e-12


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
    ``column_map`` overrides the detection with four comma-separated
    non-negative column indices for frame, id, x, y; any other map raises
    ``ValueError``. The result is an (N, 4) float array of
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
            override = ()
        if len(override) != 4 or min(override) < 0:
            raise ValueError(f"bad column map {column_map!r}: need 4 non-negative "
                             f"indices frame,id,x,y, e.g. 0,1,2,4")
    lines = data.splitlines()
    blocks = [np.empty((0, 4))]
    for lo in range(0, len(lines), _PARSE_BLOCK):
        block = lines[lo:lo + _PARSE_BLOCK]
        rows = _parse_block(block, override)
        blocks.append(rows if rows is not None else _parse_lines(block, override, lo))
    return np.concatenate(blocks)


def _parse_block(lines: list, override: tuple | None) -> np.ndarray | None:
    """The rows of ``lines`` in one pass of numpy's C text reader, or None
    when the reader refuses the block (a token it cannot convert, rows of
    several widths when no column map is given, a mapped column past a
    row's end) or a row has an unknown width or a value the line walk
    rejects. The reader gives every token it accepts the double Python's
    ``float`` gives it; it refuses underscores and non-ASCII digits, which
    ``float`` accepts, so those blocks are walked."""
    # the line walk's rule: blank lines and whole-line comments hold no row
    # (the empty prefix of a blank line is in "#%" too)
    body = [line for line in lines if line.strip()[:1] not in "#%"]
    if not body:
        return np.empty((0, 4))
    try:
        vals = np.loadtxt(body, comments=None, ndmin=2, usecols=override)
    except ValueError:
        return None
    if override is None:
        width = vals.shape[1]
        if width != 4 and width < 8:
            return None
        vals = vals[:, [0, 1, 2, 3 if width == 4 else 4]]
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
        vals = []
        for c in cols:
            try:
                vals.append(float(toks[c]))
            except ValueError:
                raise ParseError(lineno, f"malformed numeric field {toks[c]!r}") from None
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


def to_canonical(rows: np.ndarray, homography: Homography, source_fps: float,
                 cfg: Config) -> tuple:
    """Convert parsed (N, 4) annotation rows to canonical CSV and a summary.

    Rows are grouped per agent, transformed to meters, resampled onto the
    shared step grid, and emitted sorted by (agent_id, frame). A temporal gap
    longer than two steps splits a track; the later parts get ``#2``, ``#3``
    suffixes on the agent id. Tracks that end up shorter than 2 grid points
    are dropped and counted. Every point must map within ±``SCALE`` m.

    Of several faulty agents the first in id order is reported, with the
    first of its faults in this order: a duplicate frame, a time beyond the
    float range, a point at infinity, a point beyond ±``SCALE`` m, and two
    times, source or grid, that round to one.
    """
    if not (source_fps > 0 and math.isfinite(source_fps)):
        raise ValueError("source_fps must be positive and finite")
    # the passes' arrays are freed before the CSV text is built
    tracks, summary = _canonical_tracks(rows, homography, source_fps, cfg)
    return write_canonical_csv(tracks), summary


def _canonical_tracks(rows: np.ndarray, homography: Homography, source_fps: float,
                      cfg: Config) -> tuple:
    """The tracks of :func:`to_canonical`, each part of an agent's track
    resampled, and its summary."""
    # the product comes first, while little else is held, and each fault
    # mask lives only in _first_fault: the passes' high-water mark stays low
    points, far = _homography_product(homography, rows[:, 2:])
    order = np.lexsort((rows[:, 0], rows[:, 1]))
    points = points[order]
    agent_ids, starts, owner, sizes = np.unique(rows[order, 1], return_index=True,
                                                return_inverse=True, return_counts=True)
    with np.errstate(over="ignore"):
        times = rows[order, 0] / source_fps
    found = _first_fault(rows[order, 0], times, points, far[order], owner,
                         starts + sizes - 1)
    # every agent before the first faulty one is cut at its gaps and
    # resampled; one whose grid times round together comes first
    clean = len(rows) if found is None else int(starts[found[0]])
    agent, t = owner[:clean], times[:clean]
    gap_limit = 2.0 * cfg.step_duration * (1.0 + _GAP_TOL)
    new_part = np.ones(clean, dtype=bool)
    new_part[1:] = (agent[1:] != agent[:-1]) | (np.diff(t) > gap_limit)
    part_starts = np.flatnonzero(new_part)
    lengths = np.diff(np.append(part_starts, clean))
    long = lengths >= 2
    points = points[:clean]
    if not long.all():      # else every row is resampled, with no copy
        take = np.repeat(long, lengths)
        t, points = t[take], points[take]
    grid_frames, grid_times, grid_points, counts = resample_parts(
        t, points, lengths[long], cfg.step_duration)
    part_agent = agent[part_starts[long]]
    grid_part = np.repeat(np.arange(len(counts)), counts)
    collide = (grid_part[1:] == grid_part[:-1]) & ~(grid_times[1:] > grid_times[:-1])
    if collide.any():
        found = (part_agent[grid_part[np.argmax(collide)]], 4, 0)
    if found is not None:
        a, kind, i = found
        raise DataError(_fault_message(kind, int(agent_ids[a]), rows[order[i]], source_fps))
    # parts of 2 or more grid points are tracks, numbered within their agent
    kept = counts >= 2
    kept_agent = part_agent[kept]
    number = np.arange(len(kept_agent)) - np.searchsorted(kept_agent, kept_agent) + 1
    ends = np.cumsum(counts)
    for arr in (grid_frames, grid_times, grid_points):
        arr.setflags(write=False)
    tracks = [Trajectory.trusted(f"{a}#{k}" if k > 1 else str(a), grid_frames[lo:hi],
                                 grid_times[lo:hi], grid_points[lo:hi])
              for a, k, lo, hi in zip(map(int, agent_ids[kept_agent].tolist()),
                                      number.tolist(), (ends - counts)[kept].tolist(),
                                      ends[kept].tolist())]
    return tracks, IngestSummary(n_rows=len(rows), n_source_agents=len(agent_ids),
                                 n_tracks=len(tracks),
                                 n_dropped=int((~long).sum() + (~kept).sum()),
                                 n_split=int((number > 1).sum()))


def _first_fault(frames: np.ndarray, times: np.ndarray, points: np.ndarray,
                 far: np.ndarray, owner: np.ndarray, last: np.ndarray) -> tuple | None:
    """(agent, fault kind, row) of the first faulty agent of the rows
    sorted by agent and frame, with the first of its faults in the order
    of :func:`to_canonical`, or None. ``owner`` holds each row's agent and
    ``last`` each agent's last row; an agent's time overflows when its last
    one does, and its first row that does is named."""
    same = owner[1:] == owner[:-1]      # rows i and i + 1 are one agent's
    faults = [np.append(False, same & (frames[1:] == frames[:-1])),
              ~np.isfinite(times) & ~np.isfinite(times[last])[owner],
              far,
              ~(np.abs(points) <= SCALE).all(axis=1),
              np.append(False, same & ~(times[1:] > times[:-1]))]
    # rows are in agent order, so a fault's first row is in its first agent
    return min([(owner[np.argmax(mask)], kind, int(np.argmax(mask)))
                for kind, mask in enumerate(faults) if mask.any()], default=None)


def _fault_message(kind: int, agent_id: int, row: np.ndarray, source_fps: float) -> str:
    """The message of fault ``kind`` of :func:`_first_fault` for agent
    ``agent_id``, whose first faulty source row is ``row``."""
    frame, _, x, y = row
    if kind == 0:
        return f"agent {agent_id} has duplicate frames in the source"
    if kind == 1:
        return f"agent {agent_id}: frame {int(frame)} at {source_fps} fps overflows the time axis"
    if kind == 2:
        return f"point ({float(x)}, {float(y)}) maps to infinity"
    if kind == 3:
        return f"agent {agent_id}: point ({x}, {y}) maps beyond ±{SCALE:g} m"
    return f"times of agent {str(agent_id)!r} must strictly increase"
