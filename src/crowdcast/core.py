"""Core domain types, trajectory arithmetic, and the historical-track database.

All positions are 2D world coordinates in meters. Canonical trajectories live
on a shared uniform time grid: frame k corresponds to time k * step_duration
seconds, so frame indices are comparable across agents. Raw (pre-resampling)
trajectories may carry arbitrary timestamps.

Everything here is immutable after construction and safe to share between
workers. The database is build-once, read-many.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

CANONICAL_HEADER = "frame,agent_id,x,y"

# tolerance when deciding whether a timestamp lies exactly on the step grid
_GRID_EPS = 1e-9

# largest frame index a canonical CSV may hold: frames are int64 arrays
_MAX_FRAME = np.iinfo(np.int64).max


class DataError(ValueError):
    """Semantically invalid input data (trajectory, CSV, or scene)."""


class TooFewPointsError(DataError):
    """Operation needs more trajectory points than were given."""


@dataclass(frozen=True)
class Config:
    """Pipeline parameters.

    Distances are meters, durations seconds, mass kilograms. The two intimacy
    thresholds follow common proxemics: pairs staying within
    ``intimate_distance`` are very close, within ``personal_distance``
    generally close. ``min_overlap_frames`` is the number of co-present frames
    required before a pair can be considered close at all, which keeps
    momentary passers-by from forming groups.
    """

    known_time_steps: int = 30
    predict_time_steps: int = 30
    k_candidates: int = 5
    person_radius: float = 0.3
    step_duration: float = 0.3999
    neighborhood_range: float = 10.0
    person_mass: float = 60.0
    intimate_distance: float = 0.45
    personal_distance: float = 1.2
    min_overlap_frames: int = 10
    direction_weight: float = 1.0

    def __post_init__(self) -> None:
        for name in ("intimate_distance", "personal_distance", "direction_weight",
                     "person_radius", "step_duration", "neighborhood_range",
                     "person_mass"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (0.0 < self.intimate_distance < self.personal_distance):
            raise ValueError("need 0 < intimate_distance < personal_distance")
        if self.k_candidates < 1:
            raise ValueError("k_candidates must be >= 1")
        for name in ("known_time_steps", "predict_time_steps", "person_radius",
                     "step_duration", "neighborhood_range", "person_mass"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be strictly positive")
        if self.min_overlap_frames < 1:
            raise ValueError("min_overlap_frames must be >= 1")
        if self.known_time_steps < 2:
            # a velocity, and with it emotion and retrieval, needs two points
            raise ValueError("known_time_steps must be >= 2")


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed track of one agent or one group center.

    ``frames`` are strictly increasing integers, ``times`` the matching
    timestamps in seconds, strictly increasing too, ``positions`` an (N, 2)
    array in meters. Arrays are frozen after construction.
    """

    agent_id: str
    frames: np.ndarray
    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self) -> None:
        frames = np.asarray(self.frames, dtype=np.int64)
        times = np.asarray(self.times, dtype=np.float64)
        positions = np.asarray(self.positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise DataError(f"positions must be (N, 2), got {positions.shape}")
        if not (len(frames) == len(times) == len(positions)):
            raise DataError("frames, times, positions must have equal length")
        if not np.all(frames[1:] > frames[:-1]):
            raise DataError(f"frames of agent {self.agent_id!r} must strictly increase")
        if not np.all(times[1:] > times[:-1]):
            # velocities divide by time steps; huge frame numbers can round
            # two frames to one time
            raise DataError(f"times of agent {self.agent_id!r} must strictly increase")
        for arr, name in ((frames, "frames"), (times, "times"), (positions, "positions")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_frame_grid(cls, agent_id: str, frames, positions,
                        step_duration: float) -> "Trajectory":
        """Build a canonical trajectory where time is frame * step_duration."""
        frames = np.asarray(frames, dtype=np.int64)
        return cls(agent_id, frames, frames * step_duration, positions)

    def __len__(self) -> int:
        return len(self.frames)

    def index_of_frame(self, frame: int) -> int:
        i = int(np.searchsorted(self.frames, frame))
        if i >= len(self.frames) or self.frames[i] != frame:
            raise DataError(f"frame {frame} not in trajectory of agent {self.agent_id!r}")
        return i

    def has_frame(self, frame: int) -> bool:
        i = int(np.searchsorted(self.frames, frame))
        return i < len(self.frames) and self.frames[i] == frame

    def position_at(self, frame: int) -> np.ndarray:
        return self.positions[self.index_of_frame(frame)]

    def restrict_frames(self, first: int, last: int) -> "Trajectory":
        """Sub-trajectory with frames in the inclusive range [first, last]."""
        mask = (self.frames >= first) & (self.frames <= last)
        return Trajectory(self.agent_id, self.frames[mask], self.times[mask],
                          self.positions[mask])


def velocity_at(traj: Trajectory, frame) -> np.ndarray:
    """Velocity in m/s at a frame, from the actual time deltas of the track.

    Uses the backward difference to the previous point so the value never
    depends on the future; the very first point falls back to the forward
    difference. ``frame`` may also be a sequence of frames, giving an
    (n, 2) array with one velocity per frame.
    """
    if len(traj) < 2:
        raise TooFewPointsError(
            f"agent {traj.agent_id!r} needs >= 2 points for a velocity query")
    i = np.searchsorted(traj.frames, frame)
    missing = np.asarray(frame)[traj.frames[np.minimum(i, len(traj) - 1)] != frame]
    if missing.size:
        raise DataError(
            f"frame {missing[0]} not in trajectory of agent {traj.agent_id!r}")
    j1 = np.maximum(i, 1)
    dt = traj.times[j1] - traj.times[j1 - 1]
    return (traj.positions[j1] - traj.positions[j1 - 1]) / dt[..., None]


def average_direction(traj: Trajectory, step: int) -> np.ndarray:
    """Mean displacement from all earlier points to the step-th point.

    ``step`` counts points from 1 at the start of the track. The result is the
    average of (p_step - p_k) over k = 1 .. step-1 and is left un-normalized;
    callers normalize where a unit direction is needed. It is row ``step - 1``
    of :func:`_directions`, so the database's directions equal it bit for bit.
    """
    if step < 2:
        raise TooFewPointsError("average direction needs at least one prior point")
    if step > len(traj):
        raise DataError(f"step {step} out of range for {len(traj)}-point track")
    return _directions(traj.positions[:step])[-1]


def _directions(positions: np.ndarray) -> np.ndarray:
    """Average direction at every point of one track, from one sequential
    prefix sum: row i is (i·d_i − (d_0 + … + d_{i−1})) / i with d = p − p_0,
    the mean of p_i − p_k over k < i (row 0 is zero). Row i depends only on
    points 0 .. i, the cost is linear in the length, and a translation that
    keeps the coordinates exact leaves every row unchanged."""
    d = positions - positions[0]
    before = np.concatenate([d[:1], np.cumsum(d[:-1], axis=0)])  # d_0 is 0
    i = np.arange(len(d), dtype=np.float64)[:, None]
    return (i * d - before) / np.maximum(i, 1.0)


def resample_trajectory(traj: Trajectory, step_duration: float) -> Trajectory:
    """Linearly interpolate a track onto the uniform step grid.

    The output contains every grid point k * step_duration inside the track's
    time range, with frame index k. Input samples that already lie on the grid
    are copied bit-for-bit (which makes resampling idempotent); everything
    else is linearly interpolated between its neighbors. A range that does not
    start or end on the grid is trimmed to the interior grid points, so the
    result can have fewer than 2 points.
    """
    if step_duration <= 0:
        raise ValueError("step_duration must be > 0")
    if len(traj) < 2:
        raise TooFewPointsError(
            f"agent {traj.agent_id!r} needs >= 2 points to resample")
    t0 = float(traj.times[0])
    t1 = float(traj.times[-1])
    k0 = math.ceil(t0 / step_duration - _GRID_EPS)
    k1 = math.floor(t1 / step_duration + _GRID_EPS)
    frames = []
    positions = []
    times = traj.times
    for k in range(k0, k1 + 1):
        t = k * step_duration
        j = int(np.searchsorted(times, t))
        snap = None
        for cand in (j, j - 1):
            if 0 <= cand < len(times) and abs(times[cand] - t) <= _GRID_EPS * max(1.0, abs(t)):
                snap = cand
                break
        if snap is not None:
            positions.append(traj.positions[snap])
        elif j == 0:
            positions.append(traj.positions[0])
        elif j >= len(times):
            positions.append(traj.positions[-1])
        else:
            w = (t - times[j - 1]) / (times[j] - times[j - 1])
            # finite neighbors can interpolate to a non-finite point; the
            # canonical writer rejects it as a data error
            with np.errstate(over="ignore", invalid="ignore"):
                positions.append(traj.positions[j - 1]
                                 + w * (traj.positions[j] - traj.positions[j - 1]))
        frames.append(k)
    if frames:
        pos_arr = np.vstack(positions)
    else:
        pos_arr = np.empty((0, 2))
    return Trajectory.from_frame_grid(traj.agent_id, np.array(frames, dtype=np.int64),
                                      pos_arr, step_duration)


# ---------------------------------------------------------------------------
# scene geometry

@dataclass(frozen=True)
class SceneGeometry:
    """Static obstacles of a scene: line segments and convex polygons.

    ``bounds`` is the axis-aligned scene rectangle [[xmin, ymin], [xmax, ymax]].
    """

    segments: tuple = ()   # each (2, 2) array: two endpoints
    polygons: tuple = ()   # each (V, 2) array: convex ring, V >= 3
    bounds: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))

    def __post_init__(self) -> None:
        segs = tuple(_edges_fit(np.asarray(s, dtype=np.float64).reshape(2, 2), closed=False)
                     for s in self.segments)
        polys = [_convex_polygon(p) for p in self.polygons]
        bounds = np.asarray(self.bounds, dtype=np.float64).reshape(2, 2)
        verts = [s.reshape(-1, 2) for s in segs] + polys
        if verts and np.any(bounds[1] > bounds[0]):
            allv = np.vstack(verts)
            if np.any(allv < bounds[0] - 1e-9) or np.any(allv > bounds[1] + 1e-9):
                raise DataError("obstacle vertices lie outside the scene bounds")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "polygons", tuple(polys))
        bounds.setflags(write=False)
        object.__setattr__(self, "bounds", bounds)

    @classmethod
    def empty(cls) -> "SceneGeometry":
        return cls()

    @property
    def is_empty(self) -> bool:
        return not self.segments and not self.polygons

    def obstacle_contacts(self, points) -> tuple:
        """Nearest boundary point and signed distance of every obstacle to
        every point of ``points``, an (M, 2) array.

        Returns (O, M, 2) nearest points and (O, M) distances, segments
        first, then polygons, each in scene order. A polygon's nearest point
        lies on the first of its nearest edges, and its distance is negative
        when the point lies inside it.
        """
        p = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        near, dist = [], []
        for seg in self.segments:
            q = _nearest_on_segment(p, seg[0], seg[1])
            near.append(q)
            dist.append(_length(p - q))
        cols = np.arange(len(p))
        for ring in self.polygons:
            a = ring[:, None]
            b = np.roll(ring, -1, axis=0)[:, None]
            q = _nearest_on_segment(p, a, b)
            d = _length(p - q)
            first = np.argmin(d, axis=0)
            # a point is inside when every edge whose cross product clears
            # 1e-15 turns the same way, and at least one does
            cross = ((b[..., 0] - a[..., 0]) * (p[:, 1] - a[..., 1])
                     - (b[..., 1] - a[..., 1]) * (p[:, 0] - a[..., 0]))
            counted = ~(np.abs(cross) < 1e-15)
            left = (counted & (cross > 0)).any(axis=0)
            right = (counted & ~(cross > 0)).any(axis=0)
            near.append(q[first, cols])
            dist.append(np.where(left != right, -d[first, cols], d[first, cols]))
        return (np.array(near).reshape(len(near), len(p), 2),
                np.array(dist).reshape(len(dist), len(p)))


def _edges_fit(points: np.ndarray, closed: bool) -> np.ndarray:
    """The points, unchanged; DataError when the squared length of an edge
    between consecutive points overflows, as no distance to it is finite."""
    ends = np.roll(points, -1, axis=0) if closed else points[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        edges = ends - points[:len(ends)]
        fits = np.all(np.isfinite(np.vecdot(edges, edges)))
    if not fits:
        raise DataError("obstacle edge too long: its squared length overflows")
    return points


def _convex_polygon(p) -> np.ndarray:
    """The ring as a float array; DataError unless it is a simple convex
    polygon of non-zero area, which the inside test and the sign of the
    obstacle force assume. Collinear and repeated vertices are allowed."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] < 3 or p.shape[1] != 2:
        raise DataError("polygon needs at least 3 vertices of 2 coordinates")
    _edges_fit(p, closed=True)
    edges = np.roll(p, -1, axis=0) - p
    edges = edges[np.any(edges != 0.0, axis=1)]
    nxt = np.roll(edges, -1, axis=0)
    cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
    dot = np.sum(edges * nxt, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.linalg.norm(edges, axis=1) * np.linalg.norm(nxt, axis=1)
        area = 0.5 * float(np.sum(p[:, 0] * np.roll(p[:, 1], -1)
                                  - np.roll(p[:, 0], -1) * p[:, 1]))
        total_scale = float(np.sum(scale))
    if not (math.isfinite(area) and math.isfinite(total_scale)):
        raise DataError("polygon too large: its area overflows")
    turning = cross[np.abs(cross) > 1e-12 * scale]
    if abs(area) <= 1e-12 * total_scale:
        raise DataError("polygon has zero area")
    # one sign of turn, and one full revolution: a star winds twice
    winding = float(np.sum(np.arctan2(cross, dot))) / (2.0 * math.pi)
    one_way = np.all(turning > 0) or np.all(turning < 0)
    if not one_way or abs(abs(winding) - 1.0) > 1e-6:
        raise DataError("polygon is not convex")
    return p


def _nearest_on_segment(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nearest point to p on each segment a-b, broadcast over all three; a
    segment of squared length below 1e-18 stands for its point a."""
    ab = b - a
    denom = np.vecdot(ab, ab)
    short = denom < 1e-18
    t = np.vecdot(p - a, ab) / np.where(short, 1.0, denom)
    t = np.where(t > 0.0, t, 0.0)
    t = np.where(t < 1.0, t, 1.0)
    return np.where(short[..., None], a, a + t[..., None] * ab)


def _length(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(v, v))


def parse_scene(text: str) -> SceneGeometry:
    """Parse the plain-text scene format.

    One obstacle per line, coordinates in meters:

        seg x1 y1 x2 y2
        poly x1 y1 x2 y2 x3 y3 ...
        bounds xmin ymin xmax ymax

    Blank lines and lines starting with ``#`` are ignored. ``bounds`` is
    optional; when absent the obstacle bounding box (padded by 1 m) is used.
    """
    segments = []
    polygons = []
    bounds = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *vals = line.split()
        try:
            nums = [float(v) for v in vals]
            if not all(math.isfinite(v) for v in nums):
                raise DataError("numbers must be finite")
            if kind == "seg":
                if len(nums) != 4:
                    raise DataError("seg needs 4 numbers")
                segments.append(_edges_fit(np.array(nums).reshape(2, 2), closed=False))
            elif kind == "poly":
                if len(nums) < 6 or len(nums) % 2:
                    raise DataError("poly needs >= 3 x,y pairs")
                polygons.append(_convex_polygon(np.array(nums).reshape(-1, 2)))
            elif kind == "bounds":
                if len(nums) != 4:
                    raise DataError("bounds needs 4 numbers")
                bounds = np.array(nums).reshape(2, 2)
            else:
                raise DataError(f"unknown entry {kind!r}")
        except DataError as exc:
            raise DataError(f"scene line {lineno}: {exc}") from None
        except ValueError as exc:
            raise DataError(f"scene line {lineno}: bad number ({exc})") from None
    if bounds is None:
        verts = [s for s in segments] + polygons
        if verts:
            allv = np.vstack(verts)
            bounds = np.vstack([allv.min(axis=0) - 1.0, allv.max(axis=0) + 1.0])
        else:
            bounds = np.zeros((2, 2))
    return SceneGeometry(tuple(segments), tuple(polygons), bounds)


# ---------------------------------------------------------------------------
# canonical CSV interchange

def natural_key(agent_id: str):
    """Sort key treating digit runs numerically, so 'a2' sorts before 'a10'."""
    return tuple(int(tok) if tok.isdigit() else tok
                 for tok in re.split(r"(\d+)", agent_id))


def write_canonical_csv(tracks: list) -> bytes:
    """Serialize trajectories as the canonical CSV interchange format.

    UTF-8, header ``frame,agent_id,x,y``, frames as non-negative integers,
    coordinates as finite shortest round-trip decimals, rows sorted by
    (agent_id, frame).
    """
    lines = [CANONICAL_HEADER]
    for traj in sorted(tracks, key=lambda tr: natural_key(tr.agent_id)):
        if not np.all(np.isfinite(traj.positions)):
            raise DataError(f"agent {traj.agent_id!r}: non-finite coordinate")
        for i in range(len(traj)):
            f = int(traj.frames[i])
            if f < 0:
                raise DataError(f"agent {traj.agent_id!r}: negative frame {f}")
            x, y = traj.positions[i]
            lines.append(f"{f},{traj.agent_id},{float(x)!r},{float(y)!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def read_canonical_csv(data, step_duration: float) -> list:
    """Parse canonical CSV bytes or text into trajectories on the step grid."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    lines = data.splitlines()
    if not lines or lines[0].strip() != CANONICAL_HEADER:
        raise DataError(f"canonical CSV must start with header {CANONICAL_HEADER!r}")
    per_agent: dict = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise DataError(f"CSV line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            frame = int(parts[0])
            x = float(parts[2])
            y = float(parts[3])
        except ValueError as exc:
            raise DataError(f"CSV line {lineno}: {exc}") from None
        if frame < 0:
            raise DataError(f"CSV line {lineno}: negative frame {frame}")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DataError(f"CSV line {lineno}: coordinates must be finite")
        per_agent.setdefault(parts[1], []).append((frame, x, y))
    tracks = []
    for agent_id in sorted(per_agent, key=natural_key):
        rows = sorted(per_agent[agent_id])
        if rows[-1][0] > _MAX_FRAME:
            raise DataError(f"agent {agent_id!r}: frame {rows[-1][0]} is out of range")
        frames = np.array([r[0] for r in rows], dtype=np.int64)
        if len(np.unique(frames)) != len(frames):
            raise DataError(f"agent {agent_id!r} has duplicate frames")
        positions = np.array([[r[1], r[2]] for r in rows])
        tracks.append(Trajectory.from_frame_grid(agent_id, frames, positions, step_duration))
    return tracks


# ---------------------------------------------------------------------------
# historical-track database

class TrajectoryDatabase:
    """Historical track samples as read-only arrays, one row per sample.

    Every track point with at least two earlier points is a sample, stored as
    its position, its un-normalized average movement direction, the last
    point of its source track (the destination) and its 1-based ``step`` in
    that track. ``agent_codes`` index ``agent_ids``, which lists the source
    agents in natural order, so comparing codes compares ids.
    """

    def __init__(self, tracks: list):
        tracks = [tr for tr in tracks if len(tr) >= 3]
        self.agent_ids = tuple(sorted({tr.agent_id for tr in tracks},
                                      key=lambda a: (natural_key(a), a)))
        self._codes = {aid: c for c, aid in enumerate(self.agent_ids)}
        lengths = np.array([len(tr) for tr in tracks], dtype=np.int64)
        points = np.concatenate([np.empty((0, 2))] + [tr.positions for tr in tracks])
        ends = np.cumsum(lengths)
        # per point: index within its track
        index = np.arange(len(points)) - np.repeat(ends - lengths, lengths)
        sample = index >= 2
        codes = np.array([self._codes[tr.agent_id] for tr in tracks], dtype=np.int64)
        self.agent_codes = np.repeat(codes, lengths)[sample]
        self.steps = index[sample] + 1
        self.positions = points[sample]
        self.directions = np.concatenate(
            [np.empty((0, 2))] + [_directions(tr.positions)[2:] for tr in tracks])
        self.destinations = points[np.repeat(ends - 1, lengths)[sample]]
        for arr in (self.agent_codes, self.steps, self.positions,
                    self.directions, self.destinations):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.steps)

    def codes_of(self, agent_ids) -> np.ndarray:
        """Agent codes of those ``agent_ids`` that have samples here."""
        return np.array([self._codes[a] for a in agent_ids if a in self._codes],
                        dtype=np.int64)


def build_database(tracks: list, cfg: Config) -> TrajectoryDatabase:
    """Index resampled historical tracks for destination retrieval.

    Tracks must already live on the shared step grid. An empty input yields an
    empty database whose every query misses.
    """
    for traj in tracks:
        if len(traj) > 1 and not np.all(np.diff(traj.frames) == 1):
            raise DataError(
                f"agent {traj.agent_id!r} is not resampled to the step grid")
    return TrajectoryDatabase(tracks)


def history_for_endtime(tracks: list, endtime: int, cfg: Config) -> list:
    """What the database may hold for the known window ending at ``endtime``:
    every track clipped to the frames strictly before the window, dropping
    clips too short to sample, so no window's present or future is searched."""
    cutoff = endtime - cfg.known_time_steps
    clipped = []
    for tr in tracks:
        if tr.frames[0] > cutoff:
            continue
        part = tr.restrict_frames(int(tr.frames[0]), cutoff)
        if len(part) >= 3:
            clipped.append(part)
    return clipped
