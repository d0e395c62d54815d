"""Core domain types, trajectory arithmetic, and the historical-track database.

All positions are 2D world coordinates in meters. Canonical trajectories live
on a shared uniform time grid: frame k corresponds to time k * step_duration
seconds, so frame indices are comparable across agents. Raw (pre-resampling)
trajectories may carry arbitrary timestamps.

Everything here is immutable after construction and safe to share between
workers. The database is build-once, read-many.

A run's tracks are one :class:`Tracks`: an immutable tuple of trajectories
that holds one columnar table of all their rows, built once.
:func:`read_canonical_csv` returns one, its trajectories views of the
table. The functions that take a run's tracks (:func:`build_database`,
``pipeline.known_window_tracks``, ``evaluate.run_experiment``) accept a
list too and convert it at entry with :meth:`Tracks.of`, once per call, so
a window's cut, database and head count are numpy over the table.

One scale rule holds where input enters: every coordinate read (canonical
CSV, scene vertices, annotation points after the homography) lies within
±S, S = ``SCALE`` = 1e9 m, and every float parameter of ``Config`` and
``ForceParams`` within [1/S, S] (``direction_weight`` within ±S). Then no
later square, prefix sum, division or capped exponent overflows for any
horizon of H < 2**63 steps, so no later layer guards against overflow.
With tau the step duration: displacements are under 3S and neighbouring
canonical times at least tau/4 apart, so speeds are under 12S/tau and
direction prefix sums under 2**63 · 3S < 3e28. A speed cap moves a body
under max_speed_factor · max(12S, speed_floor · tau) <= S**3 per step, so
predicted points lie within 2e27·H m, and squared distances, errors and
plot sizes stay under 1e94. A force is under 2e46 (drive) plus S·e**50 <
1e31 per pair or obstacle (exponents are capped at 50), so force / mass · h
stays under 1e70. Every divisor is a parameter, a time step, or a length
checked against a positive threshold first; a very negative exponent
underflows to 0.0, which numpy does not report.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

CANONICAL_HEADER = "frame,agent_id,x,y"

# tolerance when deciding whether a timestamp lies exactly on the step grid
_GRID_EPS = 1e-9

# direction vectors shorter than this are treated as "no direction": the
# directional retrieval term is dropped rather than divided by ~0
STATIONARY_NORM = 1e-9

# largest frame index a canonical CSV may hold: frames are int64 arrays
_MAX_FRAME = np.iinfo(np.int64).max

# the scale rule of the module docstring: input coordinates within ±SCALE m,
# float parameters within [1/SCALE, SCALE]
SCALE = 1e9


class DataError(ValueError):
    """Semantically invalid input data (trajectory, CSV, or scene)."""


class TooFewPointsError(DataError):
    """Operation needs more trajectory points than were given."""


def check_scale(params, signed=()) -> None:
    """ValueError unless every float field of the dataclass ``params`` lies
    in [1/SCALE, SCALE], or within ±SCALE for a field named in ``signed``."""
    for name in (f.name for f in fields(params) if f.type == "float"):
        low = -SCALE if name in signed else 1.0 / SCALE
        if not low <= getattr(params, name) <= SCALE:
            raise ValueError(f"{name} must be finite and in [{low:g}, {SCALE:g}], "
                             f"got {getattr(params, name)!r}")


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
        check_scale(self, signed=("direction_weight",))
        if not self.intimate_distance < self.personal_distance:
            raise ValueError("need 0 < intimate_distance < personal_distance")
        # a velocity, and with it emotion and retrieval, needs two known points
        for name, least in (("k_candidates", 1), ("predict_time_steps", 1),
                            ("min_overlap_frames", 1), ("known_time_steps", 2)):
            if not getattr(self, name) >= least:
                raise ValueError(f"{name} must be >= {least}")


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
        if not (frames[1:] > frames[:-1]).all():
            raise DataError(f"frames of agent {self.agent_id!r} must strictly increase")
        if not (times[1:] > times[:-1]).all():
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

    def span(self, start: int, stop: int, agent_id: str | None = None) -> "Trajectory":
        """Rows ``start`` .. ``stop - 1`` as read-only views, named
        ``agent_id`` (this track's id by default).

        Nothing is copied or checked again: a contiguous slice of strictly
        increasing frames and times strictly increases too, and a view of a
        read-only array is read-only.
        """
        rows = slice(start, stop)
        return Trajectory.trusted(self.agent_id if agent_id is None else agent_id,
                                  self.frames[rows], self.times[rows],
                                  self.positions[rows])

    @classmethod
    def trusted(cls, agent_id: str, frames, times, positions) -> "Trajectory":
        """A trajectory of arrays that already keep its invariants: int64
        frames and float64 times, both strictly increasing, and (N, 2)
        float64 positions, all read-only. Nothing is copied or checked."""
        out = object.__new__(cls)
        vars(out).update(agent_id=agent_id, frames=frames, times=times,
                         positions=positions)
        return out

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

    @cached_property
    def directions(self) -> np.ndarray:
        """Read-only (N, 2) :func:`_directions` of the positions. Row i
        depends only on points 0 .. i, so the rows of a prefix of the track
        are a prefix of these rows, bit for bit."""
        rows = _directions(self.positions)
        rows.setflags(write=False)
        return rows


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


def final_velocity(positions: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The velocity :func:`velocity_at` gives at the last frame of each
    (..., N, 2) track of ``positions`` with (..., N) ``times``, N >= 2: the
    backward difference over its last two rows, bit for bit."""
    dt = times[..., -1] - times[..., -2]
    return (positions[..., -1, :] - positions[..., -2, :]) / dt[..., None]


def average_direction(traj: Trajectory, step: int) -> np.ndarray:
    """Mean displacement from all earlier points to the step-th point.

    ``step`` counts points from 1 at the start of the track. The result is the
    average of (p_step - p_k) over k = 1 .. step-1 and is left un-normalized;
    callers normalize where a unit direction is needed. It is row ``step - 1``
    of ``traj.directions``, so the database's directions equal it bit for bit.
    """
    if step < 2:
        raise TooFewPointsError("average direction needs at least one prior point")
    if step > len(traj):
        raise DataError(f"step {step} out of range for {len(traj)}-point track")
    return traj.directions[step - 1]


def _directions(positions: np.ndarray) -> np.ndarray:
    """Average direction at every point of each (..., N, 2) track, N >= 1,
    from one sequential prefix sum along the points: row i is
    (i·d_i − (d_0 + … + d_{i−1})) / i with d = p − p_0, the mean of
    p_i − p_k over k < i (row 0 is zero). Row i depends only on points
    0 .. i, the cost is linear in the length, a translation that keeps the
    coordinates exact leaves every row unchanged, and a stack of tracks
    gives each track's rows bit for bit."""
    d = positions - positions[..., :1, :]
    before = np.concatenate([d[..., :1, :], np.cumsum(d[..., :-1, :], axis=-2)],
                            axis=-2)  # d_0 is 0
    i = np.arange(d.shape[-2], dtype=np.float64)[:, None]
    return (i * d - before) / np.maximum(i, 1.0)


# frames whose :meth:`Tracks.count_before` counts a run keeps: an eval
# window asks three
_COUNTS_KEPT = 4


class Tracks(tuple):
    """The tracks of a run: an immutable tuple of trajectories that carries
    one columnar table of them (Abadi, Boncz & Harizopoulos, "Column-oriented
    database systems", PVLDB 2(2), 2009).

    ``frames``, ``times`` and ``positions`` hold every track's rows end to
    end, in tuple order; track t owns rows ``starts[t]`` .. ``starts[t] +
    lengths[t] - 1``, and ``owners[r]`` is the track owning row r.
    ``agent_ids`` lists the distinct ids in ``(natural_key(id), id)`` order
    and ``codes[t]`` is track t's place in it, so comparing codes compares
    ids. ``directions`` is each track's :func:`_directions`, end to end, and
    ``direction_norms`` their lengths. The table is built once; the ids,
    codes and directions on first use. A window's cut and database are then
    numpy over the table, with no Python per track.

    The run's retrieval samples are the table rows ``sample_rows``: rows
    2 .. n - 1 of every track, in track order, the samples
    :func:`build_database` stores without an endtime. A window's samples
    are those before its first frame, a frame prefix of the run's, so they
    are indexed by a ladder of sample grids over time prefixes
    (Bentley & Saxe's logarithmic method, "Decomposable searching problems
    I", J. Algorithms 1(4), 1980): with n samples, level j holds those whose
    frame is at most that of the ceil(n / 2**j)-th sample in frame order,
    and :meth:`sample_grid` hands a window the smallest level holding it.
    A run builds at most log2(n) + 1 grids, each on first use, instead of
    one per window. Like the directions, none of it is built before a
    database is queried, and :meth:`count_before` keeps the counts of the
    last few frames it was asked, so a window's callers share its scans.
    """

    def __new__(cls, tracks=()):
        tracks = tuple(tracks)
        return cls._of_table(
            tracks,
            np.concatenate([np.empty(0, np.int64)] + [tr.frames for tr in tracks]),
            np.concatenate([np.empty(0)] + [tr.times for tr in tracks]),
            np.concatenate([np.empty((0, 2))] + [tr.positions for tr in tracks]),
            np.array([len(tr) for tr in tracks], dtype=np.int64))

    @classmethod
    def _of_table(cls, tracks: tuple, frames, times, positions, lengths) -> "Tracks":
        self = super().__new__(cls, tracks)
        starts = np.cumsum(lengths) - lengths
        owners = np.repeat(np.arange(len(tracks)), lengths)
        for name, arr in (("frames", frames), ("times", times),
                          ("positions", positions), ("starts", starts),
                          ("lengths", lengths), ("owners", owners)):
            arr.setflags(write=False)
            vars(self)[name] = arr
        vars(self).update(_counted=(), _levels={})
        return self

    @classmethod
    def of(cls, tracks) -> "Tracks":
        """``tracks`` itself when it is a ``Tracks``, else a ``Tracks`` of
        its trajectories: every function that takes a run's tracks converts
        them here, once per call."""
        return tracks if isinstance(tracks, cls) else cls(tracks)

    def __setattr__(self, name, value):
        raise AttributeError("Tracks are immutable")

    __delattr__ = __setattr__

    @cached_property
    def agent_ids(self) -> tuple:
        return tuple(sorted({tr.agent_id for tr in self},
                            key=lambda a: (natural_key(a), a)))

    @cached_property
    def codes(self) -> np.ndarray:
        code = {aid: c for c, aid in enumerate(self.agent_ids)}
        out = np.array([code[tr.agent_id] for tr in self], dtype=np.int64)
        out.setflags(write=False)
        return out

    @cached_property
    def directions(self) -> np.ndarray:
        out = np.concatenate([np.empty((0, 2))] + [
            _directions(self.positions[s:s + n])
            for s, n in zip(self.starts.tolist(), self.lengths.tolist()) if n])
        out.setflags(write=False)
        return out

    @cached_property
    def direction_norms(self) -> np.ndarray:
        """The lengths of ``directions``: each row on its own, so a gather
        of these equals the lengths of the gathered rows, bit for bit."""
        out = np.sqrt(np.vecdot(self.directions, self.directions))
        out.setflags(write=False)
        return out

    @cached_property
    def _code_of(self) -> dict:
        return {aid: c for c, aid in enumerate(self.agent_ids)}

    def codes_of(self, agent_ids) -> np.ndarray:
        """Codes of those ``agent_ids`` that hold a track here."""
        return np.array([self._code_of[a] for a in agent_ids if a in self._code_of],
                        dtype=np.int64)

    @cached_property
    def sample_rows(self) -> np.ndarray:
        """The table row of each of the run's samples: rows 2 .. n - 1 of
        every track, in track order."""
        return _frozen(_sample_layout(self.starts, self.lengths)[2])

    def sample_grid(self, count: int) -> "SampleGrid":
        """The smallest ladder level holding the ``count`` earliest samples
        in frame order, built on first use; its ``order`` lists table rows.
        Level j holds ceil(n / 2**j) >= count samples and level j + 1 fewer
        (ties aside), so at most about half of its rows lie after those."""
        rows = self.sample_rows
        n, j = len(rows), 0
        while -(-n >> j) > 1 and -(-n >> (j + 1)) >= count:
            j += 1
        grid = self._levels.get(j)
        if grid is None:
            if n:
                frames, size = self.frames[rows], -(-n >> j)
                rows = rows[frames <= np.partition(frames, size - 1)[size - 1]]
            grid = self._levels.setdefault(j, SampleGrid(self.positions[rows], rows))
        return grid

    def count_before(self, frame) -> np.ndarray:
        """Per track, how many of its frames lie before ``frame``: its first
        rows, as frames strictly increase. An empty track counts 0. The
        read-only counts of the last ``_COUNTS_KEPT`` frames are kept, so
        the callers of one window scan the table once per frame."""
        for kept, counts in self._counted:
            if kept == frame:
                return counts
        counts = _frozen(self._scan_before(frame))
        # one tuple swapped in whole: threads sharing the run can lose an
        # entry, which costs a scan, but never see a wrong count
        vars(self)["_counted"] = ((frame, counts),) + self._counted[:_COUNTS_KEPT - 1]
        return counts

    def _scan_before(self, frame) -> np.ndarray:
        return np.bincount(self.owners[self.frames < frame], minlength=len(self))

    def covering(self, first: int, steps: int) -> tuple:
        """The tracks holding every frame ``first`` .. ``first + steps - 1``,
        ascending, and the row of ``first`` within each: a track holds them
        when the frame ``steps - 1`` rows after its first one not before
        ``first`` is the last of them."""
        n = self.count_before(first)
        t = np.flatnonzero(self.lengths - n >= steps)
        if t.size:      # else ``steps`` need not fit in int64
            t = t[self.frames[self.starts[t] + n[t] + (steps - 1)] == first + steps - 1]
        return t, n[t]


def resample_trajectory(traj: Trajectory, step_duration: float) -> Trajectory:
    """Linearly interpolate a track onto the uniform step grid.

    The output contains every grid point k * step_duration inside the track's
    time range, with frame index k. Input samples that already lie on the grid
    are copied bit-for-bit (which makes resampling idempotent); everything
    else is linearly interpolated between its neighbors. A range that does not
    start or end on the grid is trimmed to the interior grid points, so the
    result can have fewer than 2 points. This is :func:`resample_parts` on one
    part.
    """
    if step_duration <= 0:
        raise ValueError("step_duration must be > 0")
    if len(traj) < 2:
        raise TooFewPointsError(
            f"agent {traj.agent_id!r} needs >= 2 points to resample")
    frames, times, positions, _ = resample_parts(traj.times, traj.positions,
                                                 np.array([len(traj)]), step_duration)
    return Trajectory(traj.agent_id, frames, times, positions)


def resample_parts(times: np.ndarray, positions: np.ndarray, lengths: np.ndarray,
                   step_duration: float) -> tuple:
    """:func:`resample_trajectory` of many parts in one pass.

    ``times`` and the (N, 2) ``positions`` hold the parts one after another,
    ``lengths`` their sizes, each at least 2, with times strictly increasing
    within a part. Returns the grid frames (int64), their times ``frames *
    step_duration`` and (M, 2) positions, the parts again one after another,
    and each part's grid point count, which may be 0. Every output point has
    the bits a resample of its part alone gives it.
    """
    ends = np.cumsum(lengths)
    starts = ends - lengths
    # a time far beyond the grid's int64 frames can overflow the division;
    # finite neighbors can interpolate to a non-finite point, which the
    # canonical writer rejects as a data error
    with np.errstate(over="ignore", invalid="ignore"):
        k0 = np.ceil(times[starts] / step_duration - _GRID_EPS)
        k1 = np.floor(times[ends - 1] / step_duration + _GRID_EPS)
        if not (np.abs(np.concatenate([k0, k1])) < 2.0**63).all():
            raise OverflowError("grid frame beyond int64")
        k0, k1 = k0.astype(np.int64), k1.astype(np.int64)
        counts = np.maximum(k1 - k0 + 1, 0)
        first = np.repeat(np.cumsum(counts) - counts, counts)
        frames = np.repeat(k0, counts) + (np.arange(len(first)) - first)
        t = frames * step_duration
        j = _search_parts(times, lengths, t, counts)
        start, end = np.repeat(starts, counts), np.repeat(ends, counts)
        here, prev = np.minimum(j, end - 1), np.maximum(j - 1, start)
        tol = _GRID_EPS * np.maximum(1.0, np.abs(t))
        at_j = (j < end) & (np.abs(times[here] - t) <= tol)
        at_prev = (j > start) & (np.abs(times[prev] - t) <= tol)
        # snap to sample j before j - 1, hold the end points, else interpolate
        copy = at_j | at_prev | (j == start) | (j >= end)
        src = np.where(at_j | (j == start), here, prev)
        lo = np.clip(j - 1, start, end - 2)
        w = (t - times[lo]) / (times[lo + 1] - times[lo])
        between = positions[lo] + w[:, None] * (positions[lo + 1] - positions[lo])
    return frames, t, np.where(copy[:, None], positions[src], between), counts


def _search_parts(times: np.ndarray, lengths: np.ndarray, t: np.ndarray,
                  counts: np.ndarray) -> np.ndarray:
    """For each of the grid times ``t``, parts of ``counts`` points, the
    index of the first of ``times``, parts of ``lengths`` samples, that is
    in its part and not before it: one search over (part, time) keys, which
    complex numbers order lexicographically."""
    keys, grid_keys = np.empty(len(times), complex), np.empty(len(t), complex)
    keys.real, keys.imag = np.repeat(np.arange(len(lengths)), lengths), times
    grid_keys.real, grid_keys.imag = np.repeat(np.arange(len(lengths)), counts), t
    return np.searchsorted(keys, grid_keys)


# ---------------------------------------------------------------------------
# near pairs and connected components

def near_pairs(points: np.ndarray, bound: float, block: int):
    """Blocks of at most ``block`` (i, j) row pairs, i < j, of the (n, 2)
    ``points``: every pair within ``bound`` in |dx| and |dy|, with a slack
    above the rounding of distances computed from them, and every pair with
    a non-finite row. A linked-cell list (Hockney & Eastwood 1988): sorted
    by cell (cx, cy), a row meets its partners in two runs, the rest of its
    column up to cy + 1 and column cx + 1 from cy − 1 to cy + 1, expanded
    lazily, so memory is O(n + block). The cell side absorbs the rounding
    of ``p / side`` at the points' magnitude."""
    bad = ~np.isfinite(points).all(axis=1)
    side = bound * (1.0 + 1e-9) + 4.5e-16 * float(np.abs(points[~bad]).max(initial=0.0))
    cx, cy = np.floor(np.where(bad[:, None], 0.0, points) / side).T
    # (cx, cy) sorts as one complex key, which cannot overflow; a row with a
    # non-finite coordinate sorts first and runs to the end
    key = np.where(bad, -np.inf, cx) + cy * 1j
    order = np.argsort(key, kind="stable")
    key, bad, cx, cy = key[order], bad[order], cx[order], cy[order]
    s1 = np.arange(1, len(key) + 1)
    first = np.where(bad, len(key), key.searchsorted(cx + (cy + 1.0) * 1j, "right")) - s1
    s2, e2 = (np.where(bad, 0, key.searchsorted(cx + 1.0 + (cy + dy) * 1j, side))
              for dy, side in ((-1.0, "left"), (1.0, "right")))
    counts = first + e2 - s2
    # pair t belongs to the first position k with ends[k] > t
    ends = np.cumsum(counts)
    for lo in range(0, int(counts.sum()), block):
        t = np.arange(lo, min(lo + block, ends[-1]))
        k = ends.searchsorted(t, side="right")
        o = t - ends[k] + counts[k]
        a, b = order[k], order[np.where(o < first[k], s1[k] + o, s2[k] + o - first[k])]
        yield np.minimum(a, b), np.maximum(a, b)


def runs(counts) -> tuple:
    """Each item of runs of ``counts`` items laid end to end: its run and its place in it."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - (np.cumsum(counts) - counts)[run]


def connected_components(n: int, edges) -> list:
    """Connected components of rows 0 .. n-1 under edges given as blocks of
    (i, j) index arrays: ascending row lists, by first row (union-find)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]       # path halving
        return x

    for i, j in edges:
        for a, b in zip(i.tolist(), j.tolist()):
            parent[find(b)] = find(a)
    out: dict = {}
    for x in range(n):
        out.setdefault(find(x), []).append(x)
    return list(out.values())


# ---------------------------------------------------------------------------
# scene geometry

@dataclass(frozen=True)
class SceneGeometry:
    """Static obstacles of a scene: line segments and convex polygons.

    ``bounds`` is the axis-aligned scene rectangle [[xmin, ymin], [xmax, ymax]].
    The scene stacks its obstacle edges once; an :class:`ObstacleLayout`
    lays them out against a rollout chunk's bodies and finds the contacts.
    """

    segments: tuple = ()   # each (2, 2) array: two endpoints
    polygons: tuple = ()   # each (V, 2) array: convex ring, V >= 3
    bounds: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))

    def __post_init__(self) -> None:
        segs = tuple(np.asarray(s, dtype=np.float64).reshape(2, 2) for s in self.segments)
        rings = [np.asarray(p, dtype=np.float64) for p in self.polygons]
        if not all(np.all(np.abs(v) <= SCALE) for v in segs + tuple(rings)):
            raise DataError(f"obstacle vertices must lie within ±{SCALE:g} m")
        polys = [_convex_polygon(p) for p in rings]
        bounds = np.asarray(self.bounds, dtype=np.float64).reshape(2, 2)
        allv = np.concatenate([np.empty((0, 2)), *segs, *polys])
        if np.any(bounds[1] > bounds[0]):
            if np.any(allv < bounds[0] - 1e-9) or np.any(allv > bounds[1] + 1e-9):
                raise DataError("obstacle vertices lie outside the scene bounds")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "polygons", tuple(polys))
        bounds.setflags(write=False)
        object.__setattr__(self, "bounds", bounds)
        # every obstacle edge a -> a + ab, stacked once: segments first, then
        # each ring's edges in order; ring r owns rows _ring_starts[r:r + 2].
        # An edge of squared length below 1e-18 stands for its point a.
        a = np.concatenate([np.empty((0, 2))] + [s[:1] for s in segs] + polys)
        ab = np.concatenate([np.empty((0, 2))] + [s[1:] - s[:1] for s in segs]
                            + [np.roll(p, -1, axis=0) - p for p in polys])
        sq = np.vecdot(ab, ab)
        short = sq < 1e-18
        starts = np.cumsum([len(segs)] + [len(p) for p in polys])
        for name, value in (("_a", a), ("_ab", ab), ("_short", short),
                            ("_div", np.where(short, 1.0, sq)),
                            ("_ring_starts", starts)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def empty(cls) -> "SceneGeometry":
        return cls()

    @property
    def is_empty(self) -> bool:
        return not self.segments and not self.polygons


class ObstacleLayout:
    """The obstacle edges of a scene laid out against M bodies, for
    :meth:`contacts` to evaluate every edge against every body.

    Each edge's start, direction and squared length is repeated once per
    body into a contiguous (E, M, 2) or (E, M) array, so every array op of
    :meth:`contacts` runs over E · M · 2 contiguous values instead of E · M
    runs of two that broadcast the (E, 1, 2) constants. A rollout chunk lays
    out its scene once, when it starts, and drops the layout with the chunk:
    it takes about as much memory as one :meth:`contacts` call's (E, M, 2)
    temporaries, and nothing is cached on the scene.
    """

    def __init__(self, scene: SceneGeometry, m: int):
        starts = scene._ring_starts.tolist()
        n_seg = starts[0]
        self._a, self._ab, self._div = (
            np.repeat(v, m, axis=0).reshape((len(v), m) + v.shape[1:])
            for v in (scene._a, scene._ab, scene._div))
        # the rings' edge directions as x and y planes, for the inside test
        self._abx = self._ab[n_seg:, :, 0].copy()
        self._aby = self._ab[n_seg:, :, 1].copy()
        self._short = np.flatnonzero(scene._short)
        # each ring's edge rows, and the flat (edge, body) index of its
        # first edge against every body
        cols = np.arange(m)
        self._rings = [(lo, hi, lo * m + cols) for lo, hi in zip(starts[:-1], starts[1:])]
        self._n_seg = n_seg
        self.n_obstacles = n_seg + len(self._rings)

    def contacts(self, p: np.ndarray) -> tuple:
        """Offset from the nearest boundary point and signed distance of
        every obstacle to every point of ``p``, an (M, 2) array of finite
        points.

        Returns (O, M, 2) offsets ``p - nearest`` and (O, M) distances,
        segments first, then polygons, each in scene order. A polygon's
        nearest point lies on the first of its nearest edges, and its
        distance is negative when the point lies inside it. An edge of
        squared length below 1e-18 stands for its start point.
        """
        m = len(p)
        n_seg = self._n_seg
        # (E, M) nearest points and distances, every edge against every point
        pa = p - self._a
        t = np.vecdot(pa, self._ab)
        t /= self._div
        # the bits of where(t > 0, t, 0), then where(t < 1, t, 1): t is finite
        # and never -0.0, as vecdot sums its products onto +0.0 and div > 0
        np.maximum(t, 0.0, out=t)
        np.minimum(t, 1.0, out=t)
        q = t[..., None] * self._ab
        q += self._a
        if len(self._short):
            q[self._short] = self._a[self._short]
        pq = np.subtract(p, q, out=q)
        d = np.sqrt(np.vecdot(pq, pq))
        if not self._rings:
            return pq, d
        # a point is inside a ring when every edge whose cross product
        # clears 1e-15 turns the same way, and at least one does: when just
        # one of its largest and smallest cross products clears 1e-15
        cross = self._abx * pa[n_seg:, :, 1]
        cross -= self._aby * pa[n_seg:, :, 0]
        # ring r's nearest edge goes to row r, at or before the ring's first
        # edge and past every earlier ring's, so the (O, M) rows come first
        flat_pq, flat_d = pq.reshape(-1, 2), d.reshape(-1)
        for r, (lo, hi, first) in enumerate(self._rings, start=n_seg):
            at = d[lo:hi].argmin(axis=0)
            at *= m
            at += first
            flat_pq.take(at, axis=0, out=pq[r])
            flat_d.take(at, out=d[r])
            turns = cross[lo - n_seg:hi - n_seg]
            inside = (turns.max(axis=0) >= 1e-15) != (turns.min(axis=0) <= -1e-15)
            np.negative(d[r], out=d[r], where=inside)
        return pq[:self.n_obstacles], d[:self.n_obstacles]


def _convex_polygon(p) -> np.ndarray:
    """The ring as a float array; DataError unless it is a simple convex
    polygon of non-zero area, which the inside test and the sign of the
    obstacle force assume. Collinear and repeated vertices are allowed."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] < 3 or p.shape[1] != 2:
        raise DataError("polygon needs at least 3 vertices of 2 coordinates")
    edges = np.roll(p, -1, axis=0) - p
    edges = edges[np.any(edges != 0.0, axis=1)]
    nxt = np.roll(edges, -1, axis=0)
    cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
    dot = np.sum(edges * nxt, axis=1)
    scale = np.linalg.norm(edges, axis=1) * np.linalg.norm(nxt, axis=1)
    # shoelace sum about the first vertex: translation-free, so a small
    # ring far from the origin keeps its area
    q = p - p[0]
    area = 0.5 * float(np.sum(q[:, 0] * np.roll(q[:, 1], -1)
                              - np.roll(q[:, 0], -1) * q[:, 1]))
    turning = cross[np.abs(cross) > 1e-12 * scale]
    if abs(area) <= 1e-12 * float(np.sum(scale)):
        raise DataError("polygon has zero area")
    # one sign of turn, and one full revolution: a star winds twice
    winding = float(np.sum(np.arctan2(cross, dot))) / (2.0 * math.pi)
    one_way = np.all(turning > 0) or np.all(turning < 0)
    if not one_way or abs(abs(winding) - 1.0) > 1e-6:
        raise DataError("polygon is not convex")
    return p


def parse_scene(text: str) -> SceneGeometry:
    """Parse the plain-text scene format.

    One obstacle per line, coordinates in meters:

        seg x1 y1 x2 y2
        poly x1 y1 x2 y2 x3 y3 ...
        bounds xmin ymin xmax ymax

    Blank lines and lines starting with ``#`` are ignored. Obstacle
    coordinates lie within ±``SCALE`` m; ``bounds``, only compared with them,
    need only be finite. ``bounds`` is optional; when absent the obstacle
    bounding box (padded by 1 m) is used.
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
            if kind != "bounds" and not all(abs(v) <= SCALE for v in nums):
                raise DataError(f"coordinates must lie within ±{SCALE:g} m")
            if kind == "seg":
                if len(nums) != 4:
                    raise DataError("seg needs 4 numbers")
                segments.append(np.array(nums).reshape(2, 2))
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
        allv = np.concatenate([np.empty((0, 2)), *segments, *polygons])
        bounds = (np.vstack([allv.min(axis=0) - 1.0, allv.max(axis=0) + 1.0])
                  if len(allv) else np.zeros((2, 2)))
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
        frames = traj.frames.tolist()
        # frames strictly increase: if any is negative, the first is
        if frames and frames[0] < 0:
            raise DataError(f"agent {traj.agent_id!r}: negative frame {frames[0]}")
        aid = traj.agent_id
        lines += [f"{f},{aid},{x!r},{y!r}"
                  for f, (x, y) in zip(frames, traj.positions.tolist())]
    return ("\n".join(lines) + "\n").encode("utf-8")


# one canonical CSV row for numpy's text reader: frame, id, x, y
_CSV_ROW = np.dtype([("frame", np.int64), ("agent_id", object), ("xy", np.float64, (2,))])


def read_canonical_csv(data, step_duration: float) -> Tracks:
    """Parse canonical CSV bytes or text into trajectories on the step grid,
    in natural agent order, as :class:`Tracks` whose trajectories are
    views of its table. Every coordinate must lie within ±``SCALE`` m.

    The body is read in one pass of numpy's C text reader; a body that
    pass refuses, or whose values are out of range, is read again one line
    at a time, which accepts what ``int`` and ``float`` accept and names
    the first bad line."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    lines = data.splitlines()
    if not lines or lines[0].strip() != CANONICAL_HEADER:
        raise DataError(f"canonical CSV must start with header {CANONICAL_HEADER!r}")
    body = lines[1:]
    # a body of empty lines holds no row, and numpy's reader warns on it
    table = _csv_table(body) if any(body) else None
    if table is None:
        ids, frames, points, huge = _csv_lines(body)
    else:
        ids, frames, points, huge = (table["agent_id"].tolist(), table["frame"],
                                     table["xy"], {})
    agents: dict = {}      # id -> index, in order of first appearance
    codes = [agents.setdefault(a, len(agents)) for a in ids]
    names = list(agents)
    order = sorted(range(len(names)), key=lambda a: natural_key(names[a]))
    rank = np.empty(len(names), dtype=np.int64)
    rank[order] = np.arange(len(names))
    code = rank[np.array(codes, dtype=np.int64)]
    rows = np.lexsort((frames, code))
    code, frames = code[rows], frames[rows]
    positions = points[rows]
    times = frames * step_duration
    # the first agent in natural order with a fault names it: a frame out
    # of range, else a duplicate frame, else two frames rounded to one time
    same = code[1:] == code[:-1]
    dup = same & (frames[1:] == frames[:-1])
    close = same & ~(times[1:] > times[:-1])
    faults = np.concatenate([rank[[agents[a] for a in huge]], code[1:][close]])
    if faults.size:
        a = order[int(faults.min())]
        if names[a] in huge:
            raise DataError(f"agent {names[a]!r}: frame {huge[names[a]]} is out of range")
        if rank[a] in code[1:][dup]:
            raise DataError(f"agent {names[a]!r} has duplicate frames")
        raise DataError(f"times of agent {names[a]!r} must strictly increase")
    lengths = np.bincount(code, minlength=len(names))
    for arr in (frames, times, positions):
        arr.setflags(write=False)
    bounds = np.cumsum(lengths).tolist()
    return Tracks._of_table(
        tuple(Trajectory.trusted(names[a], frames[lo:hi], times[lo:hi], positions[lo:hi])
              for a, lo, hi in zip(order, [0] + bounds[:-1], bounds)),
        frames, times, positions, lengths)


def _csv_table(body: list):
    """The rows of the CSV body ``body`` (its lines) as one ``_CSV_ROW``
    array, or None when numpy's reader refuses a line (a field count other
    than 4, a token it cannot convert, a frame beyond int64, a blank line
    of spaces) or a frame is negative or a coordinate beyond ±``SCALE``.
    What the reader accepts, ``int`` and ``float`` accept with the same
    value, and ids are kept verbatim."""
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=1, dtype=_CSV_ROW)
    except ValueError:
        return None
    if not ((table["frame"] >= 0).all() and (np.abs(table["xy"]) <= SCALE).all()):
        return None
    return table


def _csv_lines(body: list) -> tuple:
    """The ids, int64 frames and (N, 2) positions of the rows of the CSV
    body ``body`` one line at a time, raising ``DataError`` at the first
    bad line, and each agent's largest frame beyond int64 (its rows carry
    ``_MAX_FRAME`` instead); blank lines are skipped."""
    ids, frames, points = [], [], []
    huge: dict = {}
    for lineno, line in enumerate(body, start=2):
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
        if not (abs(x) <= SCALE and abs(y) <= SCALE):
            raise DataError(f"CSV line {lineno}: coordinates must be finite "
                            f"and within ±{SCALE:g} m")
        if frame > _MAX_FRAME:
            huge[parts[1]] = max(frame, huge.get(parts[1], frame))
            frame = _MAX_FRAME      # a stand-in: this agent is rejected later
        ids.append(parts[1])
        frames.append(frame)
        points.append(x)
        points.append(y)
    return (ids, np.array(frames, dtype=np.int64),
            np.array(points, dtype=np.float64).reshape(-1, 2), huge)


# ---------------------------------------------------------------------------
# historical-track database

# samples per occupied cell that the sample grid aims at
_CELL_SAMPLES = 4


class SampleGrid:
    """A uniform grid over sample positions, for best-match search by
    bounds (Bentley & Friedman, ACM Computing Surveys 11, 1979): the sample
    indices sorted by cell, so the samples of a square of cells are one run
    per column.

    The side comes from the samples: at the density of their bounding box,
    then rescaled so the occupied cells hold about ``_CELL_SAMPLES`` each,
    but never under 1/(4√n) of the larger extent. So a row or column has at
    most about 4√n cells and the cell key ``cx · rows + cy`` is an exact
    float. A sample with a non-finite coordinate lies in no cell: only the
    square that covers the whole grid holds it. ``order`` lists the
    samples' ``ids`` by cell.
    """

    def __init__(self, positions: np.ndarray, ids: np.ndarray):
        x, y = positions.T
        good = np.isfinite(x) & np.isfinite(y)
        gx, gy = (x, y) if good.all() else (x[good], y[good])
        n = len(gx)
        self.origin = np.array([gx.min(), gy.min()]) if n else np.zeros(2)
        w, h = (gx.max() - self.origin[0], gy.max() - self.origin[1]) if n else (0.0, 0.0)
        wide = float(max(w, h))
        self.side = 1.0
        if wide > 0.0:
            side = max(math.sqrt(w * h * _CELL_SAMPLES / n), wide * _CELL_SAMPLES / n)
            cx, cy = self._cells(gx, gy, side)
            # at this side the bounding box has at most 3n/_CELL_SAMPLES + 1 cells
            key = (cx * (cy.max() + 1.0) + cy).astype(np.intp)
            occupied = np.count_nonzero(np.bincount(key))
            self.side = max(side * math.sqrt(_CELL_SAMPLES * occupied / n),
                            wide / (4.0 * math.sqrt(n)))
        cx, cy = self._cells(gx, gy, self.side)
        self.last = np.array([cx.max(initial=0.0), cy.max(initial=0.0)])
        self.rows = self.last[1] + 1.0
        key = np.full(len(x), np.inf)
        key[good] = cx * self.rows + cy
        order = np.argsort(key)
        self.keys = key[order]
        self.order = ids[order]
        # the coordinates' magnitude, for the rounding slack of ``clearance``
        self.magnitude = float(np.abs(self.origin).max()) + wide

    def _cells(self, x, y, side) -> tuple:
        return np.floor((x - self.origin[0]) / side), np.floor((y - self.origin[1]) / side)

    def cell_of(self, points) -> np.ndarray:
        """The (cx, cy) cell of each (..., 2) point, as floats; NaN or ±inf
        where a coordinate is not finite."""
        return np.floor((np.asarray(points, dtype=np.float64) - self.origin) / self.side)

    def squares(self, points: np.ndarray, cells: np.ndarray, h: np.ndarray) -> tuple:
        """The squares of the cells within ``h[q]`` of each (Q, 2)
        ``cells[q]`` in both coordinates, the cell of ``points[q]``.

        Returns whether each square covers the whole grid, in which case it
        holds every sample; for the others, each column's query and its run
        of ``order``, its first position and its count, by query, then
        column; and each square's clearance, a lower bound on the distance
        from its point to every finite sample outside it: the distance to
        the nearest edge of the square with grid cells beyond it, less a
        slack above the rounding of cell keys and edges at the coordinates'
        magnitude (inf for the whole grid). A cell with a NaN coordinate
        covers the whole grid; a far cell's rounding can leave a square
        short, with no column.
        """
        lo, hi = cells - h[:, None], cells + h[:, None]
        inner, outer = lo > 0.0, hi < self.last     # edges with cells beyond
        whole = ~(inner | outer).any(axis=1)
        near = np.where(inner, points - (self.origin + lo * self.side), np.inf)
        far = np.where(outer, self.origin + (hi + 1.0) * self.side - points, np.inf)
        clear = np.minimum(near, far).min(axis=1)
        slack = 1e-12 * (self.magnitude + np.abs(points).max(axis=1) + (h + 1.0) * self.side)
        np.subtract(clear, slack, out=clear, where=~whole)    # h may be inf there
        np.maximum(clear, 0.0, out=clear)
        lo, hi = np.maximum(lo, 0.0), np.minimum(hi, self.last)
        spans = np.where(whole | (lo > hi).any(axis=1), 0.0,
                         hi[:, 0] - lo[:, 0] + 1.0).astype(np.intp)
        owner = np.repeat(np.arange(len(spans)), spans)
        cols = (np.arange(len(owner)) + np.repeat(lo[:, 0] - (spans.cumsum() - spans), spans)
                ) * self.rows
        first = self.keys.searchsorted(cols + lo[owner, 1])
        count = self.keys.searchsorted(cols + hi[owner, 1], "right") - first
        return whole, owner, first, count, clear

    def samples(self, first: np.ndarray, count: np.ndarray) -> np.ndarray:
        """The sample ids of the runs of ``order`` that start at
        ``first`` and hold ``count`` each, run after run."""
        runs = np.repeat(first - count.cumsum() + count, count)
        return self.order[runs + np.arange(len(runs))]

    def reach(self, cells: np.ndarray) -> np.ndarray:
        """How many cells each (Q, 2) cell lies outside the grid, in the
        coordinate where it lies farthest out (at most 0 inside it, NaN
        when a coordinate is NaN)."""
        return np.maximum(-cells, cells - self.last).max(axis=1)


class TrajectoryDatabase:
    """Historical track samples of one window, one row per sample.

    The database stores the first ``lengths[t]`` points of each track t of
    ``tracks``, a :class:`Tracks`, and holds nothing but the table and
    those lengths: its samples are the run's sample rows before each
    track's stored length, and its ``grid`` is the :meth:`Tracks.sample_grid`
    level holding them, which may hold later samples too. Every stored
    point with at least two earlier points is a sample: its position, its
    un-normalized average movement direction, the last stored point of its
    track (the destination) and its 1-based ``step`` in that track. A
    track's samples are contiguous, in ascending step, and tracks of three
    or more stored points keep their input order; track t's first sample
    is ``starts[t]``. ``agent_codes`` index ``agent_ids``, which lists the
    source agents in natural order, so comparing codes compares ids.
    ``direction_norms`` are the directions' lengths. These read-only
    arrays are gathered from the table on first access only: retrieval
    reads the table by row, so a window that is only queried gathers none.
    """

    def __init__(self, tracks: Tracks, lengths: np.ndarray):
        self.tracks, self.lengths = tracks, lengths
        self._counts = np.where(lengths >= 3, lengths - 2, 0)
        self._ends = np.cumsum(self._counts)
        self.starts = self._ends - self._counts

    def __len__(self) -> int:
        return int(self._ends[-1]) if len(self._ends) else 0

    @cached_property
    def grid(self) -> SampleGrid:
        return self.tracks.sample_grid(len(self))

    def track_of(self, index: np.ndarray) -> np.ndarray:
        """The track of each sample ``index``."""
        return self._ends.searchsorted(index, side="right")

    @cached_property
    def _layout(self) -> tuple:
        """Each sample's track, index in it and table row."""
        return _sample_layout(self.tracks.starts, self.lengths)

    @cached_property
    def agent_ids(self) -> tuple:
        return tuple(self.tracks.agent_ids[c] for c in self._stored.tolist())

    @cached_property
    def _stored(self) -> np.ndarray:
        """The run codes of the agents stored, ascending."""
        return np.unique(self.tracks.codes[self._counts > 0])

    @cached_property
    def agent_codes(self) -> np.ndarray:
        codes = self._stored.searchsorted(self.tracks.codes)
        return _frozen(codes[self._layout[0]])

    @cached_property
    def steps(self) -> np.ndarray:
        return _frozen(self._layout[1] + 1)

    @cached_property
    def positions(self) -> np.ndarray:
        return _frozen(self.tracks.positions.take(self._layout[2], axis=0))

    @cached_property
    def directions(self) -> np.ndarray:
        return _frozen(self.tracks.directions.take(self._layout[2], axis=0))

    @cached_property
    def destinations(self) -> np.ndarray:
        last = self.tracks.starts + self.lengths - 1
        return _frozen(self.tracks.positions.take(last[self._layout[0]], axis=0))

    @cached_property
    def direction_norms(self) -> np.ndarray:
        return _frozen(self.tracks.direction_norms.take(self._layout[2]))

    def codes_of(self, agent_ids) -> np.ndarray:
        """Agent codes of those ``agent_ids`` that have samples here."""
        codes = self.tracks.codes_of(agent_ids)
        return self._stored.searchsorted(codes[np.isin(codes, self._stored)])


def _frozen(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


def _sample_layout(starts: np.ndarray, lengths: np.ndarray) -> tuple:
    """The samples of the tracks of ``lengths`` points whose rows begin at
    ``starts``: rows 2 .. n - 1 of each track of three or more, in track
    order, as each sample's track, index in it and table row."""
    track, index = runs(np.where(lengths >= 3, lengths - 2, 0))
    index += 2
    return track, index, starts[track] + index


def build_database(tracks, cfg: Config, endtime: int | None = None
                   ) -> TrajectoryDatabase:
    """Index resampled historical tracks for destination retrieval.

    With an ``endtime``, the database holds only the history of the known
    window ending there: each track's points before the window's first
    frame, ``endtime - cfg.known_time_steps + 1``, a prefix of the track, so
    no window's present or future is searched. Tracks must lie on the
    shared step grid over the points stored: a gap among them raises
    ``DataError`` naming the first such track, a gap after them does not. A
    track or prefix under three points holds no sample, so it is neither
    stored nor checked. An empty input yields an empty database whose every
    query misses. ``tracks`` is converted once by :meth:`Tracks.of`.

    Nothing is gathered: the database is the run's table and each track's
    stored length, the frame limit. Its samples are the run's
    ``sample_rows`` before that limit, searched through the run's ladder
    level that holds them, so building it costs O(tracks) and a run builds
    O(log n) grids over all its windows, not one per window.
    """
    tracks = Tracks.of(tracks)
    lengths = (tracks.lengths if endtime is None
               else tracks.count_before(endtime - cfg.known_time_steps + 1))
    # strictly increasing frames are consecutive when they span n - 1
    t = np.flatnonzero(lengths >= 3)
    first = tracks.starts[t]
    gap = tracks.frames[first + lengths[t] - 1] - tracks.frames[first] != lengths[t] - 1
    if gap.any():
        raise DataError(f"agent {tracks[int(t[gap.argmax()])].agent_id!r} "
                        f"is not resampled to the step grid")
    return TrajectoryDatabase(tracks, lengths)
