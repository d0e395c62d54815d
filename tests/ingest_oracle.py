"""Scalar reference for ingest: one grid point, one source point and one
agent at a time.

``core.resample_trajectory``, ``core.resample_parts``,
``ingest.apply_homography`` and ``ingest.to_canonical`` must return exactly
what these return, bit for bit, or raise the same first error.
"""

from __future__ import annotations

import math

import numpy as np

from crowdcast.core import _GRID_EPS, SCALE, DataError, Trajectory, write_canonical_csv
from crowdcast.ingest import _GAP_TOL, IngestSummary


def resample_trajectory(traj: Trajectory, step_duration: float) -> Trajectory:
    """Resample onto the step grid with one ``searchsorted`` per grid point."""
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


def apply_homography(h, p) -> np.ndarray:
    """Apply the perspective transform to one 2D point."""
    x, y = float(p[0]), float(p[1])
    u, v, w = h.matrix @ np.array([x, y, 1.0])
    if abs(w) < 1e-12:
        raise DataError(f"point ({x}, {y}) maps to infinity")
    return np.array([u / w, v / w])


def to_canonical(rows: np.ndarray, homography, source_fps: float, cfg) -> tuple:
    """``ingest.to_canonical`` one agent and one part at a time: each agent's
    checks in order, its gap cuts, and a checked raw and resampled
    trajectory per part."""
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
        with np.errstate(over="ignore", invalid="ignore"):
            points = np.array([apply_homography(homography, p)
                               for p in block[:, 2:]]).reshape(-1, 2)
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
