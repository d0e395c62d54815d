"""Scalar reference for ingest: one grid point and one source point at a time.

``core.resample_trajectory`` and ``ingest.apply_homography`` must return
exactly what these return, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from crowdcast.core import _GRID_EPS, DataError, Trajectory


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
