"""Scalar reference for group detection: one pair, one frame at a time.

``build_intimacy_graph`` and the emotion of ``make_group_state`` in
``crowdcast.grouping`` must return exactly what these return: the same
nodes, the same edges in the same order, and emotions bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from crowdcast.core import DataError, TooFewPointsError
from crowdcast.grouping import (
    EMOTION_WINDOW_FRAMES,
    group_center_trajectory,
    pairwise_intimacy,
)

_STILL_SPEED = 1e-6


def build_intimacy_graph(tracks, cfg):
    """The sorted node ids and the edge dict (id_a, id_b) -> level over every
    pair in node order, skipping pairs that share too few frames or are
    already beyond the personal distance at their first or last co-present
    frame (the maximum over all frames is then too)."""
    nodes = tuple(sorted({tr.agent_id for tr in tracks}))
    by_id = {tr.agent_id: tr for tr in tracks}
    if len(nodes) != len(tracks):
        raise DataError("duplicate agent ids in track list")
    edges = {}
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            ta, tb = by_id[a], by_id[b]
            common = np.intersect1d(ta.frames, tb.frames)
            if len(common) < cfg.min_overlap_frames:
                continue
            for probe in (common[0], common[-1]):
                d = np.linalg.norm(ta.position_at(probe) - tb.position_at(probe))
                if d > cfg.personal_distance:
                    break
            else:
                level = pairwise_intimacy(ta, tb, cfg)
                if level > 0.0:
                    edges[(a, b)] = level
    return nodes, edges


def velocity_at(traj, frame):
    """Backward difference to the previous point; forward at the first."""
    if len(traj) < 2:
        raise TooFewPointsError(
            f"agent {traj.agent_id!r} needs >= 2 points for a velocity query")
    i = traj.index_of_frame(frame)
    j0, j1 = (0, 1) if i == 0 else (i - 1, i)
    dt = traj.times[j1] - traj.times[j0]
    return (traj.positions[j1] - traj.positions[j0]) / dt


def group_emotion(members, frame, cfg):
    """Logistic of 1 + mean pair cosine - mean pair speed difference - n,
    pair terms added in i-major, j-minor order."""
    n = len(members)
    if n == 0:
        raise DataError("group needs at least one member")
    if n == 1:
        return 1.0
    vels = np.stack([velocity_at(tr, frame) for tr in members])
    speeds = np.linalg.norm(vels, axis=1)
    cos_sum = 0.0
    speed_diff_sum = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if speeds[i] > _STILL_SPEED and speeds[j] > _STILL_SPEED:
                cos_sum += float(vels[i] @ vels[j]) / (speeds[i] * speeds[j])
            speed_diff_sum += abs(speeds[i] - speeds[j])
    pairs = n * (n - 1)
    score = 1.0 + cos_sum / pairs - speed_diff_sum / pairs - n
    try:
        return 1.0 / (1.0 + math.exp(-score))
    except OverflowError:
        return 0.0


def emotion_for_prediction(members, cfg):
    """Per-frame emotion averaged over the trailing co-present frames."""
    if len(members) == 1:
        return 1.0
    center = group_center_trajectory(members)
    frames = center.frames[-EMOTION_WINDOW_FRAMES:]
    values = [group_emotion(members, int(f), cfg) for f in frames]
    return float(np.mean(values))
