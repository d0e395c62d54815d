"""End-to-end prediction at a single endtime.

Given the tracks known up to an endtime and a historical database, this
module detects groups in the known window, computes each group's emotion and
member offsets, retrieves candidate destinations, rolls every candidate out
jointly with the other groups, and reconstructs member trajectories. Both
the CLI and the experiment runner call into here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Config, SceneGeometry, Trajectory, TrajectoryDatabase, velocity_at
from .dynamics import (
    ForceParams,
    GroupInit,
    ReconstructionPolicy,
    predict_group_trajectory,
    reconstruct_members,
)
from .grouping import build_intimacy_graph, extract_groups, make_group_state
from .retrieval import candidate_destinations, linear_continuation


@dataclass(frozen=True)
class CandidateRollout:
    """One rolled-out candidate: destination, where it came from, the group
    trajectory driven to it, and the reconstructed member trajectories."""

    destination: np.ndarray
    provenance: str
    score: float | None
    group_trajectory: Trajectory
    member_trajectories: dict


@dataclass(frozen=True)
class GroupPrediction:
    """All candidates for one group at one endtime."""

    members: tuple
    emotion: float
    center_known: Trajectory
    member_offsets: dict
    desired_speed: float
    candidates: tuple

    @property
    def n_candidates(self) -> int:
        return len(self.candidates)


def known_window_tracks(tracks: list, endtime: int, cfg: Config) -> list:
    """Tracks restricted to the known window, keeping only agents present at
    every frame of it.

    Frames strictly increase, so a track whose first window frame sits at
    index i covers the whole window exactly when the frame T - 1 places
    later is the endtime.
    """
    steps = cfg.known_time_steps
    first = endtime - steps + 1
    out = []
    for tr in tracks:
        i = int(np.searchsorted(tr.frames, first))
        if i + steps <= len(tr) and tr.frames[i + steps - 1] == endtime:
            window = slice(i, i + steps)
            out.append(Trajectory(tr.agent_id, tr.frames[window],
                                  tr.times[window], tr.positions[window]))
    return out


def mean_speed(traj: Trajectory) -> float:
    """Mean per-step speed along a track."""
    if len(traj) < 2:
        return 0.0
    seg = np.linalg.norm(np.diff(traj.positions, axis=0), axis=1)
    dt = np.diff(traj.times)
    return float(np.mean(seg / dt))


def predict_at_endtime(tracks: list, endtime: int, db: TrajectoryDatabase,
                       cfg: Config, params: ForceParams, scene: SceneGeometry,
                       mode: str = "rigid", seed: int = 0) -> list:
    """Predict every group present over the known window ending at ``endtime``.

    Groups are detected on the known window only. Each group queries the
    database with its center pose for candidate destinations (its own
    members excluded) and rolls all its candidates out in one batched call,
    jointly with the other groups, which head for their straight-line
    continuations. Returns a ``GroupPrediction`` per group; empty when no
    agent covers the window.
    """
    known = known_window_tracks(tracks, endtime, cfg)
    if not known:
        return []
    by_id = {tr.agent_id: tr for tr in known}
    graph = build_intimacy_graph(known, cfg)
    states = [make_group_state([by_id[m] for m in members], cfg)
              for members in extract_groups(graph)]

    inits = []
    for st in states:
        center = st.center_trajectory
        speed = max(mean_speed(center), params.speed_floor)
        inits.append(GroupInit(center.positions[-1].copy(),
                               linear_continuation(center, cfg),
                               speed,
                               velocity_at(center, int(center.frames[-1]))))

    out = []
    for gi, st in enumerate(states):
        center = st.center_trajectory
        others = [init for gj, init in enumerate(inits) if gj != gi]
        cands = candidate_destinations(db, center, cfg, exclude=st.members)
        policy = ReconstructionPolicy.from_known_window(
            [by_id[m] for m in st.members], center, mode, seed)
        trajs = predict_group_trajectory(
            center.positions[-1], np.array([c.destination for c in cands]),
            inits[gi].speed, scene, others, cfg.predict_time_steps, params, cfg,
            initial_velocity=inits[gi].velocity, start_frame=endtime)
        rollouts = [
            CandidateRollout(cand.destination, cand.provenance, cand.score, traj,
                             reconstruct_members(traj, st.member_offsets,
                                                 st.emotion, policy))
            for cand, traj in zip(cands, trajs)]
        out.append(GroupPrediction(st.members, st.emotion, center,
                                   st.member_offsets, inits[gi].speed,
                                   tuple(rollouts)))
    return out
