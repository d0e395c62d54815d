"""End-to-end prediction at a single endtime, as a chain of stages.

1. :func:`detect_groups` cuts the known window and divides its agents into
   groups, each with its center track, emotion and member offsets;
2. :func:`group_candidates` retrieves each group's candidate destinations
   from a historical database;
3. :func:`predict_at_endtime` composes the two, rolls every group's
   candidates out jointly with the other groups, and reconstructs member
   trajectories.

The CLI subcommands ``groups``, ``destinations`` and ``predict`` serialize
the first, second and full stage; the experiment runner scores the last.
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
from .retrieval import candidate_destinations


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
    desired_speed: float
    candidates: tuple
    known: tuple  # the members' known-window tracks, in ``members`` order


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


def detect_groups(tracks: list, endtime: int, cfg: Config) -> tuple:
    """Stage 1: the known window ending at ``endtime`` and its groups.

    Returns the known tracks (:func:`known_window_tracks`) and one
    ``GroupState`` per connected component of their closeness graph, in
    ``extract_groups`` order; both are empty when no agent covers the
    window.
    """
    known = known_window_tracks(tracks, endtime, cfg)
    by_id = {tr.agent_id: tr for tr in known}
    states = [make_group_state([by_id[m] for m in members], cfg)
              for members in extract_groups(build_intimacy_graph(known, cfg))]
    return known, states


def group_candidates(db: TrajectoryDatabase, states: list, cfg: Config) -> list:
    """Stage 2: each group's candidate destinations, in ``states`` order.

    A group queries ``db`` with its center pose, its own members excluded;
    its straight-line continuation is always its last candidate.
    """
    return [candidate_destinations(db, st.center_trajectory, cfg, exclude=st.members)
            for st in states]


def predict_at_endtime(tracks: list, endtime: int, db: TrajectoryDatabase,
                       cfg: Config, params: ForceParams, scene: SceneGeometry,
                       mode: str = "rigid", seed: int = 0) -> list:
    """Predict every group present over the known window ending at ``endtime``.

    Runs :func:`detect_groups` and :func:`group_candidates`, then rolls each
    group's candidates out in one batched call, jointly with the other
    groups, which head for their straight-line continuations. The desired
    speed is the center's mean speed, floored at ``params.speed_floor``.
    Returns a ``GroupPrediction`` per group; empty when no agent covers the
    window.
    """
    known, states = detect_groups(tracks, endtime, cfg)
    cands = group_candidates(db, states, cfg)
    by_id = {tr.agent_id: tr for tr in known}
    inits = []
    for st, group_cands in zip(states, cands):
        center = st.center_trajectory
        inits.append(GroupInit(center.positions[-1].copy(),
                               group_cands[-1].destination,
                               max(mean_speed(center), params.speed_floor),
                               velocity_at(center, int(center.frames[-1]))))

    out = []
    for gi, (st, group_cands, init) in enumerate(zip(states, cands, inits)):
        member_known = tuple(by_id[m] for m in st.members)
        policy = ReconstructionPolicy.from_known_window(
            member_known, st.center_trajectory, st.member_offsets, mode, seed)
        trajs = predict_group_trajectory(
            init.pos, np.array([c.destination for c in group_cands]),
            init.speed, scene, inits[:gi] + inits[gi + 1:],
            cfg.predict_time_steps, params, cfg,
            initial_velocity=init.velocity, start_frame=endtime)
        rollouts = [
            CandidateRollout(cand.destination, cand.provenance, cand.score, traj,
                             reconstruct_members(traj, st.member_offsets,
                                                 st.emotion, policy))
            for cand, traj in zip(group_cands, trajs)]
        out.append(GroupPrediction(st.members, st.emotion, init.speed,
                                   tuple(rollouts), member_known))
    return out
