"""End-to-end prediction at a single endtime, as a chain of stages.

1. :func:`detect_groups` cuts the known window and divides its agents into
   groups, each with its center track, emotion and member offsets;
2. :func:`group_candidates` retrieves each group's candidate destinations
   from a historical database;
3. :func:`predict_at_endtime` composes the two, rolls every group's
   candidates out in one call, jointly with the other groups, and
   reconstructs each group's members along all its candidates as one
   (C, M, T, 2) array.

The CLI subcommands ``groups``, ``destinations`` and ``predict`` serialize
the first, second and full stage; the experiment runner scores the last.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (Config, SceneGeometry, Tracks, Trajectory, TrajectoryDatabase,
                   final_velocity)
from .dynamics import (
    ForceParams,
    ReconstructionPolicy,
    member_positions,
    member_trajectories,
    predict_group_trajectory,
    reach_edges,
)
from .grouping import build_intimacy_graph, extract_groups, make_group_state
from .retrieval import candidate_destinations


@dataclass(frozen=True)
class CandidateRollout:
    """One rolled-out candidate: destination, where it came from, the group
    trajectory driven to it, and the reconstructed members: their read-only
    (M, T, 2) ``member_points`` in ``members`` order, as trajectories on
    first use."""

    destination: np.ndarray
    provenance: str
    score: float | None
    group_trajectory: Trajectory
    members: tuple
    member_points: np.ndarray

    @cached_property
    def member_trajectories(self) -> dict:
        return member_trajectories(self.group_trajectory, self.members, self.member_points)


@dataclass(frozen=True)
class GroupPrediction:
    """All candidates for one group at one endtime. ``member_points`` is
    the read-only (C, M, T, 2) array of every candidate's members, in
    ``candidates`` and ``members`` order."""

    members: tuple
    emotion: float
    desired_speed: float
    candidates: tuple
    member_points: np.ndarray


def known_window_tracks(tracks, endtime: int, cfg: Config) -> list:
    """Tracks restricted to the known window, keeping only agents present at
    every frame of it, in input order: :meth:`Trajectory.span` views, no
    copy. ``tracks`` is converted once by :meth:`Tracks.of`."""
    tracks = Tracks.of(tracks)
    steps = cfg.known_time_steps
    hits, rows = tracks.covering(endtime - steps + 1, steps)
    return [tracks[t].span(i, i + steps) for t, i in zip(hits.tolist(), rows.tolist())]


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

    Runs :func:`detect_groups` and :func:`group_candidates`, then rolls
    every group's candidates out in one :func:`predict_group_trajectory`
    call with every group as a subject: each candidate is simulated jointly
    with the other groups of its reach component, which head for their
    straight-line continuations. The window's reach graph
    (:func:`reach_edges`) is built once. The desired speed is the center's
    mean speed, floored at ``params.speed_floor``, and the initial velocity
    its last step's; both are one array pass over the centers, which all
    cover the known window's frames. Each group's members along all its
    candidates are one :func:`member_positions` array. Returns a
    ``GroupPrediction`` per group; empty when no agent covers the window.
    """
    known, states = detect_groups(tracks, endtime, cfg)
    cands = group_candidates(db, states, cfg)
    by_id = {tr.agent_id: tr for tr in known}
    # every center covers the known window's T frames: (G, T) stacks
    pos = np.reshape([st.center_trajectory.positions for st in states],
                     (len(states), cfg.known_time_steps, 2))
    times = np.reshape([st.center_trajectory.times for st in states],
                       (len(states), cfg.known_time_steps))
    # each row's mean keeps the bits of the 1-D mean of its per-step speeds
    speeds = np.maximum((np.linalg.norm(np.diff(pos, axis=1), axis=-1)
                         / np.diff(times, axis=1)).mean(axis=1), params.speed_floor)
    edges = reach_edges(pos[:, -1], params.max_speed_for(speeds),
                        params.neighborhood_range,
                        cfg.predict_time_steps * cfg.step_duration)
    trajs = predict_group_trajectory(
        pos[:, -1], [np.array([c.destination for c in group]) for group in cands],
        speeds, scene, [], cfg.predict_time_steps, params, cfg,
        initial_velocity=final_velocity(pos, times), start_frame=endtime, edges=edges)

    out = []
    for st, group_cands, speed, group_trajs in zip(states, cands, speeds.tolist(), trajs):
        policy = ReconstructionPolicy.from_known_window(
            [by_id[m] for m in st.members], st.center_trajectory, st.member_offsets,
            mode, seed)
        points = member_positions(np.stack([t.positions for t in group_trajs]),
                                  st.member_offsets, st.emotion, policy)
        rollouts = tuple(
            CandidateRollout(cand.destination, cand.provenance, cand.score, traj,
                             st.members, p)
            for cand, traj, p in zip(group_cands, group_trajs, points))
        out.append(GroupPrediction(st.members, st.emotion, speed, rollouts, points))
    return out
