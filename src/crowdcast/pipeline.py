"""End-to-end prediction at a single endtime, as a chain of stages.

1. :func:`detect_groups` cuts the known window and divides its agents into
   groups, each with its center track, emotion and member offsets, in one
   array pass per group size over the window's (N, T, 2) positions;
2. :func:`group_candidates` retrieves each group's candidate destinations
   from a historical database;
3. :func:`predict_at_endtime` composes the two, rolls every group's
   candidates out in one call, jointly with the other groups, and
   reconstructs each group's members along all its candidates as one
   (C, M, T, 2) array. A ``GroupPrediction`` holds the retrieved
   candidates, the rollout's group trajectories and that array.

The CLI subcommands ``groups``, ``destinations`` and ``predict`` serialize
the first, second and full stage; the experiment runner scores the last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Config, SceneGeometry, Tracks, TrajectoryDatabase, final_velocity
from .dynamics import (ForceParams, ReconstructionPolicy, member_positions,
                       predict_group_trajectory)
from .grouping import build_intimacy_graph, extract_groups, window_group_states
from .retrieval import track_candidates


@dataclass(frozen=True)
class GroupPrediction:
    """All candidates for one group at one endtime: the retrieved
    ``candidates`` (``retrieval.Candidate``, the straight line last), the
    group trajectory driven to each, and ``member_points``, the read-only
    (C, M, T, 2) array of every candidate's members, in ``candidates`` and
    ``members`` order."""

    members: tuple
    emotion: float
    desired_speed: float
    candidates: tuple
    group_trajectories: tuple
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
    window. Every known track holds the window's T frames, so the states
    are :func:`window_group_states` of the stacked (N, T, 2) window: one
    gather and one emotion pass per group size, each state bit-equal to a
    ``make_group_state`` call on its members.
    """
    known = known_window_tracks(tracks, endtime, cfg)
    return known, window_group_states(known, extract_groups(build_intimacy_graph(known, cfg)))


def group_candidates(db: TrajectoryDatabase, states: list, cfg: Config) -> list:
    """Stage 2: each group's candidate destinations, in ``states`` order.

    Every group queries ``db`` with its center pose, its own members
    excluded, in one :func:`track_candidates` pass over the (G, T, 2)
    stack of the centers, which all cover the known window's T frames. A
    group's straight-line continuation is always its last candidate.
    """
    pos, times = _center_stack(states, cfg)
    return track_candidates(db, pos, times, [(st.center_trajectory.agent_id, *st.members)
                                             for st in states], cfg)


def _center_stack(states: list, cfg: Config) -> tuple:
    """The (G, T, 2) positions and (G, T) times of the groups' centers."""
    pos = np.reshape([st.center_trajectory.positions for st in states],
                     (len(states), cfg.known_time_steps, 2))
    times = np.reshape([st.center_trajectory.times for st in states],
                       (len(states), cfg.known_time_steps))
    return pos, times


def predict_at_endtime(tracks: list, endtime: int, db: TrajectoryDatabase,
                       cfg: Config, params: ForceParams, scene: SceneGeometry,
                       mode: str = "rigid", seed: int = 0) -> list:
    """Predict every group present over the known window ending at ``endtime``.

    Runs :func:`detect_groups` and :func:`group_candidates`, then rolls
    every group's candidates out in one :func:`predict_group_trajectory`
    call with every group as a subject: each candidate is simulated jointly
    with the other groups of its reach component, which head for their
    straight-line continuations. The desired speed is the center's mean
    speed, floored at ``params.speed_floor``, and the initial velocity its
    last step's; both are one array pass over the centers' stack. Each
    group's members along all its candidates are one
    :func:`member_positions` array. Returns a ``GroupPrediction`` per
    group; empty when no agent covers the window.
    """
    known, states = detect_groups(tracks, endtime, cfg)
    pos, times = _center_stack(states, cfg)
    cands = group_candidates(db, states, cfg)
    by_id = {tr.agent_id: tr for tr in known}
    # each row's mean keeps the bits of the 1-D mean of its per-step speeds
    speeds = np.maximum((np.linalg.norm(np.diff(pos, axis=1), axis=-1)
                         / np.diff(times, axis=1)).mean(axis=1), params.speed_floor)
    trajs = predict_group_trajectory(
        pos[:, -1], [np.array([c.destination for c in group]) for group in cands],
        speeds, scene, [], cfg.predict_time_steps, params, cfg,
        initial_velocity=final_velocity(pos, times), start_frame=endtime)

    out = []
    for st, group_cands, speed, group_trajs in zip(states, cands, speeds.tolist(), trajs):
        policy = ReconstructionPolicy.from_known_window(
            [by_id[m] for m in st.members], st.center_trajectory, st.member_offsets,
            mode, seed)
        points = member_positions(np.stack([t.positions for t in group_trajs]),
                                  st.member_offsets, st.emotion, policy)
        out.append(GroupPrediction(st.members, st.emotion, speed, tuple(group_cands),
                                   tuple(group_trajs), points))
    return out
