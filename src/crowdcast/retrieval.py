"""Destination candidates retrieved from the historical track database.

A query pose (current position plus average movement direction) is scored
against every stored sample. Each stored track keeps its best sample, and
only these track minima are ranked: the destinations of the best ones, one
per historical agent, become candidate destinations. A straight-line
continuation of the query track is always appended as the final candidate so
the set never depends entirely on the database.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    STATIONARY_NORM,
    Config,
    TooFewPointsError,
    Trajectory,
    TrajectoryDatabase,
    average_direction,
    velocity_at,
)

LINEAR_PROVENANCE = "linear-continuation"


@dataclass(frozen=True)
class QueryPose:
    """What the database is searched with: where an agent is and where it
    has been heading on average."""

    agent_id: str
    pos: np.ndarray
    direction: np.ndarray


@dataclass(frozen=True)
class Candidate:
    """One candidate destination with its provenance.

    ``provenance`` names the historical agent and step the destination came
    from, or ``linear-continuation`` for the appended straight-line guess.
    ``score`` is the match score (lower is better); the linear candidate has
    no score.
    """

    destination: np.ndarray
    provenance: str
    score: float | None


def query_similar(db: TrajectoryDatabase, pose: QueryPose, cfg: Config,
                  k: int | None = None, exclude=()) -> list:
    """The ``k`` best-matching historical agents, one sample each.

    Every sample is scored: its distance to the query over the neighborhood
    range, plus ``direction_weight * (1 - cos)`` between the average
    movement directions. Samples heading against the query (negative
    cosine) are rejected; a stationary query or sample drops the direction
    term. Each stored track keeps its lowest score at its lowest step; the
    query's own agent and ``exclude`` are then dropped, and only these track
    minima are sorted, by score, then id (natural order), then step, so
    each agent keeps its best one. Returns ``(score, sample index)`` pairs.
    """
    if k is None:
        k = cfg.k_candidates
    if len(db) == 0 or k <= 0:
        return []
    offset = pose.pos - db.positions
    score = np.sqrt(np.vecdot(offset, offset)) / cfg.neighborhood_range
    qn = float(np.sqrt(np.vecdot(pose.direction, pose.direction)))
    if qn >= STATIONARY_NORM:
        moving = db.moving
        # ``take`` gathers the rows several times faster than ``[moving]``
        cos = np.vecdot(db.directions.take(moving, axis=0), pose.direction) / (
            qn * db.direction_norms[moving])
        score[moving] += cfg.direction_weight * (1.0 - cos)
        # a rejected sample scores NaN: fmin passes over it and no minimum
        # equals it
        score[moving[~(cos >= 0.0)]] = np.nan
    starts, n = db.track_starts, len(db)
    low = np.repeat(np.fmin.reduceat(score, starts), np.diff(starts, append=n))
    # each track's first, so lowest-step, sample at its minimum; n if none
    best = np.minimum.reduceat(np.where(score == low, np.arange(n), n), starts)
    best = best[best < n]
    best = best[~np.isin(db.agent_codes[best], db.codes_of([pose.agent_id, *exclude]))]
    best = best[np.lexsort((db.steps[best], db.agent_codes[best], score[best]))]
    _, first = np.unique(db.agent_codes[best], return_index=True)
    return [(float(score[i]), int(i)) for i in best[np.sort(first)[:k]]]


def query_pose(traj: Trajectory) -> QueryPose:
    """Query pose of a track: last position and the average movement
    direction at the final step."""
    if len(traj) == 0:
        raise TooFewPointsError(f"agent {traj.agent_id!r} has no point to query")
    direction = (average_direction(traj, len(traj)) if len(traj) >= 2
                 else np.zeros(2))
    return QueryPose(traj.agent_id, traj.positions[-1].copy(), direction)


def linear_continuation(traj: Trajectory, cfg: Config) -> np.ndarray:
    """Destination from continuing the track in a straight line.

    The last position is pushed along the normalized average movement
    direction (the :func:`query_pose`) at the current speed for the whole
    prediction horizon. A stationary track stays where it is.
    """
    pose = query_pose(traj)
    if len(traj) < 2:
        return pose.pos
    norm = float(np.linalg.norm(pose.direction))
    speed = float(np.linalg.norm(velocity_at(traj, int(traj.frames[-1]))))
    if norm < STATIONARY_NORM or speed < STATIONARY_NORM:
        return pose.pos
    horizon = cfg.predict_time_steps * cfg.step_duration
    return pose.pos + (pose.direction / norm) * speed * horizon


def candidate_destinations(db: TrajectoryDatabase, traj: Trajectory, cfg: Config,
                           exclude=()) -> list:
    """Candidate destinations for a track: up to ``k_candidates`` retrieved
    from the database plus the straight-line continuation, always last.
    """
    hits = query_similar(db, query_pose(traj), cfg, exclude=exclude)
    out = [Candidate(db.destinations[i].copy(),
                     f"db:{db.agent_ids[db.agent_codes[i]]}@step{db.steps[i]}",
                     score)
           for score, i in hits]
    out.append(Candidate(linear_continuation(traj, cfg), LINEAR_PROVENANCE, None))
    return out
