"""Destination candidates retrieved from the historical track database.

A query pose (current position plus average movement direction) is scored
against the stored samples near it, found through the database's grid:
the destinations of the best-scoring samples, one per historical agent,
become candidate destinations. A straight-line continuation of the query
track is always appended as the final candidate so the set never depends
entirely on the database.
"""

from __future__ import annotations

import math
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

    A sample's score is its distance to the query over the neighborhood
    range, plus ``direction_weight * (1 - cos)`` between the average
    movement directions. Samples heading against the query (negative
    cosine) are rejected; a stationary query or sample drops the direction
    term. The query's own agent and ``exclude`` are dropped, each agent
    keeps its best sample by score, then step, and the agents are ranked by
    that score, then id (natural order). Returns ``(score, sample index)``
    pairs.

    The search is exact but reads only the samples near the query: it ranks
    the samples of a growing square of ``db.grid`` cells around the query
    position, until every sample outside the square must score strictly
    above the k-th best agent. A sample at distance d that is not rejected
    scores at least ``d / neighborhood_range + min(0, direction_weight)``,
    because ``1 - cos`` lies in [0, 1]; the test subtracts a rounding slack.
    The last square, if it comes to that, is the whole database.
    """
    if k is None:
        k = cfg.k_candidates
    if len(db) == 0 or k <= 0:
        return []
    grid = db.grid
    excluded = np.zeros(len(db.agent_ids), dtype=bool)
    excluded[db.codes_of([pose.agent_id, *exclude])] = True
    qn = float(np.sqrt(np.vecdot(pose.direction, pose.direction)))
    least = min(0.0, cfg.direction_weight)
    cell = grid.cell_of(pose.pos)
    h = max(grid.reach(cell), 1.0)
    while True:
        ids, whole = grid.square(cell, h)
        scores, best = _rank(db, pose, qn, cfg, ids, whole, excluded, k)
        if whole:
            break
        if len(best) < k:
            h = 2.0 * h + 1.0
            continue
        kth = float(scores[k - 1])
        d = grid.clearance(pose.pos, cell, h) / cfg.neighborhood_range
        if d + least - 1e-12 * (d + abs(least)) > kth:
            break
        # toward the square that clears the k-th score (one cell more for
        # the slack), at least one ring and at most doubling at a time:
        # the k-th score falls as the square grows. Where a ring more no
        # longer changes a huge h, the next square is the whole grid
        need = float(np.floor((kth - least) * cfg.neighborhood_range / grid.side)) + 2.0
        grown = max(h + 1.0, min(need, 2.0 * h + 1.0))
        h = grown if grown > h else math.inf
    return [(float(s), int(i)) for s, i in zip(scores, best)]


def _rank(db: TrajectoryDatabase, pose: QueryPose, qn: float, cfg: Config,
          ids: np.ndarray, whole: bool, excluded: np.ndarray, k: int) -> tuple:
    """Score the samples ``ids`` and rank their agents, leaving out the
    ``excluded`` agent codes: the scores and sample indices of the ``k``
    best agents' best samples (lowest score, then step, then index),
    ordered by score, then agent code. ``whole`` says ``ids`` is every
    sample in order, whose columns are then read in place."""
    columns = db.positions, db.direction_norms, db.agent_codes
    pos, norms, codes = columns if whole else (a.take(ids, axis=0) for a in columns)
    offset = pose.pos - pos
    score = np.sqrt(np.vecdot(offset, offset)) / cfg.neighborhood_range
    if qn >= STATIONARY_NORM:
        moving = np.flatnonzero(norms >= STATIONARY_NORM)
        cos = np.vecdot(db.directions.take(ids[moving], axis=0), pose.direction) / (
            qn * norms[moving])
        score[moving] += cfg.direction_weight * (1.0 - cos)
        # a rejected sample scores NaN and is never ranked
        score[moving[~(cos >= 0.0)]] = np.nan
    keep = np.flatnonzero(~(np.isnan(score) | excluded[codes]))
    # only samples up to a score that k agents reach can be among the k
    # best: the p lowest for the least p = k, 4k, 16k, ... whose samples
    # hold k agents
    kept, p = score[keep], k
    while p < len(keep):
        below = keep[kept <= np.partition(kept, p - 1)[p - 1]]
        if len(np.unique(codes[below])) >= k:
            keep = below
            break
        p *= 4
    keep = keep[np.lexsort((ids[keep], db.steps[ids[keep]], codes[keep], score[keep]))]
    _, first = np.unique(codes[keep], return_index=True)
    best = keep[np.sort(first)[:k]]
    return score[best], ids[best]


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
