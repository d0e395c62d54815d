"""Destination candidates retrieved from the historical track database.

A query pose (current position plus average movement direction) is scored
against the stored samples near it, found through the database's grid:
the destinations of the best-scoring samples, one per historical agent,
become candidate destinations. A straight-line continuation of the query
track is always appended as the final candidate so the set never depends
entirely on the database.

Every query of a window is answered in one array pass:
:func:`track_candidates` takes a (G, T, 2) stack of tracks and
:func:`rank_queries` ranks all their poses at once. :func:`query_similar`,
:func:`candidate_destinations`, :func:`query_pose` and
:func:`linear_continuation` are their one-query calls, with the same bits.
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
    _directions,
    final_velocity,
)

LINEAR_PROVENANCE = "linear-continuation"

# (query, sample) rows that one block of queries scores at once; a query
# whose square holds more is a block of its own
_BLOCK_ROWS = 1 << 16


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


def rank_queries(db: TrajectoryDatabase, positions, directions, excluded,
                 cfg: Config, k: int | None = None) -> tuple:
    """The ``k`` best-matching historical agents of each query, one sample
    each.

    Query q is at ``positions[q]`` heading ``directions[q]`` (both (Q, 2));
    the agents with the ids in ``excluded[q]`` are dropped from its ranking.
    A sample's score is its distance to the query over the neighborhood
    range, plus ``direction_weight * (1 - cos)`` between the average
    movement directions. Samples heading against the query (negative
    cosine) are rejected; a stationary query or sample drops the direction
    term. Each agent keeps its best sample by score, then step, and the
    agents are ranked by that score, then id (natural order). Returns the
    query, score and sample index of every hit, by query, then rank.

    The search is exact but reads only the samples near each query: it
    ranks the samples of a growing square of ``db.grid`` cells around the
    query position, until every sample outside the square must score
    strictly above the k-th best agent. A sample at distance d that is not
    rejected scores at least ``d / neighborhood_range + min(0,
    direction_weight)``, because ``1 - cos`` lies in [0, 1]; the test
    subtracts a rounding slack. The last square, if it comes to that, is
    the whole grid. Every round ranks the squares of all the queries still
    open at once, in blocks of about ``_BLOCK_ROWS`` rows, and only the
    queries that fail the test go round again.

    The grid is the run's ladder level holding the database
    (:meth:`~crowdcast.core.Tracks.sample_grid`): its rows are the run's
    table rows, read there. A row at or past the database's frame limit,
    in the window's future, is dropped by its frame before anything of it
    is gathered or scored. Agents are ranked by run code, in the same
    natural order.
    """
    q, score, rows = _search(db, positions, directions, excluded, cfg, k)
    return q, score, db.index_of(rows)


def _search(db: TrajectoryDatabase, positions, directions, excluded, cfg: Config,
            k: int | None = None) -> tuple:
    """:func:`rank_queries` with each hit's table row for its sample index."""
    if k is None:
        k = cfg.k_candidates
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    directions = np.asarray(directions, dtype=np.float64).reshape(-1, 2)
    if len(db) == 0 or k <= 0 or not len(positions):
        return np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0, dtype=np.intp)
    grid, tracks, limit = db.grid, db.tracks, db.limit
    agents = len(tracks.agent_ids)
    # the excluded agents as sorted (query, run code) keys
    dropped = np.sort(np.concatenate([np.zeros(0, dtype=np.int64)] + [
        q * agents + tracks.codes_of(ids) for q, ids in enumerate(excluded)]))
    norms = np.sqrt(np.vecdot(directions, directions))
    least = min(0.0, cfg.direction_weight)
    cells = grid.cell_of(positions)
    cells[~np.isfinite(cells).all(axis=1)] = np.nan    # its square is the whole grid
    h = np.fmax(grid.reach(cells), 1.0)
    active = np.arange(len(positions))
    hits = []
    while True:
        whole, owner, first, count, clear = grid.squares(positions[active], cells, h)
        rows = np.bincount(owner, count, minlength=len(active))
        rows[whole] = len(db)
        ranked = []
        for a, b in _blocks(rows):
            cols = slice(*owner.searchsorted((a, b)))
            ids = grid.samples(first[cols], count[cols])
            query = np.repeat(active[owner[cols]], count[cols])
            now = tracks.frames[ids] < limit        # the window's own samples only
            ids, query = ids[now], query[now]
            if whole[a:b].any():
                every = active[a:b][whole[a:b]]
                if b - a == 1:      # the database's rows, read in place
                    query, ids = every[0], db.order
                else:
                    ids = np.concatenate([ids, np.tile(db.order, every.size)])
                    query = np.concatenate([query, np.repeat(every, len(db))])
            ranked.append(_rank(db, cfg, k, dropped, positions, directions, norms,
                                query, ids))
        q, score, row = ranked[0] if len(ranked) == 1 else (
            np.concatenate(x) for x in zip(*ranked))
        count = np.bincount(q, minlength=len(positions))[active]
        full = (count >= k) & ~whole
        kth = score[q.searchsorted(active[full]) + (k - 1)]
        # a whole-grid square is done, and a full one once it clears its kth
        d = clear[full] / cfg.neighborhood_range
        done = whole
        done[full] = d + least - 1e-12 * (d + abs(least)) > kth
        if done.all():
            hits.append((q, score, row))
            break
        closed = np.zeros(len(positions), dtype=bool)
        closed[active[done]] = True
        last = closed[q]
        hits.append((q[last], score[last], row[last]))
        # a square short of k agents grows four times as wide. Else it
        # grows toward the square that clears the k-th score (one cell more
        # for the slack), at least one ring and at most four times as wide
        # at a time: the k-th score falls as the square grows. Where a ring
        # more no longer changes a huge h, the next square is the whole grid
        grown = 4.0 * h + 3.0
        need = np.floor((kth - least) * cfg.neighborhood_range / grid.side) + 2.0
        grown[full] = np.maximum(h[full] + 1.0, np.minimum(need, grown[full]))
        h = np.where(grown > h, grown, np.inf)[~done]
        active, cells = active[~done], cells[~done]
    if len(hits) == 1:
        return hits[0]
    q, score, row = (np.concatenate(a) for a in zip(*hits))
    order = np.argsort(q, kind="stable")
    return q[order], score[order], row[order]


def _blocks(rows: np.ndarray) -> list:
    """Consecutive ``[a, b)`` runs of queries, each holding at most
    ``_BLOCK_ROWS`` of the queries' ``rows`` or one query that holds more."""
    out, a, held = [], 0, 0
    for j, r in enumerate(rows.tolist()):
        if held and held + r > _BLOCK_ROWS:
            out.append((a, j))
            a, held = j, 0
        held += r
    out.append((a, len(rows)))
    return out


def _rank(db: TrajectoryDatabase, cfg: Config, k: int, dropped: np.ndarray,
          positions: np.ndarray, directions: np.ndarray, norms: np.ndarray,
          query, ids) -> tuple:
    """Score the (``query[r]``, table row ``ids[r]``) rows of one block,
    every row a sample of the database, and rank each query's agents,
    leaving out the ``dropped`` (query, run code) keys. Returns the query,
    score and table row of each query's ``k`` best agents' best samples
    (lowest score, then step, then row), by query, then score, then agent
    code. ``query`` is one index for one query whose square is the whole
    grid, whose rows are then the database's ``order``."""
    tracks = db.tracks
    track = tracks.owners.take(ids)
    index = ids - tracks.starts.take(track)
    p = tracks.positions.take(ids, axis=0)
    sample_norms = tracks.direction_norms.take(ids)
    offset = positions.take(query, axis=0) - p
    score = np.sqrt(np.vecdot(offset, offset)) / cfg.neighborhood_range
    qn = norms[query]
    moving = (qn >= STATIONARY_NORM) & (sample_norms >= STATIONARY_NORM)
    cos = np.vecdot(tracks.directions.take(ids, axis=0), directions.take(query, axis=0))
    np.divide(cos, qn * sample_norms, out=cos, where=moving)
    score += np.where(moving, cfg.direction_weight * (1.0 - cos), 0.0)
    # a rejected sample scores NaN and is never ranked
    score[moving & ~(cos >= 0.0)] = np.nan
    q = query if np.ndim(query) else np.broadcast_to(query, score.shape)
    codes = tracks.codes.take(track)
    key = query * len(tracks.agent_ids) + codes
    out = np.isnan(score)
    if dropped.size:
        out |= dropped[np.minimum(dropped.searchsorted(key), dropped.size - 1)] == key
    keep = (~out).nonzero()[0]
    if np.ndim(query) == 0 or len(score) > _BLOCK_ROWS:
        # a block of one query, its whole grid or over the budget
        # (:func:`_blocks`): only samples up to a score that k agents reach
        # can be among its k best, the p lowest for the least p = k, 4k,
        # 16k, ... whose samples hold k agents. Several queries' rows have
        # no one such score, and one query's small square sorts faster
        # than it prunes
        kept, p = score[keep], k
        while p < len(keep):
            below = keep[kept <= np.partition(kept, p - 1)[p - 1]]
            if len(np.unique(codes[below])) >= k:
                keep = below
                break
            p *= 4
    # each (query, agent)'s best sample is the first of its key's run ...
    keep = keep[np.lexsort((ids[keep], index[keep], score[keep], key[keep]))]
    run = key[keep]
    first = np.ones(len(run), dtype=bool)
    np.not_equal(run[1:], run[:-1], out=first[1:])
    best = keep[first]
    # ... and each query keeps the first k of those by score, then code
    best = best[np.lexsort((key[best], score[best], q[best]))]
    qb = q[best]
    best = best[np.arange(len(best)) - qb.searchsorted(qb) < k]
    return q[best], score[best], ids[best]


def query_similar(db: TrajectoryDatabase, pose: QueryPose, cfg: Config,
                  k: int | None = None, exclude=()) -> list:
    """The ``k`` best-matching historical agents for one pose, its own
    agent and ``exclude`` dropped, as ``(score, sample index)`` pairs: the
    one-query call of :func:`rank_queries`."""
    _, score, index = rank_queries(db, pose.pos, pose.direction,
                                   [(pose.agent_id, *exclude)], cfg, k)
    return list(zip(score.tolist(), index.tolist()))


def _poses(positions: np.ndarray) -> tuple:
    """Query positions and directions of (G, T, 2) tracks, T >= 1: the last
    point and the average movement direction at it (zero for one finite
    point)."""
    return positions[:, -1].copy(), _directions(positions)[:, -1]


def _continuations(positions: np.ndarray, times: np.ndarray, pos: np.ndarray,
                   direction: np.ndarray, cfg: Config) -> np.ndarray:
    """Destinations from continuing each (G, T, 2) track at (G, T) times in a
    straight line: the last position pushed along the normalized average
    movement direction at the final speed for the whole prediction
    horizon. A stationary or one-point track stays where it is."""
    out = pos.copy()
    if positions.shape[1] < 2:
        return out
    v = final_velocity(positions, times)
    norm, speed = np.sqrt(np.vecdot(direction, direction)), np.sqrt(np.vecdot(v, v))
    moving = ~((norm < STATIONARY_NORM) | (speed < STATIONARY_NORM))
    horizon = cfg.predict_time_steps * cfg.step_duration
    out[moving] = pos[moving] + (direction[moving] / norm[moving, None]) \
        * speed[moving, None] * horizon
    return out


def _stack(traj: Trajectory) -> tuple:
    """One track as a (1, N, 2) and (1, N) stack; it needs a point."""
    if len(traj) == 0:
        raise TooFewPointsError(f"agent {traj.agent_id!r} has no point to query")
    return traj.positions[None], traj.times[None]


def query_pose(traj: Trajectory) -> QueryPose:
    """Query pose of a track: last position and the average movement
    direction at the final step."""
    pos, direction = _poses(_stack(traj)[0])
    return QueryPose(traj.agent_id, pos[0], direction[0])


def linear_continuation(traj: Trajectory, cfg: Config) -> np.ndarray:
    """Destination from continuing the track in a straight line.

    The last position is pushed along the normalized average movement
    direction (the :func:`query_pose`) at the current speed for the whole
    prediction horizon. A stationary track stays where it is.
    """
    positions, times = _stack(traj)
    return _continuations(positions, times, *_poses(positions), cfg)[0]


def track_candidates(db: TrajectoryDatabase, positions: np.ndarray, times: np.ndarray,
                     excluded, cfg: Config) -> list:
    """Candidate destinations for each of the (G, T, 2) tracks
    ``positions`` at (G, T) ``times``, T >= 1: up to ``k_candidates``
    retrieved from the database by one :func:`rank_queries` call over the
    tracks' query poses, the agents with the ids in ``excluded[g]`` dropped,
    plus the straight-line continuation, always last."""
    pos, direction = _poses(positions)
    lines = _continuations(positions, times, pos, direction, cfg)
    q, score, rows = _search(db, pos, direction, excluded, cfg)
    # each hit's agent and step from its row, its destination the last
    # stored point of its track
    tracks = db.tracks
    track = tracks.owners[rows]
    last = db.last_rows(track)
    steps = rows - tracks.starts[track] + 1
    out = [[] for _ in range(len(pos))]
    for g, dest, t, step, s in zip(q.tolist(), tracks.positions.take(last, axis=0),
                                   track.tolist(), steps.tolist(), score.tolist()):
        out[g].append(Candidate(dest, f"db:{tracks[t].agent_id}@step{step}", s))
    for group, line in zip(out, lines):
        group.append(Candidate(line, LINEAR_PROVENANCE, None))
    return out


def candidate_destinations(db: TrajectoryDatabase, traj: Trajectory, cfg: Config,
                           exclude=()) -> list:
    """Candidate destinations for a track: up to ``k_candidates`` retrieved
    from the database, its own agent and ``exclude`` dropped, plus the
    straight-line continuation, always last: the one-track call of
    :func:`track_candidates`.
    """
    return track_candidates(db, *_stack(traj), [(traj.agent_id, *exclude)], cfg)[0]
