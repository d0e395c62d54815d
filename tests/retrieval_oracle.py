"""Scalar reference for destination retrieval: one sample at a time.

``query_similar`` must return exactly what this returns, scores bit for bit.
"""

from __future__ import annotations

import numpy as np

from crowdcast.core import natural_key

_STATIONARY_NORM = 1e-9


def sample_score(pose, pos, direction, cfg):
    """Match score of one sample, or None when it heads against the query."""
    dist = float(np.linalg.norm(pose.pos - pos))
    score = dist / cfg.neighborhood_range
    qn = float(np.linalg.norm(pose.direction))
    sn = float(np.linalg.norm(direction))
    if qn < _STATIONARY_NORM or sn < _STATIONARY_NORM:
        return score
    cos = float(pose.direction @ direction) / (qn * sn)
    if cos < 0.0:
        return None
    return score + cfg.direction_weight * (1.0 - cos)


def scan_similar(db, pose, cfg, k=None, exclude=()):
    """Score every sample, keep the best one per agent, return the ``k``
    best agents as ``(score, sample index)`` pairs ranked by score, agent id
    (natural order), then step."""
    if k is None:
        k = cfg.k_candidates
    drop = set(exclude) | {pose.agent_id}
    best = {}
    for i in range(len(db)):
        agent = db.agent_ids[db.agent_codes[i]]
        if agent in drop:
            continue
        score = sample_score(pose, db.positions[i], db.directions[i], cfg)
        if score is None:
            continue
        step = int(db.steps[i])
        cur = best.get(agent)
        if cur is None or (score, step) < cur[:2]:
            best[agent] = (score, step, i)
    ranked = sorted(best.items(), key=lambda kv: (kv[1][0], natural_key(kv[0]),
                                                  kv[0], kv[1][1]))
    return [(score, i) for _, (score, _, i) in ranked[:k]]
