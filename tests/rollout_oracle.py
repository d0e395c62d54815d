"""Dense reference for the force rollout: one candidate, every group.

Every call simulates the subject together with all other groups, with full
G×G pair matrices, and finds obstacle contacts one body at a time with the
scalar geometry below. ``predict_group_trajectory`` in ``crowdcast.dynamics``
must return exactly what this returns, one candidate at a time, and
``SceneGeometry.obstacle_contacts`` exactly what ``obstacle_contacts`` here
returns, point by point. :func:`block_states` is the per-subject reference
for the chunk states ``predict_group_trajectory`` builds before it advances
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from crowdcast import dynamics
from crowdcast.core import Trajectory

_EXP_CAP = 50.0
_COINCIDENT = 1e-9
_NUDGE = 1e-6


@dataclass
class SimState:
    positions: np.ndarray
    velocities: np.ndarray
    destinations: np.ndarray
    desired_speeds: np.ndarray
    max_speeds: np.ndarray
    arrived: np.ndarray

    def copy(self) -> "SimState":
        return SimState(self.positions.copy(), self.velocities.copy(),
                        self.destinations.copy(), self.desired_speeds.copy(),
                        self.max_speeds.copy(), self.arrived.copy())

    @property
    def n_groups(self) -> int:
        return self.positions.shape[0]


def make_sim_state(positions, velocities, destinations, desired_speeds,
                   params) -> SimState:
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 2).copy()
    vel = np.asarray(velocities, dtype=np.float64).reshape(-1, 2).copy()
    dest = np.asarray(destinations, dtype=np.float64).reshape(-1, 2).copy()
    spd = np.asarray(desired_speeds, dtype=np.float64).reshape(-1).copy()
    caps = np.array([params.max_speed_for(s) for s in spd])
    norms = np.linalg.norm(vel, axis=1)
    over = norms > caps
    if np.any(over):
        vel[over] *= (caps[over] / norms[over])[:, None]
    arrived = np.linalg.norm(pos - dest, axis=1) <= params.radius
    vel[arrived] = 0.0
    return SimState(pos, vel, dest, spd, caps, arrived)


def _forces(state: SimState, scene, params, h: float) -> tuple:
    n = state.n_groups
    pos = state.positions
    active = ~state.arrived

    to_dest = state.destinations - pos
    dist = np.linalg.norm(to_dest, axis=1)
    far = dist > _COINCIDENT
    v_des = np.zeros((n, 2))
    v_des[far] = (to_dest[far] / dist[far, None]
                  * np.minimum(state.desired_speeds[far], dist[far] / h)[:, None])
    forces = params.mass * (v_des - state.velocities) / params.relaxation_time

    delta = pos[:, None, :] - pos[None, :, :]
    dmat = np.linalg.norm(delta, axis=2)
    np.fill_diagonal(dmat, np.inf)
    pair = (dmat < params.neighborhood_range) & (dmat >= _COINCIDENT)
    if np.any(pair):
        exponent = np.minimum((2.0 * params.radius - dmat) / params.repulsion_range,
                              _EXP_CAP)
        mag = np.where(pair, params.repulsion_strength * np.exp(exponent), 0.0)
        unit = np.zeros_like(delta)
        np.divide(delta, dmat[:, :, None], out=unit,
                  where=pair[:, :, None])
        forces += (mag[:, :, None] * unit).sum(axis=1)
    nudge_rows = np.nonzero((dmat < _COINCIDENT).any(axis=1) & active)[0].tolist()

    if not scene.is_empty:
        for i in range(n):
            if not active[i]:
                continue
            for point, signed_d in obstacle_contacts(scene, pos[i]):
                away = pos[i] - point
                away_len = float(np.linalg.norm(away))
                if away_len < _COINCIDENT:
                    continue
                away /= away_len
                if signed_d < 0.0:
                    away = -away
                exponent = min((2.0 * params.radius - signed_d)
                               / params.obstacle_range, _EXP_CAP)
                forces[i] += params.obstacle_strength * np.exp(exponent) * away
    forces[~active] = 0.0
    return forces, nudge_rows


def obstacle_contacts(scene, p: np.ndarray) -> list:
    """Nearest boundary point and signed distance for every obstacle.

    Returns (point, signed_distance) pairs; the distance is negative when
    p lies inside a polygon.
    """
    p = np.asarray(p, dtype=np.float64)
    out = []
    for seg in scene.segments:
        q = _nearest_on_segment(p, seg[0], seg[1])
        out.append((q, float(np.linalg.norm(p - q))))
    for poly in scene.polygons:
        q, d = _nearest_on_ring(p, poly)
        if _inside_convex(p, poly):
            d = -d
        out.append((q, d))
    return out


def _nearest_on_segment(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = b - a
    denom = float(ab @ ab)
    if denom < 1e-18:
        return a
    t = float((p - a) @ ab) / denom
    return a + min(1.0, max(0.0, t)) * ab


def _nearest_on_ring(p: np.ndarray, ring: np.ndarray):
    best_q = None
    best_d = math.inf
    for i in range(len(ring)):
        q = _nearest_on_segment(p, ring[i], ring[(i + 1) % len(ring)])
        d = float(np.linalg.norm(p - q))
        if d < best_d:
            best_q, best_d = q, d
    return best_q, best_d


def _inside_convex(p: np.ndarray, ring: np.ndarray) -> bool:
    sign = 0
    for i in range(len(ring)):
        a = ring[i]
        b = ring[(i + 1) % len(ring)]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if abs(cross) < 1e-15:
            continue
        s = 1 if cross > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return sign != 0


def step(state: SimState, scene, params, dt: float) -> SimState:
    out = state.copy()
    h = dt / params.substeps
    for _ in range(params.substeps):
        forces, nudge_rows = _forces(out, scene, params, h)
        active = ~out.arrived
        out.velocities[active] += forces[active] / params.mass * h
        norms = np.linalg.norm(out.velocities, axis=1)
        over = active & (norms > out.max_speeds)
        if np.any(over):
            out.velocities[over] *= (out.max_speeds[over] / norms[over])[:, None]
        out.positions[active] += out.velocities[active] * h
        for i in sorted(set(nudge_rows)):
            twins = [j for j in range(out.n_groups) if j != i and
                     np.linalg.norm(out.positions[j] - out.positions[i]) < _COINCIDENT]
            for j in twins:
                lo, hi = (i, j) if i < j else (j, i)
                out.positions[lo, 0] -= _NUDGE
                out.positions[hi, 0] += _NUDGE
        newly = (~out.arrived) & (np.linalg.norm(out.positions - out.destinations,
                                                 axis=1) <= params.radius)
        if np.any(newly):
            out.arrived |= newly
            out.velocities[newly] = 0.0
    return out


def _initial_velocity(pos, dest, velocity, speed: float) -> np.ndarray:
    if velocity is not None:
        return np.asarray(velocity, dtype=np.float64)
    to_dest = np.asarray(dest, dtype=np.float64) - np.asarray(pos, dtype=np.float64)
    dist = float(np.linalg.norm(to_dest))
    if dist < _COINCIDENT:
        return np.zeros(2)
    return to_dest / dist * speed


def predict_group_trajectory(start, dest, speed: float, scene, others: list,
                             steps: int, params, cfg, initial_velocity=None,
                             start_frame: int = 0) -> Trajectory:
    """One candidate: the subject heads for ``dest`` while every group in
    ``others`` (objects with ``pos``, ``dest``, ``speed``, ``velocity``) is
    simulated alongside it. The subject's speed is floored unless it starts
    within ``params.radius`` of ``dest``."""
    start = np.asarray(start, dtype=np.float64)
    dest = np.asarray(dest, dtype=np.float64)
    if float(np.linalg.norm(dest - start)) > params.radius:
        eff_speed = max(speed, params.speed_floor)
    else:
        eff_speed = speed
    speeds = [eff_speed] + [max(g.speed, params.speed_floor) for g in others]
    state = make_sim_state(
        np.stack([start] + [np.asarray(g.pos, dtype=np.float64) for g in others]),
        np.stack([_initial_velocity(start, dest, initial_velocity, eff_speed)]
                 + [_initial_velocity(g.pos, g.dest, g.velocity, s)
                    for g, s in zip(others, speeds[1:])]),
        np.stack([dest] + [np.asarray(g.dest, dtype=np.float64) for g in others]),
        np.array(speeds),
        params,
    )
    points = np.empty((steps, 2))
    for s in range(steps):
        state = step(state, scene, params, cfg.step_duration)
        points[s] = state.positions[0]
    frames = np.arange(start_frame + 1, start_frame + steps + 1)
    return Trajectory("predicted", frames, frames * cfg.step_duration, points)


def connected_components(n: int, i, j) -> list:
    """Connected components of rows 0 .. n-1 under the edges (i, j):
    ascending row lists, by first row (union-find with path halving)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for a, b in zip(i.tolist(), j.tolist()):
        parent[find(b)] = find(a)
    out: dict = {}
    for x in range(n):
        out.setdefault(find(x), []).append(x)
    return list(out.values())


def block_states(start, dest, speed, others: list, steps: int, params, cfg,
                 initial_velocity=None) -> list:
    """The (``dynamics.SimState``, block first rows) of each chunk of a
    ``dynamics.predict_group_trajectory`` call with these arguments, built
    one subject at a time: the subject as block row 0, then the rest of its
    reach component ascending, each edge in both directions sorted by one
    lexsort per subject, and one ``np.tile`` of the rows per candidate."""
    subjects = np.asarray(start, dtype=np.float64).reshape(-1, 2)
    cands = [np.asarray(d, dtype=np.float64).reshape(-1, 2) for d in dest]
    speed = np.asarray(speed, dtype=np.float64).reshape(-1)
    n_sub = len(subjects)
    starts = np.concatenate([subjects, np.reshape([g.pos for g in others], (-1, 2))])
    heads = np.concatenate([np.reshape([c[-1] for c in cands], (-1, 2)),
                            np.reshape([g.dest for g in others], (-1, 2))])
    speeds = np.maximum(np.concatenate([speed, [g.speed for g in others]]),
                        params.speed_floor)
    vel = dynamics._unit(heads - starts)
    vel *= speeds[:, None]
    if initial_velocity is not None:
        vel[:n_sub] = np.reshape(initial_velocity, (n_sub, 2))
    given = np.array([g.velocity is not None for g in others], dtype=bool)
    vel[n_sub:][given] = np.reshape([g.velocity for g in others if g.velocity is not None],
                                    (-1, 2))

    i, j = dynamics.reach_edges(starts, params.max_speed_for(speeds),
                                params.neighborhood_range, steps * cfg.step_duration)
    comps = connected_components(len(starts), i, j)
    label, place = np.empty((2, len(starts)), dtype=np.intp)
    for c, rows in enumerate(comps):
        label[rows] = c
        place[rows] = np.arange(len(rows))
    by = np.argsort(label[i], kind="stable")
    cut = np.searchsorted(label[i[by]], np.arange(len(comps) + 1))
    ends = place[np.stack([i, j])[:, by]]
    block = np.array([len(rows) for rows in comps]) + 2 * np.diff(cut)
    costs = [len(c) * int(block[label[s]]) for s, c in enumerate(cands)]

    def state_of(chunk: list) -> tuple:
        body, pairs, leads, first = [], [], [], 0
        for s in chunk:
            comp, p = label[s], place[s]
            rows = comps[comp]
            rows = np.array([s] + rows[:p] + rows[p + 1:])
            e = ends[:, cut[comp]:cut[comp + 1]]
            e = np.where(e == p, 0, e + (e < p))
            r, c = np.concatenate([e, e[::-1]], axis=1)
            order = np.lexsort((c, r))
            n = len(cands[s])
            leads.append(first + len(rows) * np.arange(n))
            body.append(np.tile(rows, n))
            pairs.append((np.column_stack([r[order], c[order]])
                          + leads[-1][:, None, None]).reshape(-1, 2))
            first += len(rows) * n
        body, lead = np.concatenate(body), np.concatenate(leads)
        dst, vel0 = heads[body], vel[body]
        dst[lead] = np.concatenate([cands[s] for s in chunk])
        if initial_velocity is None:
            vel0[lead] = np.concatenate([dynamics._unit(cands[s] - subjects[s]) * speeds[s]
                                         for s in chunk])
        return dynamics.make_sim_state(starts[body], vel0, dst, speeds[body], params,
                                       np.concatenate(pairs)), lead

    return [state_of(chunk) for chunk in dynamics._chunks(costs)]
