"""Force-based rollout of group trajectories and member reconstruction.

Groups are simulated as single bodies: each accelerates toward a desired
velocity aimed at its destination and is repelled exponentially by nearby
groups and by the nearest points of scene obstacles. Member trajectories are
recovered from a predicted group trajectory by rigid translation plus a
deviation term scaled by one minus the group emotion.

A rollout simulates only the groups that can reach the subject. Groups i
and j are joined in the reach graph when, at the start,

    |p_i - p_j| < neighborhood_range + (vmax_i + vmax_j) * horizon + margin

with vmax the speed cap and horizon the rolled-out time. No group moves
faster than its cap, so two groups without an edge stay at least
``neighborhood_range`` apart for the whole horizon, where the pair force is
exactly 0.0 and no coincidence nudge can fire. Groups outside the subject's
connected component therefore exert exactly zero force on it, directly or
through a chain, and dropping them changes no bit of its trajectory. Inside
the component, pair forces are evaluated only along the graph's edges, and
the margin (``_REACH_MARGIN``) absorbs rounding and nudges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Config, DataError, SceneGeometry, Trajectory, velocity_at

# exponent cap for the repulsion law: keeps forces finite at deep overlap
# without affecting any distance the integrator can actually maintain
_EXP_CAP = 50.0

# below this separation a pair is treated as coincident: no pair force, a
# deterministic position nudge instead
_COINCIDENT = 1e-9
_NUDGE = 1e-6

# slack on the reach bound, in meters. It covers what lets a group travel
# slightly more than vmax * horizon: a clamped speed may exceed its cap by a
# few ulps (about 1e-15 relative), each substep's position sum rounds by half
# an ulp of the coordinate (under 1e-10 m per substep below 1e5 m), the
# substep lengths may sum to a few ulps past the horizon, and every
# coincidence nudge moves a group by _NUDGE. 1 mm leaves room for a thousand
# nudges per group per rollout.
_REACH_MARGIN = 1e-3


@dataclass(frozen=True)
class ForceParams:
    """Constants of the force law and integrator.

    ``max_speed_factor`` bounds each group's speed at that multiple of its
    desired speed (floored), so faster groups get more headroom to evade.
    ``substeps`` subdivides each output step for integration; the output
    still lands on the frame grid.
    """

    relaxation_time: float = 0.5
    repulsion_strength: float = 2000.0
    repulsion_range: float = 0.08
    obstacle_strength: float = 2000.0
    obstacle_range: float = 0.08
    max_speed_factor: float = 2.0
    speed_floor: float = 0.3
    substeps: int = 8
    mass: float = 60.0
    radius: float = 0.3
    neighborhood_range: float = 10.0

    def __post_init__(self):
        for name in ("relaxation_time", "repulsion_strength", "repulsion_range",
                     "obstacle_strength", "obstacle_range", "max_speed_factor",
                     "speed_floor", "mass", "radius", "neighborhood_range"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")
        if self.substeps < 1:
            raise ValueError("substeps must be at least 1")

    @classmethod
    def from_config(cls, cfg: Config, **overrides) -> "ForceParams":
        base = dict(mass=cfg.person_mass, radius=cfg.person_radius,
                    neighborhood_range=cfg.neighborhood_range)
        base.update(overrides)
        return cls(**base)

    def max_speed_for(self, desired_speed):
        """Speed cap for a desired speed, or elementwise for an array."""
        return self.max_speed_factor * np.maximum(desired_speed, self.speed_floor)


@dataclass
class SimState:
    """Mutable simulation arrays, one row per simulated body.

    ``pairs`` is a (P, 2) array of the ordered (i, j) body pairs whose
    repulsion is evaluated, sorted by i, then j. Bodies that share no pair
    must never come within ``neighborhood_range`` of each other.
    """

    positions: np.ndarray
    velocities: np.ndarray
    destinations: np.ndarray
    desired_speeds: np.ndarray
    max_speeds: np.ndarray
    arrived: np.ndarray
    pairs: np.ndarray

    def copy(self) -> "SimState":
        return SimState(self.positions.copy(), self.velocities.copy(),
                        self.destinations.copy(), self.desired_speeds.copy(),
                        self.max_speeds.copy(), self.arrived.copy(), self.pairs)


def make_sim_state(positions, velocities, destinations, desired_speeds,
                   params: ForceParams,
                   pairs: np.ndarray | None = None) -> SimState:
    """Assemble a SimState from (n, 2) arrays, deriving per-body speed caps
    and clamping the initial velocities to them.

    ``pairs`` defaults to every ordered pair of distinct bodies.
    """
    spd = np.asarray(desired_speeds, dtype=np.float64).reshape(-1).copy()
    n = len(spd)
    pos, vel, dest = (np.asarray(a, dtype=np.float64).reshape(-1, 2).copy()
                      for a in (positions, velocities, destinations))
    if any(len(a) != n for a in (pos, vel, dest)):
        raise DataError("simulation arrays disagree on group count")
    if not all(np.all(np.isfinite(a)) for a in (pos, vel, dest, spd)):
        raise DataError("non-finite simulation input")
    caps = params.max_speed_for(spd)
    norms = np.linalg.norm(vel, axis=-1)
    over = norms > caps
    if np.any(over):
        vel[over] *= (caps[over] / norms[over])[:, None]
    arrived = np.linalg.norm(pos - dest, axis=-1) <= params.radius
    vel[arrived] = 0.0
    if pairs is None:
        pairs = np.argwhere(~np.eye(n, dtype=bool))
    return SimState(pos, vel, dest, spd, caps, arrived, pairs)


def _forces(state: SimState, scene: SceneGeometry, params: ForceParams,
            h: float) -> tuple:
    """Total force per body for one substep of length ``h``.

    Returns the force array and a mask of the rows needing a coincidence
    nudge, or None when no pair is coincident. The desired speed is damped
    to ``dist / h`` close to the destination so the drive term cannot
    overshoot it in one substep. Arrived bodies feel no force but still
    repel others.
    """
    pos = state.positions
    active = ~state.arrived

    to_dest = state.destinations - pos
    dist = np.linalg.norm(to_dest, axis=-1)
    far = dist > _COINCIDENT
    speed = np.minimum(state.desired_speeds, dist / h)
    v_des = np.where(far[:, None],
                     to_dest / np.where(far, dist, 1.0)[:, None] * speed[:, None],
                     0.0)
    forces = params.mass * (v_des - state.velocities) / params.relaxation_time

    rows, cols = state.pairs.T
    nudge = None
    if len(rows):
        delta = pos[rows] - pos[cols]
        d = np.linalg.norm(delta, axis=-1)
        pair = (d < params.neighborhood_range) & (d >= _COINCIDENT)
        if pair.any():
            exponent = np.minimum((2.0 * params.radius - d) / params.repulsion_range,
                                  _EXP_CAP)
            mag = np.where(pair, params.repulsion_strength * np.exp(exponent), 0.0)
            unit = np.zeros_like(delta)
            np.divide(delta, d[:, None], out=unit, where=pair[:, None])
            terms = mag[:, None] * unit
            # bincount adds the terms into zeroed bins in input order, so each
            # row sums in ascending j, as a dense sum over the full pair
            # matrix does; the pairs left out would add exactly 0.0 there
            bins = 2 * rows[:, None] + np.arange(2)
            forces += np.bincount(bins.ravel(), terms.ravel(),
                                  forces.size).reshape(forces.shape)
        coincident = d < _COINCIDENT
        if coincident.any():
            nudge = np.zeros(len(pos), dtype=bool)
            nudge[rows[coincident]] = True
            nudge &= active

    # one obstacle at a time, in scene order, as a per-body sum would add
    # them; a body at a contact point gets no term from that obstacle, and a
    # distance that overflows to inf gives a term of exactly zero
    if not scene.is_empty:
        with np.errstate(over="ignore"):
            for point, signed_d in zip(*scene.obstacle_contacts(pos)):
                away = pos - point
                away_len = np.sqrt(np.vecdot(away, away))
                use = (active & ~(away_len < _COINCIDENT))[:, None]
                np.divide(away, away_len[:, None], out=away, where=use)
                away = np.where(signed_d[:, None] < 0.0, -away, away)
                exponent = np.minimum(
                    (2.0 * params.radius - signed_d) / params.obstacle_range, _EXP_CAP)
                np.add(forces,
                       (params.obstacle_strength * np.exp(exponent))[:, None] * away,
                       out=forces, where=use)
    forces[~active] = 0.0
    return forces, nudge


def _nudge_coincident(positions: np.ndarray, rows: np.ndarray,
                      pairs: np.ndarray) -> None:
    """Separate every marked row from the pair partners coincident with it,
    row by row in ascending order: the lower row index of each pair moves
    by −``_NUDGE`` along x, the higher by +``_NUDGE``."""
    for i in np.flatnonzero(rows):
        partners = pairs[pairs[:, 0] == i, 1]
        gap = np.linalg.norm(positions[partners] - positions[i], axis=-1)
        for j in partners[gap < _COINCIDENT]:
            lo, hi = (i, j) if i < j else (j, i)
            positions[lo, 0] -= _NUDGE
            positions[hi, 0] += _NUDGE


def step(state: SimState, scene: SceneGeometry, params: ForceParams,
         dt: float) -> SimState:
    """Advance every body by one output step of length ``dt``.

    The step is integrated as ``params.substeps`` semi-implicit Euler
    substeps: velocity from the force, clamped to the body's speed cap,
    then position from the new velocity. A body within ``params.radius``
    of its destination stops and stays put. Coincident pairs get a tiny
    deterministic separation along x (lower row index pushed to −x).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    sim = state.copy()
    h = dt / params.substeps
    for _ in range(params.substeps):
        forces, nudge = _forces(sim, scene, params, h)
        active = ~sim.arrived
        np.add(sim.velocities, forces / params.mass * h, out=sim.velocities,
               where=active[:, None])
        norms = np.linalg.norm(sim.velocities, axis=-1)
        over = active & (norms > sim.max_speeds)
        if np.any(over):
            sim.velocities[over] *= (sim.max_speeds[over] / norms[over])[:, None]
        np.add(sim.positions, sim.velocities * h, out=sim.positions,
               where=active[:, None])
        if nudge is not None:
            _nudge_coincident(sim.positions, nudge, sim.pairs)
        newly = ~sim.arrived & (np.linalg.norm(sim.positions - sim.destinations,
                                               axis=-1) <= params.radius)
        if np.any(newly):
            sim.arrived |= newly
            sim.velocities[newly] = 0.0
    return sim


@dataclass(frozen=True)
class GroupInit:
    """Initial condition of one simulated group.

    ``velocity`` defaults to the desired speed aimed at the destination.
    """

    pos: np.ndarray
    dest: np.ndarray
    speed: float
    velocity: np.ndarray | None = None


def _initial_velocity(pos, dest, velocity, speed: float) -> np.ndarray:
    if velocity is not None:
        return np.asarray(velocity, dtype=np.float64)
    to_dest = np.asarray(dest, dtype=np.float64) - np.asarray(pos, dtype=np.float64)
    dist = float(np.linalg.norm(to_dest))
    if dist < _COINCIDENT:
        return np.zeros(2)
    return to_dest / dist * speed


def _reach_component(pos: np.ndarray, caps: np.ndarray, reach: float,
                     horizon: float) -> tuple:
    """Group 0's connected component of the reach graph, as ascending row
    indices, and the graph's adjacency restricted to it."""
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    adj = d < reach + (caps[:, None] + caps[None, :]) * horizon + _REACH_MARGIN
    np.fill_diagonal(adj, False)
    seen = np.zeros(len(pos), dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    keep = np.flatnonzero(seen)
    return keep, adj[np.ix_(keep, keep)]


def predict_group_trajectory(start, dest, speed: float, scene: SceneGeometry,
                             others: list, steps: int, params: ForceParams,
                             cfg: Config, initial_velocity=None,
                             start_frame: int = 0) -> list:
    """Roll the subject group from ``start`` toward each candidate
    destination in ``dest``, a (C, 2) array, for ``steps`` output steps,
    simulating ``others`` (``GroupInit``) jointly.

    Each candidate is an independent simulation; all C advance together as
    C blocks of one flat state, one body per group of the subject's reach
    component (see the module docstring), with pairs only inside a block.
    The subject's desired speed is floored at ``params.speed_floor``, so a
    briefly stationary group still makes progress. Returns one trajectory
    per candidate, each with one position per step on frames
    ``start_frame + 1 .. start_frame + steps``.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if speed < 0:
        raise ValueError("speed must be non-negative")
    start = np.asarray(start, dtype=np.float64)
    dests = np.asarray(dest, dtype=np.float64).reshape(-1, 2)
    others = list(others)
    speeds = np.maximum([speed] + [g.speed for g in others], params.speed_floor)
    starts = np.stack([start] + [np.asarray(g.pos, dtype=np.float64) for g in others])
    if not (np.all(np.isfinite(starts)) and np.all(np.isfinite(speeds))):
        raise DataError("non-finite simulation input")
    keep, adj = _reach_component(starts, params.max_speed_for(speeds),
                                 params.neighborhood_range, steps * cfg.step_duration)

    n_cand, k = len(dests), len(keep)
    vel = np.empty((n_cand, k, 2))
    dst = np.empty((n_cand, k, 2))
    dst[:, 0] = dests
    for c, d in enumerate(dests):
        vel[c, 0] = _initial_velocity(start, d, initial_velocity, speeds[0])
    for r, i in enumerate(keep[1:], start=1):
        g = others[i - 1]
        dst[:, r] = g.dest
        vel[:, r] = _initial_velocity(g.pos, g.dest, g.velocity, speeds[i])
    # block c holds rows c*k .. c*k + k - 1; offsetting the component's
    # pairs by c*k keeps the list sorted by row, then column
    pairs = (np.argwhere(adj) + k * np.arange(n_cand)[:, None, None]).reshape(-1, 2)
    state = make_sim_state(np.tile(starts[keep], (n_cand, 1)), vel, dst,
                           np.tile(speeds[keep], n_cand), params, pairs)

    subject = k * np.arange(n_cand)
    points = np.empty((n_cand, steps, 2))
    for s in range(steps):
        state = step(state, scene, params, cfg.step_duration)
        points[:, s] = state.positions[subject]
    frames = np.arange(start_frame + 1, start_frame + steps + 1)
    times = frames * cfg.step_duration
    return [Trajectory("predicted", frames, times, p) for p in points]


@dataclass(frozen=True)
class ReconstructionPolicy:
    """How member deviations from rigid translation are generated.

    ``rigid`` tiles each member's observed residual pattern from the known
    window over the horizon; ``seeded-jitter`` draws per-step vectors from a
    seeded generator, scaled to the member's observed residual spread.
    """

    mode: str = "rigid"
    residuals: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("rigid", "seeded-jitter"):
            raise ValueError(f"unknown reconstruction mode {self.mode!r}")

    @classmethod
    def from_known_window(cls, members: list, center: Trajectory, offsets: dict,
                          mode: str = "rigid", seed: int = 0) -> "ReconstructionPolicy":
        """Derive residual patterns from the known window.

        For each member, residual(t) = position(t) − (center(t) + offset),
        with ``offsets`` the group's member offsets (``GroupState``), anchored
        at the center's last frame; the residual at the anchor is therefore
        zero.
        """
        residuals = {}
        for tr in members:
            member_pos = tr.positions[np.searchsorted(tr.frames, center.frames)]
            residuals[tr.agent_id] = member_pos - (center.positions
                                                   + offsets[tr.agent_id])
        return cls(mode, residuals, seed)


def _deviations(policy: ReconstructionPolicy, agent_id: str, steps: int,
                rng) -> np.ndarray:
    pattern = np.asarray(policy.residuals[agent_id], dtype=np.float64)
    if policy.mode == "rigid":
        if len(pattern) == 0:
            return np.zeros((steps, 2))
        reps = -(-steps // len(pattern))
        return np.tile(pattern, (reps, 1))[:steps]
    rms = float(np.sqrt(np.mean(pattern ** 2))) if len(pattern) else 0.0
    return rng.normal(0.0, 1.0, size=(steps, 2)) * rms


def reconstruct_members(group_traj: Trajectory, offsets: dict, emotion: float,
                        policy: ReconstructionPolicy) -> dict:
    """Member trajectories from a group trajectory.

    Each member's standard position is the group position plus its fixed
    offset; the deviation term, scaled by ``1 − emotion``, is added on top.
    At emotion 1 the members translate rigidly with the group.
    """
    if not 0.0 < emotion <= 1.0:
        raise DataError(f"emotion must be in (0, 1], got {emotion}")
    if set(offsets) != set(policy.residuals):
        raise DataError("member offsets and residual patterns disagree")
    steps = len(group_traj)
    rng = np.random.default_rng(policy.seed)
    out = {}
    for agent_id in sorted(offsets, key=str):
        dev = _deviations(policy, agent_id, steps, rng)
        points = group_traj.positions + np.asarray(offsets[agent_id]) \
            + (1.0 - emotion) * dev
        out[agent_id] = Trajectory(agent_id, group_traj.frames,
                                   group_traj.times, points)
    return out


def constant_velocity_baseline(traj: Trajectory, steps: int, cfg: Config,
                               start_frame: int | None = None) -> Trajectory:
    """Straight-line extrapolation of a track at its final velocity."""
    if start_frame is None:
        start_frame = int(traj.frames[-1])
    vel = velocity_at(traj, int(traj.frames[-1])) if len(traj) >= 2 else np.zeros(2)
    frames = np.arange(start_frame + 1, start_frame + steps + 1)
    offsets = (frames - start_frame)[:, None] * vel[None, :] * cfg.step_duration
    points = traj.positions[-1][None, :] + offsets
    return Trajectory(traj.agent_id, frames, frames * cfg.step_duration, points)
