"""Force-based rollout of group trajectories and member reconstruction.

Groups are simulated as single bodies: each accelerates toward a desired
velocity aimed at its destination and is repelled exponentially by nearby
groups and by the nearest points of scene obstacles. Member trajectories are
recovered from a predicted group trajectory by rigid translation plus a
deviation term scaled by one minus the group emotion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import Config, DataError, SceneGeometry, Trajectory, velocity_at

# exponent cap for the repulsion law: keeps forces finite at deep overlap
# without affecting any distance the integrator can actually maintain
_EXP_CAP = 50.0

# below this separation a pair is treated as coincident: no pair force, a
# deterministic position nudge instead
_COINCIDENT = 1e-9
_NUDGE = 1e-6


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

    def max_speed_for(self, desired_speed: float) -> float:
        return self.max_speed_factor * max(desired_speed, self.speed_floor)


@dataclass
class SimState:
    """Mutable per-group simulation arrays, one row per group."""

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
                   params: ForceParams) -> SimState:
    """Assemble a SimState, deriving per-group speed caps and clamping the
    initial velocities to them."""
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 2).copy()
    vel = np.asarray(velocities, dtype=np.float64).reshape(-1, 2).copy()
    dest = np.asarray(destinations, dtype=np.float64).reshape(-1, 2).copy()
    spd = np.asarray(desired_speeds, dtype=np.float64).reshape(-1).copy()
    n = pos.shape[0]
    if not (vel.shape[0] == dest.shape[0] == spd.shape[0] == n):
        raise DataError("simulation arrays disagree on group count")
    if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(vel))
            and np.all(np.isfinite(dest)) and np.all(np.isfinite(spd))):
        raise DataError("non-finite simulation input")
    caps = np.array([params.max_speed_for(s) for s in spd])
    norms = np.linalg.norm(vel, axis=1)
    over = norms > caps
    if np.any(over):
        vel[over] *= (caps[over] / norms[over])[:, None]
    arrived = np.linalg.norm(pos - dest, axis=1) <= params.radius
    vel[arrived] = 0.0
    return SimState(pos, vel, dest, spd, caps, arrived)


def _forces(state: SimState, scene: SceneGeometry, params: ForceParams,
            h: float) -> tuple:
    """Total force per group for one substep of length ``h``.

    Returns the force array and the row indices needing a coincidence nudge.
    The desired speed is damped to ``dist / h`` close to the destination so
    the drive term cannot overshoot it in one substep. Arrived groups feel
    no force but still repel others.
    """
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
            for point, signed_d in scene.obstacle_contacts(pos[i]):
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


def step(state: SimState, scene: SceneGeometry, params: ForceParams,
         dt: float) -> SimState:
    """Advance every group by one output step of length ``dt``.

    The step is integrated as ``params.substeps`` semi-implicit Euler
    substeps: velocity from the force, clamped to the group's speed cap,
    then position from the new velocity. A group within ``params.radius``
    of its destination stops and stays put. Coincident pairs get a tiny
    deterministic separation along x (lower row index pushed to −x).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
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


@dataclass(frozen=True)
class GroupInit:
    """Initial condition of one simulated group.

    ``velocity`` defaults to the desired speed aimed at the destination.
    """

    pos: np.ndarray
    dest: np.ndarray
    speed: float
    velocity: np.ndarray | None = None


def _initial_velocity(g: GroupInit, speed: float) -> np.ndarray:
    if g.velocity is not None:
        return np.asarray(g.velocity, dtype=np.float64)
    to_dest = np.asarray(g.dest, dtype=np.float64) - np.asarray(g.pos, dtype=np.float64)
    dist = float(np.linalg.norm(to_dest))
    if dist < _COINCIDENT:
        return np.zeros(2)
    return to_dest / dist * speed


def predict_group_trajectory(start, dest, speed: float, scene: SceneGeometry,
                             others: list, steps: int, params: ForceParams,
                             cfg: Config, initial_velocity=None,
                             start_frame: int = 0) -> Trajectory:
    """Roll the subject group from ``start`` toward ``dest`` for ``steps``
    output steps, simulating ``others`` jointly.

    The subject's desired speed is floored at ``params.speed_floor`` unless
    it is already within arrival range of its destination, so a briefly
    stationary group still makes progress. Returns one position per step,
    on frames ``start_frame + 1 .. start_frame + steps``.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    start = np.asarray(start, dtype=np.float64)
    dest = np.asarray(dest, dtype=np.float64)
    if speed < 0:
        raise ValueError("speed must be non-negative")
    if float(np.linalg.norm(dest - start)) > params.radius:
        eff_speed = max(speed, params.speed_floor)
    else:
        eff_speed = speed
    subject = GroupInit(start, dest, eff_speed,
                        None if initial_velocity is None
                        else np.asarray(initial_velocity, dtype=np.float64))
    groups = [subject] + list(others)
    state = make_sim_state(
        np.stack([np.asarray(g.pos, dtype=np.float64) for g in groups]),
        np.stack([_initial_velocity(g, max(g.speed, params.speed_floor)
                                    if g is not subject else eff_speed)
                  for g in groups]),
        np.stack([np.asarray(g.dest, dtype=np.float64) for g in groups]),
        np.array([max(g.speed, params.speed_floor) if g is not subject
                  else eff_speed for g in groups]),
        params,
    )
    points = np.empty((steps, 2))
    for s in range(steps):
        state = step(state, scene, params, cfg.step_duration)
        points[s] = state.positions[0]
    frames = np.arange(start_frame + 1, start_frame + steps + 1)
    times = frames * cfg.step_duration
    return Trajectory("predicted", frames, times, points)


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
    def from_known_window(cls, members: list, center: Trajectory,
                          mode: str = "rigid", seed: int = 0) -> "ReconstructionPolicy":
        """Derive residual patterns from the known window.

        For each member, residual(t) = position(t) − (center(t) + offset),
        with the offset anchored at the center's last frame; the residual at
        the anchor is therefore zero.
        """
        anchor = int(center.frames[-1])
        residuals = {}
        for tr in members:
            idx = np.searchsorted(tr.frames, center.frames)
            member_pos = tr.positions[idx]
            offset = tr.position_at(anchor) - center.positions[-1]
            residuals[tr.agent_id] = member_pos - (center.positions + offset)
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
