"""Force-based rollout of group trajectories and member reconstruction.

Groups are simulated as single bodies: each accelerates toward a desired
velocity aimed at its destination and is repelled exponentially by nearby
groups and by the nearest points of scene obstacles. Member trajectories are
recovered from a predicted group trajectory by rigid translation plus a
deviation term scaled by one minus the group emotion: one (C, M, T, 2) pass
over a group's C candidates (:func:`member_positions`), with each member's
deviations drawn once and shared by every candidate.

Pair forces act only along the edges of the reach graph. Groups i and j are
joined in that graph when, at the start,

    |p_i - p_j| < neighborhood_range + (vmax_i + vmax_j) * horizon + margin

with vmax the speed cap and horizon the rolled-out time
(:func:`reach_edges`). No group moves faster than its cap, so two groups
without an edge stay at least ``neighborhood_range`` apart for the whole
horizon, where the pair force is exactly 0.0 and no coincidence nudge can
fire; the margin (``_REACH_MARGIN``) absorbs rounding and nudges. A group
with no chain of edges to the subject therefore adds no force term to it,
directly or through others: leaving it out changes no bit of the subject's
trajectory.

A window makes one :func:`predict_group_trajectory` call with every group as
a subject. That call builds the graph over its rows, labels its connected
components and simulates each (subject, candidate) pair as one block: the
subject heading to the candidate and the rest of its component heading to
their own last candidates. Every block of the window is a slice of one flat
body array, pairs never cross blocks, and the blocks advance together in
chunks of whole subjects, so the fixed cost of each numpy call of a substep
is paid once per chunk instead of once per group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (Config, DataError, SceneGeometry, TooFewPointsError, Trajectory,
                   check_scale, connected_components, final_velocity, near_pairs)

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

# the ForceParams fields that ForceParams.from_config copies from Config,
# each mapped to its Config field
FROM_CONFIG = {"mass": "person_mass", "radius": "person_radius",
               "neighborhood_range": "neighborhood_range"}


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
        check_scale(self)
        if self.substeps < 1:
            raise ValueError("substeps must be at least 1")

    @classmethod
    def from_config(cls, cfg: Config, **overrides) -> "ForceParams":
        base = {name: getattr(cfg, source) for name, source in FROM_CONFIG.items()}
        return cls(**{**base, **overrides})

    def max_speed_for(self, desired_speed):
        """Speed cap for a desired speed, or elementwise for an array."""
        return self.max_speed_factor * np.maximum(desired_speed, self.speed_floor)


@dataclass
class SimState:
    """Mutable simulation arrays, one row per simulated body.

    ``rows`` and ``cols`` are the (P,) ordered (i, j) body pairs whose
    repulsion is evaluated, sorted by i, then j. Bodies that share no pair
    must never come within ``neighborhood_range`` of each other. ``ends``
    is the (2P,) ``rows`` then ``cols``, of which those two are views, so
    one ``take`` gathers both ends of every pair. ``bins`` holds the (2P,)
    flat indices of each pair's x and y force term in an (n, 2) array.
    These four never change during a rollout: they are read-only and
    shared by every copy.
    """

    positions: np.ndarray
    velocities: np.ndarray
    destinations: np.ndarray
    desired_speeds: np.ndarray
    max_speeds: np.ndarray
    arrived: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    ends: np.ndarray
    bins: np.ndarray

    def copy(self) -> "SimState":
        return SimState(self.positions.copy(), self.velocities.copy(),
                        self.destinations.copy(), self.desired_speeds.copy(),
                        self.max_speeds.copy(), self.arrived.copy(), self.rows,
                        self.cols, self.ends, self.bins)


def _length(v: np.ndarray) -> np.ndarray:
    """Length of each 2-vector along the last axis, with the bits of
    ``np.linalg.norm(v, axis=-1)``."""
    sq = v * v
    return np.sqrt(sq[..., 0] + sq[..., 1])


def make_sim_state(positions, velocities, destinations, desired_speeds,
                   params: ForceParams,
                   pairs: np.ndarray | None = None) -> SimState:
    """Assemble a SimState from (n, 2) arrays, deriving per-body speed caps
    and clamping the initial velocities to them.

    ``pairs`` is a (P, 2) array of the (i, j) body pairs of
    :class:`SimState`; it defaults to every ordered pair of distinct bodies.
    """
    spd = np.array(desired_speeds, dtype=np.float64).reshape(-1)
    n = len(spd)
    pos, vel, dest = (np.array(a, dtype=np.float64).reshape(-1, 2)
                      for a in (positions, velocities, destinations))
    if any(len(a) != n for a in (pos, vel, dest)):
        raise DataError("simulation arrays disagree on group count")
    if not all(np.isfinite(a).all() for a in (pos, vel, dest, spd)):
        raise DataError("non-finite simulation input")
    caps = params.max_speed_for(spd)
    norms = _length(vel)
    over = norms > caps
    vel[over] *= (caps[over] / norms[over])[:, None]
    arrived = _length(pos - dest) <= params.radius
    vel[arrived] = 0.0
    if pairs is None:
        pairs = np.argwhere(~np.eye(n, dtype=bool))
    ends = np.array(pairs, dtype=np.intp).reshape(-1, 2).T.ravel()
    ends.setflags(write=False)
    rows, cols = ends.reshape(2, -1)
    bins = (2 * rows[:, None] + np.arange(2)).ravel()
    bins.setflags(write=False)
    return SimState(pos, vel, dest, spd, caps, arrived, rows, cols, ends, bins)


def _forces(state: SimState, scene: SceneGeometry, params: ForceParams,
            h: float) -> tuple:
    """Total force per body for one substep of length ``h``.

    Returns the force array and a mask of the rows needing a coincidence
    nudge, or None when no pair is coincident. The desired speed is damped
    to ``dist / h`` close to the destination so the drive term cannot
    overshoot it in one substep. Arrived bodies feel no force but still
    repel others. Each mask below is skipped where it would select every
    row, which leaves every bit as it was.
    """
    pos = state.positions
    arrived = state.arrived
    n_arrived = np.count_nonzero(arrived)

    to_dest = state.destinations - pos
    dist = _length(to_dest)
    far = dist > _COINCIDENT
    speed = np.minimum(state.desired_speeds, dist / h)
    if np.count_nonzero(far) == len(far):
        v_des = to_dest / dist[:, None] * speed[:, None]
    else:
        v_des = np.where(far[:, None],
                         to_dest / np.where(far, dist, 1.0)[:, None] * speed[:, None],
                         0.0)
    forces = params.mass * (v_des - state.velocities) / params.relaxation_time

    n_pairs = len(state.rows)
    nudge = None
    if n_pairs:
        ends = pos.take(state.ends, axis=0)
        delta = ends[:n_pairs] - ends[n_pairs:]
        d = _length(delta)
        pair = (d < params.neighborhood_range) & (d >= _COINCIDENT)
        in_range = np.count_nonzero(pair)
        if in_range:
            near, dn, bins = delta, d, state.bins
            if in_range < n_pairs:
                keep = np.flatnonzero(pair)
                near, dn = delta.take(keep, axis=0), d.take(keep)
                bins = bins.reshape(-1, 2).take(keep, axis=0).ravel()
            exponent = np.minimum((2.0 * params.radius - dn) / params.repulsion_range,
                                  _EXP_CAP)
            terms = (params.repulsion_strength * np.exp(exponent))[:, None] \
                * (near / dn[:, None])
            # bincount adds the terms into zeroed bins in input order, so each
            # row sums in ascending j, as a dense sum over the full pair
            # matrix does. A pair out of range adds exactly +0.0 there, and a
            # sum that starts at +0.0 never holds -0.0, so leaving it out
            # changes no bit.
            forces += np.bincount(bins, terms.ravel(), forces.size).reshape(forces.shape)
        coincident = d < _COINCIDENT
        if np.count_nonzero(coincident):
            nudge = np.zeros(len(pos), dtype=bool)
            nudge[state.rows[coincident]] = True
            if n_arrived:
                nudge &= ~arrived

    # the (O, M) terms of every obstacle at once, then added one obstacle at
    # a time, in scene order, as a per-body sum would add them; a body at a
    # contact point gets no term from that obstacle
    if not scene.is_empty:
        # |signed_d| is the length of ``away`` bit for bit, and x / -l is
        # -(x / l) exactly, so dividing by signed_d both normalises ``away``
        # and turns it outward from inside a polygon
        point, signed_d = scene.obstacle_contacts(pos)
        away = pos - point
        use = ~(np.abs(signed_d) < _COINCIDENT)
        if n_arrived:
            use &= ~arrived
        if np.count_nonzero(use) == use.size:
            away /= signed_d[..., None]
            masks = [True] * len(use)
        else:
            masks = use[..., None]
            np.divide(away, signed_d[..., None], out=away, where=masks)
        exponent = np.minimum(
            (2.0 * params.radius - signed_d) / params.obstacle_range, _EXP_CAP)
        terms = (params.obstacle_strength * np.exp(exponent))[..., None] * away
        for term, mask in zip(terms, masks):
            np.add(forces, term, out=forces, where=mask)
    if n_arrived:
        forces[arrived] = 0.0
    return forces, nudge


def _nudge_coincident(state: SimState, marked: np.ndarray) -> None:
    """Separate every marked row from the pair partners coincident with it,
    row by row in ascending order: the lower row index of each pair moves
    by −``_NUDGE`` along x, the higher by +``_NUDGE``."""
    positions = state.positions
    for i in np.flatnonzero(marked):
        first, end = np.searchsorted(state.rows, (i, i + 1))
        partners = state.cols[first:end]
        gap = _length(positions[partners] - positions[i])
        for j in partners[gap < _COINCIDENT]:
            lo, hi = (i, j) if i < j else (j, i)
            positions[lo, 0] -= _NUDGE
            positions[hi, 0] += _NUDGE


def step(state: SimState, scene: SceneGeometry, params: ForceParams,
         dt: float) -> SimState:
    """Advance every body by one output step of length ``dt``, returning a
    new state; ``state`` is left as it was.

    The step is integrated as ``params.substeps`` semi-implicit Euler
    substeps: velocity from the force, clamped to the body's speed cap,
    then position from the new velocity. A body within ``params.radius``
    of its destination stops and stays put, with one exception: a
    coincident pair with at least one body not yet arrived gets a tiny
    deterministic separation along x (lower row index pushed to −x), and
    that nudge moves an arrived twin by ``_NUDGE`` too.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    sim = state.copy()
    _advance(sim, scene, params, dt, 1, np.empty(0, np.intp))
    return sim


def _advance(sim: SimState, scene: SceneGeometry, params: ForceParams, dt: float,
             steps: int, watch: np.ndarray) -> np.ndarray:
    """Advance ``sim`` in place by ``steps`` output steps of length ``dt``,
    as :func:`step` does one. Returns the positions of the rows ``watch``
    after each step, a (len(watch), steps, 2) array."""
    out = np.empty((len(watch), steps, 2))
    h = dt / params.substeps
    pos, vel, caps = sim.positions, sim.velocities, sim.max_speeds
    # until a body arrives every row moves, and ``where=True`` is the
    # unmasked ufunc, bit for bit the same as a mask selecting every row
    n_arrived = np.count_nonzero(sim.arrived)
    active = ~sim.arrived
    moving = active[:, None] if n_arrived else True
    for s in range(steps):
        for _ in range(params.substeps):
            forces, nudge = _forces(sim, scene, params, h)
            forces /= params.mass
            forces *= h
            np.add(vel, forces, out=vel, where=moving)
            norms = _length(vel)
            over = norms > caps
            if n_arrived:
                over &= active
            if np.count_nonzero(over):
                vel[over] *= (caps[over] / norms[over])[:, None]
            np.add(pos, vel * h, out=pos, where=moving)
            if nudge is not None:
                _nudge_coincident(sim, nudge)
            newly = _length(pos - sim.destinations) <= params.radius
            if n_arrived:
                newly &= active
            if np.count_nonzero(newly):
                sim.arrived |= newly
                vel[newly] = 0.0
                n_arrived = np.count_nonzero(sim.arrived)
                active = ~sim.arrived
                moving = active[:, None]
        out[:, s] = pos.take(watch, axis=0)
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


def reach_edges(pos: np.ndarray, caps: np.ndarray, reach: float,
                horizon: float) -> tuple:
    """The reach-graph edges of the (G, 2) starts ``pos`` with speed caps
    ``caps``, as (i, j) index arrays with i < j: the edge test of the module
    docstring on the :func:`near_pairs` of the longest possible edge."""
    bound = reach + 2.0 * float(caps.max(initial=0.0)) * horizon + _REACH_MARGIN
    ii, jj = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for i, j in near_pairs(pos, bound, 1 << 16):
        edge = _length(pos.take(i, axis=0) - pos.take(j, axis=0)) \
            < reach + (caps[i] + caps[j]) * horizon + _REACH_MARGIN
        ii.append(i[edge])
        jj.append(j[edge])
    return np.concatenate(ii), np.concatenate(jj)


# the most bodies plus pair entries one chunk of a rollout simulates at once.
# Subjects join a chunk in order while it stays within this; a subject whose
# own blocks exceed it runs alone. Each chunk's state is built only when it
# runs, so a dense window holds one chunk at a time.
_CHUNK = 1 << 12


def _chunks(costs: list):
    """Runs of consecutive subject indices, each within ``_CHUNK`` by the
    summed ``costs`` or a single subject."""
    chunk, total = [], 0
    for s, cost in enumerate(costs):
        if chunk and total + cost > _CHUNK:
            yield chunk
            chunk, total = [], 0
        chunk.append(s)
        total += cost
    if chunk:
        yield chunk


def _unit(to: np.ndarray) -> np.ndarray:
    """Each 2-vector along the last axis scaled to length 1, or zero where it
    is shorter than ``_COINCIDENT``."""
    dist = np.sqrt(np.vecdot(to, to))
    out = np.zeros_like(to)
    np.divide(to, dist[..., None], out=out, where=~(dist < _COINCIDENT)[..., None])
    return out


def predict_group_trajectory(start, dest, speed, scene: SceneGeometry,
                             others: list, steps: int, params: ForceParams,
                             cfg: Config, initial_velocity=None) -> list:
    """Roll each of S subject groups toward each of its candidate
    destinations for ``steps`` output steps.

    Subject s starts at ``start[s]`` (an (S, 2) array) with desired speed
    ``speed[s]`` and candidates ``dest[s]``, a (C_s, 2) array; its last
    candidate is where it heads in every other subject's rollouts.
    ``others`` are ``GroupInit`` bodies that are simulated but never
    subjects: rows S onward. ``initial_velocity`` is an (S, 2) array, or
    None to start each subject at its desired speed aimed at the candidate.

    The call builds its rows' reach graph once (:func:`reach_edges` of their
    starts, the caps of their floored desired speeds and the ``steps``
    horizon) and evaluates repulsion only along its edges: every pair left
    out stays at least ``neighborhood_range`` apart for the whole horizon
    (see the module docstring). Each candidate is an independent simulation,
    block (s, c): subject s heads to ``dest[s][c]``, followed by the rest of
    its connected component in ascending row order. Blocks advance together
    in chunks of whole subjects (``_CHUNK``). Desired speeds are floored at
    ``params.speed_floor``, so a briefly stationary group still makes
    progress. Returns S read-only (C_s, steps, 2) arrays, subject s's
    position after each output step along each of its candidates: views of
    one array that joins every chunk's positions.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    subjects = np.asarray(start, dtype=np.float64).reshape(-1, 2)
    cands = [np.asarray(d, dtype=np.float64).reshape(-1, 2) for d in dest]
    speed = np.asarray(speed, dtype=np.float64).reshape(-1)
    n_sub = len(subjects)
    if len(cands) != n_sub or len(speed) != n_sub:
        raise DataError("subject arrays disagree on subject count")
    if np.count_nonzero(speed < 0):
        raise ValueError("speed must be non-negative")
    if not all(len(c) for c in cands):
        raise DataError("every subject needs a candidate destination")
    others = list(others)
    starts = np.concatenate([subjects, np.reshape([g.pos for g in others], (-1, 2))])
    heads = np.concatenate([np.reshape([c[-1] for c in cands], (-1, 2)),
                            np.reshape([g.dest for g in others], (-1, 2))])
    speeds = np.maximum(np.concatenate([speed, [g.speed for g in others]]),
                        params.speed_floor)
    # every input is checked here, also of rows no subject's block holds
    if not all(np.isfinite(a).all() for a in (starts, heads, speeds, *cands)):
        raise DataError("non-finite simulation input")

    # a body without a given velocity starts at its desired speed, aimed at
    # its destination, or at rest when it is already there
    vel = _unit(heads - starts)
    vel *= speeds[:, None]
    if initial_velocity is not None:
        vel[:n_sub] = np.reshape(initial_velocity, (n_sub, 2))
    given = np.array([g.velocity is not None for g in others], dtype=bool)
    vel[n_sub:][given] = np.reshape([g.velocity for g in others if g.velocity is not None],
                                    (-1, 2))
    if not np.isfinite(vel).all():
        raise DataError("non-finite simulation input")

    # each component's rows ascending, and its edges as places in that list,
    # sorted by component so that each component's are one slice
    i, j = reach_edges(starts, params.max_speed_for(speeds), params.neighborhood_range,
                       steps * cfg.step_duration)
    comps = connected_components(len(starts), [(i, j)])
    label, place = np.empty((2, len(starts)), dtype=np.intp)
    for c, rows in enumerate(comps):
        label[rows] = c
        place[rows] = np.arange(len(rows))
    by = np.argsort(label[i], kind="stable")
    cut = np.searchsorted(label[i[by]], np.arange(len(comps) + 1))
    ends = place[np.stack([i, j])[:, by]]
    # one block of a subject holds its component's bodies and each edge twice
    block = np.array([len(rows) for rows in comps]) + 2 * np.diff(cut)
    costs = [len(c) * int(block[label[s]]) for s, c in enumerate(cands)]

    def state_of(chunk: list) -> tuple:
        """The flat state of the chunk's blocks and each block's first row."""
        body, pairs, leads, first = [], [], [], 0
        for s in chunk:
            comp, p = label[s], place[s]
            rows = comps[comp]
            rows = np.array([s] + rows[:p] + rows[p + 1:])
            # block row 0 is the subject: a place before it moves up by one
            e = ends[:, cut[comp]:cut[comp + 1]]
            e = np.where(e == p, 0, e + (e < p))
            # each edge in both directions, sorted by row, then column;
            # offsetting every block by its first row keeps that order
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
            vel0[lead] = np.concatenate([_unit(cands[s] - subjects[s]) * speeds[s]
                                         for s in chunk])
        return make_sim_state(starts[body], vel0, dst, speeds[body], params,
                              np.concatenate(pairs)), lead

    points = []
    for chunk in _chunks(costs):
        state, lead = state_of(chunk)
        points.append(_advance(state, scene, params, cfg.step_duration, steps, lead))
        del state       # freed before the next chunk's state is built
    if not points:
        return []
    points = np.concatenate(points)
    points.setflags(write=False)
    return np.split(points, np.cumsum([len(c) for c in cands[:-1]]))


# the member reconstruction modes of ReconstructionPolicy
MODES = ("rigid", "seeded-jitter")


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
        if self.mode not in MODES:
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


def member_positions(group_positions: np.ndarray, offsets: dict, emotion: float,
                     policy: ReconstructionPolicy) -> np.ndarray:
    """Every member's positions along each of C group trajectories.

    ``group_positions`` is a (C, T, 2) stack of the group's candidate
    trajectories. Returns a read-only (C, M, T, 2) array, the members in
    ``sorted(offsets, key=str)`` order: group position plus the member's
    offset plus ``1 − emotion`` times its deviation. Deviations belong to
    the group, not the candidate, so they are drawn once, in member order,
    from one generator seeded with ``policy.seed``, and broadcast over the
    candidates.
    """
    if not 0.0 <= emotion <= 1.0:
        raise DataError(f"emotion must be in [0, 1], got {emotion}")
    if set(offsets) != set(policy.residuals):
        raise DataError("member offsets and residual patterns disagree")
    ids = sorted(offsets, key=str)
    for agent_id in ids:
        if np.shape(offsets[agent_id]) != (2,):
            raise DataError(f"offset of member {agent_id!r} must be one (x, y) point")
    steps = group_positions.shape[1]
    # only seeded-jitter draws; creating a generator is not free
    rng = np.random.default_rng(policy.seed) if policy.mode == "seeded-jitter" else None
    dev = np.array([_deviations(policy, a, steps, rng) for a in ids]).reshape(len(ids), steps, 2)
    off = np.array([offsets[a] for a in ids], dtype=np.float64).reshape(len(ids), 1, 2)
    points = group_positions[:, None] + off + (1.0 - emotion) * dev
    points.setflags(write=False)
    return points


def reconstruct_members(group_traj: Trajectory, offsets: dict, emotion: float,
                        policy: ReconstructionPolicy) -> dict:
    """Member trajectories from a group trajectory.

    Each member's standard position is the group position plus its fixed
    offset; the deviation term, scaled by ``1 − emotion``, is added on top.
    At emotion 1 the members translate rigidly with the group; at 0, which
    a long chained group's cohesion rounds to, the deviation is unscaled.
    The one-candidate case of :func:`member_positions`.
    """
    [points] = member_positions(group_traj.positions[None], offsets, emotion, policy)
    # the group's frames and times were checked when it was built
    return {m: Trajectory.trusted(m, group_traj.frames, group_traj.times, p)
            for m, p in zip(sorted(offsets, key=str), points)}


def straight_lines(last: np.ndarray, vel: np.ndarray, steps: int,
                   step_duration: float) -> np.ndarray:
    """(..., steps, 2) positions 1 .. ``steps`` output steps on from each
    (..., 2) point ``last`` at the constant velocity ``vel``."""
    k = np.arange(1, steps + 1)
    return last[..., None, :] + k[:, None] * vel[..., None, :] * step_duration


def constant_velocity_baseline(traj: Trajectory, steps: int, cfg: Config,
                               start_frame: int | None = None) -> Trajectory:
    """Straight-line extrapolation of a track at its final velocity."""
    if len(traj) == 0:
        raise TooFewPointsError(f"agent {traj.agent_id!r} has no point to extrapolate")
    if start_frame is None:
        start_frame = int(traj.frames[-1])
    vel = final_velocity(traj.positions, traj.times) if len(traj) >= 2 else np.zeros(2)
    frames = np.arange(start_frame + 1, start_frame + steps + 1)
    return Trajectory(traj.agent_id, frames, frames * cfg.step_duration,
                      straight_lines(traj.positions[-1], vel, steps, cfg.step_duration))
