"""Force-based rollout of group trajectories and member reconstruction.

Groups are simulated as single bodies: each accelerates toward a desired
velocity aimed at its destination and is repelled exponentially by nearby
groups and by the nearest points of scene obstacles. Members are recovered
from a group's positions by rigid translation plus a deviation scaled by one
minus the group emotion: every member of a window's groups along every
candidate is one row of one :func:`gather_members` array.

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
a subject. Each (subject, candidate) pair is one block, the subject heading
to the candidate and the rest of its reach component to their own last
candidates. The blocks are slices of one flat body array, built in one array
pass per chunk of whole subjects and advanced together, so the fixed cost of
each numpy call is paid once per chunk instead of once per group. Each chunk
lays out the scene's obstacle edges against its bodies once, when it starts
(:class:`~crowdcast.core.ObstacleLayout`), and drops the layout when it ends:
its memory matches one substep's (edges, bodies, 2) obstacle temporaries,
and nothing is cached on the scene.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (Config, DataError, ObstacleLayout, SceneGeometry, TooFewPointsError,
                   Trajectory, check_scale, component_labels, final_velocity,
                   near_pairs, runs)

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
    np.copyto(vel, 0.0, where=arrived[:, None])
    if pairs is None:
        pairs = np.argwhere(~np.eye(n, dtype=bool))
    ends = np.array(pairs, dtype=np.intp).reshape(-1, 2).T.ravel()
    ends.setflags(write=False)
    rows, cols = ends.reshape(2, -1)
    bins = (2 * rows[:, None] + np.arange(2)).ravel()
    bins.setflags(write=False)
    return SimState(pos, vel, dest, spd, caps, arrived, rows, cols, ends, bins)


def _forces(state: SimState, layout: ObstacleLayout, params: ForceParams,
            h: float, dist: np.ndarray) -> tuple:
    """Total force per body for one substep of length ``h``, given the
    state's obstacle ``layout`` and each body's distance ``dist`` to its
    destination.

    Returns the force array and a mask of the rows needing a coincidence
    nudge, or None when no pair is coincident. The desired speed is damped
    to ``dist / h`` close to the destination so the drive term cannot
    overshoot it in one substep. Arrived bodies feel no force but still
    repel others: their rows are computed as any other and zeroed once, at
    the end, so ``dist`` may read anything positive there, +inf included.
    Masks guard coincidence only: a coincident pair, a body on an
    obstacle's boundary. Each is tested with one reduction, and its mask is
    built only when it occurs.
    """
    pos = state.positions
    n_arrived = np.count_nonzero(state.arrived)

    # mass * (v_des - v) / relaxation_time, in place. A body not arrived
    # lies further than radius >= 1/SCALE = _COINCIDENT from its
    # destination (make_sim_state and every substep mark the others
    # arrived), so no dist here is zero
    forces = state.destinations - pos
    speed = np.minimum(state.desired_speeds, dist / h)
    forces /= dist[:, None]
    forces *= speed[:, None]
    forces -= state.velocities
    forces *= params.mass
    forces /= params.relaxation_time

    n_pairs = len(state.rows)
    nudge = None
    if n_pairs:
        ends = pos.take(state.ends, axis=0)
        delta = np.subtract(ends[:n_pairs], ends[n_pairs:], out=ends[:n_pairs])
        d = _length(delta)
        apart = d.min() >= _COINCIDENT
        pair = d < params.neighborhood_range
        if not apart:
            pair &= d >= _COINCIDENT
        in_range = np.count_nonzero(pair)
        if in_range:
            near, dn, bins = delta, d, state.bins
            if in_range < n_pairs:
                keep = pair.nonzero()[0]
                near, dn = delta.take(keep, axis=0), d.take(keep)
                bins = bins.reshape(-1, 2).take(keep, axis=0).ravel()
            # strength * exp(min((2 radius - d) / range, cap)) * delta / d,
            # in place
            mag = 2.0 * params.radius - dn
            mag /= params.repulsion_range
            np.minimum(mag, _EXP_CAP, out=mag)
            np.exp(mag, out=mag)
            mag *= params.repulsion_strength
            near /= dn[:, None]
            near *= mag[:, None]
            # bincount adds the terms into zeroed bins in input order, so each
            # row sums in ascending j, as a dense sum over the full pair
            # matrix does. A pair out of range adds exactly +0.0 there, and a
            # sum that starts at +0.0 never holds -0.0, so leaving it out
            # changes no bit.
            forces += np.bincount(bins, near.ravel(), forces.size).reshape(forces.shape)
        if not apart:
            nudge = np.zeros(len(pos), dtype=bool)
            nudge[state.rows[d < _COINCIDENT]] = True
            if n_arrived:
                nudge &= ~state.arrived

    # the (O, M) terms of every obstacle at once, then added one obstacle at
    # a time, in scene order, as a per-body sum would add them; a body at a
    # contact point gets no term from that obstacle
    if layout.n_obstacles:
        # |signed_d| is the length of ``away`` bit for bit, and x / -l is
        # -(x / l) exactly, so dividing by signed_d both normalises ``away``
        # and turns it outward from inside a polygon
        away, signed_d = layout.contacts(pos)
        if np.abs(signed_d).min(initial=np.inf) >= _COINCIDENT:
            away /= signed_d[..., None]
            masks = [True] * len(away)
        else:
            masks = ~(np.abs(signed_d) < _COINCIDENT)[..., None]
            np.divide(away, signed_d[..., None], out=away, where=masks)
        mag = 2.0 * params.radius - signed_d
        mag /= params.obstacle_range
        np.minimum(mag, _EXP_CAP, out=mag)
        np.exp(mag, out=mag)
        mag *= params.obstacle_strength
        away *= mag[..., None]
        # ``where=True`` is the unmasked ufunc
        for term, mask in zip(away, masks):
            np.add(forces, term, out=forces, where=mask)
    if n_arrived:
        np.copyto(forces, 0.0, where=state.arrived[:, None])
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
    # an arrived row's force comes out of _forces as +0.0, and its velocity
    # is held at +0.0 for the call and given back at the end, so the
    # velocity add and the speed cap keep its bits unmasked. Its position
    # would lose a -0.0 to a +0.0 add, so that one add is masked once a
    # body has arrived; ``where=True`` is the unmasked ufunc
    held = sim.arrived.nonzero()[0]
    kept = vel.take(held, axis=0)
    vel[held] = 0.0
    n_arrived = len(held)
    moving = ~sim.arrived[:, None] if n_arrived else True
    # laid out once per call, and dropped with it
    layout = ObstacleLayout(scene, len(pos))
    # each substep's distances to the destinations serve the next one:
    # |pos - dest| has the bits of |dest - pos|, as (-x)² is x². An arrived
    # row reads +inf (``beyond``), which _forces allows, so one minimum
    # tells whether a body arrives; a distance plus +0.0 keeps its bits
    beyond = np.where(sim.arrived, np.inf, 0.0)
    dist = _length(pos - sim.destinations)
    dist += beyond
    for s in range(steps):
        for _ in range(params.substeps):
            forces, nudge = _forces(sim, layout, params, h, dist)
            forces /= params.mass
            forces *= h
            vel += forces
            norms = _length(vel)
            over = norms > caps
            if np.count_nonzero(over):
                vel[over] *= (caps[over] / norms[over])[:, None]
            np.add(pos, vel * h, out=pos, where=moving)
            if nudge is not None:
                _nudge_coincident(sim, nudge)
            dist = _length(pos - sim.destinations)
            if n_arrived:
                dist += beyond
            if dist.min(initial=np.inf) <= params.radius:
                newly = (dist <= params.radius).nonzero()[0]
                sim.arrived[newly] = True
                vel[newly] = 0.0
                beyond[newly] = np.inf
                dist[newly] = np.inf
                n_arrived += len(newly)
                moving = ~sim.arrived[:, None]
        out[:, s] = pos.take(watch, axis=0)
    vel[held] = kept
    return out


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
    ``others`` are bodies simulated but never subjects, rows S onward, each
    with a ``pos``, ``dest``, ``speed`` and ``velocity`` (None to aim it).
    ``initial_velocity`` is an (S, 2) array, or None to start each subject
    at its desired speed aimed at the candidate. Desired speeds are floored
    at ``params.speed_floor``.

    Repulsion acts only along the edges of one :func:`reach_edges` graph of
    the rows' starts and floored speeds over the ``steps`` horizon. Block
    (s, c) simulates subject s heading to ``dest[s][c]``, followed by the
    rest of its component in ascending row order. Blocks advance together in
    chunks of whole subjects (``_CHUNK``). Returns S read-only (C_s, steps,
    2) arrays of subject s's positions: views of one array.
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
    count = np.array([len(c) for c in cands], dtype=np.intp)
    if np.count_nonzero(count == 0):
        raise DataError("every subject needs a candidate destination")
    flat = np.concatenate([np.empty((0, 2))] + cands)
    others = list(others)
    starts = np.concatenate([subjects, np.reshape([g.pos for g in others], (-1, 2))])
    heads = np.concatenate([flat[np.cumsum(count) - 1],
                            np.reshape([g.dest for g in others], (-1, 2))])
    speeds = np.maximum(np.concatenate([speed, [g.speed for g in others]]),
                        params.speed_floor)
    # every input is checked here, also of rows no subject's block holds
    if not all(np.isfinite(a).all() for a in (starts, heads, speeds, flat)):
        raise DataError("non-finite simulation input")

    # a body without a given velocity starts at its desired speed, aimed at
    # its destination, or at rest when it is already there; only those
    # bodies are aimed
    aim = np.array([initial_velocity is None] * n_sub + [g.velocity is None for g in others],
                   dtype=bool)
    vel = np.empty_like(starts)
    if initial_velocity is not None:
        vel[:n_sub] = np.reshape(initial_velocity, (n_sub, 2))
    vel[n_sub:][~aim[n_sub:]] = np.reshape(
        [g.velocity for g in others if g.velocity is not None], (-1, 2))
    if aim.any():
        vel[aim] = _unit(heads[aim] - starts[aim]) * speeds[aim, None]
    if not np.isfinite(vel).all():
        raise DataError("non-finite simulation input")

    # the components' rows ascending, one component after another; each
    # row's component and place in it; and the edges as places, sorted by
    # component so that each component's are one slice
    i, j = reach_edges(starts, params.max_speed_for(speeds), params.neighborhood_range,
                       steps * cfg.step_duration)
    label = component_labels(len(starts), i, j)
    member, size = np.argsort(label, kind="stable"), np.bincount(label)
    place = np.empty_like(label)
    place[member] = runs(size)[1]
    by = np.argsort(label[i], kind="stable")
    cut = np.searchsorted(label[i[by]], np.arange(len(size) + 1))
    ends = place[np.stack([i, j])[:, by]]
    # one block of a subject holds its component's bodies and each edge twice
    costs = count * (size + 2 * np.diff(cut))[label[:n_sub]]

    def state_of(lo: int, hi: int) -> tuple:
        """The flat state of subjects lo .. hi - 1's blocks, and their leads."""
        comp, p, n = label[lo:hi], place[lo:hi], count[lo:hi]
        sub, two = np.repeat(np.arange(hi - lo), n), 2 * np.diff(cut)[comp]
        # block row k is the subject's place p at k = 0, then the others
        blk, k = runs(size[comp[sub]])
        q = p[sub[blk]]
        body = member[(np.cumsum(size) - size)[comp[sub[blk]]]
                      + np.where(k == 0, q, k - (k <= q))]
        lead = np.flatnonzero(k == 0)
        # each subject's edges in both directions as block rows, sorted by
        # subject, row and column; then each block's, offset by its first row
        at, e = runs(two // 2)
        e = ends[:, cut[comp[at]] + e]
        e = np.where(e == p[at], 0, e + (e < p[at]))
        e = np.concatenate([e, e[::-1]], axis=1)
        e = e.take(np.lexsort((e[1], e[0], np.concatenate([at, at]))), axis=1)
        blk, w = runs(two[sub])
        pairs = e.take((np.cumsum(two) - two)[sub[blk]] + w, axis=1)
        pairs += lead[blk]
        dst, vel0 = heads.take(body, axis=0), vel.take(body, axis=0)
        dst[lead] = np.concatenate(cands[lo:hi])
        if initial_velocity is None:
            s = np.repeat(np.arange(lo, hi), n)
            vel0[lead] = _unit(dst.take(lead, axis=0) - subjects[s]) * speeds[s][:, None]
        return make_sim_state(starts.take(body, axis=0), vel0, dst, speeds[body], params,
                              pairs.T), lead

    points = []
    for chunk in _chunks(costs.tolist()):
        state, lead = state_of(chunk[0], chunk[-1] + 1)
        points.append(_advance(state, scene, params, cfg.step_duration, steps, lead))
        del state       # freed before the next chunk's state is built
    points = np.concatenate([np.empty((0, steps, 2))] + points)
    points.setflags(write=False)
    return [points[hi - c:hi] for c, hi in zip(count.tolist(), np.cumsum(count).tolist())]


# the member reconstruction modes of ReconstructionPolicy
MODES = ("rigid", "seeded-jitter")


@dataclass(frozen=True)
class ReconstructionPolicy:
    """How member deviations from rigid translation are generated: the
    ``mode`` and ``seed`` of :func:`member_deviations`, and each member's
    residual pattern from the known window (``rigid`` tiles it over the
    horizon, ``seeded-jitter`` scales random steps to its spread)."""

    mode: str = "rigid"
    residuals: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown reconstruction mode {self.mode!r}")


def member_deviations(residuals: np.ndarray, slots: np.ndarray, steps: int,
                      policy: ReconstructionPolicy) -> np.ndarray:
    """The (M, steps, 2) deviations of M members from their (M, L, 2)
    residual patterns, by the mode and seed of ``policy``. ``rigid`` takes
    row t % L at step t (zero when L is 0). ``seeded-jitter`` scales
    standard normal rows by each pattern's RMS: a group draws them member by
    member from one generator seeded with the seed, so the member in group
    slot ``slots[m]`` takes that block of one draw."""
    n, length = residuals.shape[:2]
    if policy.mode == "rigid":
        return residuals[:, np.arange(steps) % length] if length else np.zeros((n, steps, 2))
    # each row's bits of np.mean over its pattern's 2L values
    rms = np.sqrt(np.mean(residuals ** 2, axis=(1, 2))) if length else np.zeros(n)
    draws = np.random.default_rng(policy.seed).normal(
        0.0, 1.0, (slots.max(initial=-1) + 1, steps, 2))
    return draws[slots] * rms[:, None, None]


def gather_members(points: np.ndarray, sizes, offsets: np.ndarray, emotions: np.ndarray,
                   dev: np.ndarray) -> np.ndarray:
    """Every member of G groups along each of their candidates, a read-only
    (sum C * M, T, 2) array of each group's (C, M) rows, candidate-major:
    the group's position plus the member's offset plus ``1 − emotion`` times
    its deviation. ``points`` stacks the groups' (C, T, 2) positions,
    ``sizes`` and ``emotions`` hold each group's (C, M) and emotion, and
    ``offsets`` (sum M, 2) and ``dev`` (sum M, T, 2) its members."""
    n_cand, n_mem = np.reshape(np.asarray(sizes, dtype=np.intp), (-1, 2)).T
    scaled = np.repeat(1.0 - emotions, n_mem)[:, None, None] * dev
    at, k = runs(n_cand * n_mem)
    member = (np.cumsum(n_mem) - n_mem)[at] + k % n_mem[at]
    out = points.take((np.cumsum(n_cand) - n_cand)[at] + k // n_mem[at], axis=0)
    # repeated over the steps, as a broadcast add loops over two coordinates
    out += np.repeat(offsets[:, None], dev.shape[1], axis=1).take(member, axis=0)
    out += scaled.take(member, axis=0)
    out.setflags(write=False)
    return out


def member_positions(group_positions: np.ndarray, offsets: dict, emotion: float,
                     policy: ReconstructionPolicy) -> np.ndarray:
    """Every member along each of the (C, T, 2) ``group_positions``, as a
    read-only (C, M, T, 2) array, members in ``sorted(offsets, key=str)``
    order and slots: the one-group call of :func:`gather_members`. A
    member's deviations are the same along every candidate."""
    if not 0.0 <= emotion <= 1.0:
        raise DataError(f"emotion must be in [0, 1], got {emotion}")
    if set(offsets) != set(policy.residuals):
        raise DataError("member offsets and residual patterns disagree")
    ids = sorted(offsets, key=str)
    for agent_id in ids:
        if np.shape(offsets[agent_id]) != (2,):
            raise DataError(f"offset of member {agent_id!r} must be one (x, y) point")
    n_cand, steps = group_positions.shape[:2]
    # one pass per pattern length, as patterns may differ in length here
    lengths = np.array([len(policy.residuals[a]) for a in ids], dtype=np.intp)
    dev = np.empty((len(ids), steps, 2))
    for length in np.unique(lengths).tolist():
        at = np.flatnonzero(lengths == length)
        pattern = np.asarray([policy.residuals[ids[k]] for k in at], dtype=np.float64)
        dev[at] = member_deviations(pattern.reshape(len(at), length, 2), at, steps, policy)
    points = gather_members(group_positions, [(n_cand, len(ids))],
                            np.reshape([offsets[a] for a in ids], (-1, 2)), emotion, dev)
    return points.reshape(n_cand, len(ids), steps, 2)


def reconstruct_members(group_traj: Trajectory, offsets: dict, emotion: float,
                        policy: ReconstructionPolicy) -> dict:
    """Member trajectories along one group trajectory: the one-candidate
    case of :func:`member_positions`. At emotion 1 the members translate
    rigidly with the group; at 0, which a long chained group's cohesion
    rounds to, the deviation is unscaled."""
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
