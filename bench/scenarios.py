"""Seeded scenario generator for the crowdcast benchmark.

Uses numpy only. It writes canonical CSV, obsmat rows, homography and scene
text itself and never calls crowdcast, so the input bytes for a seed stay
identical whatever the program's writer or force model does. Paths are
kinematic: every group walks a curved route at constant speed in a fixed
formation (in line, abreast or V) and members add small position noise.

Each generator returns a ``Scenario``: the input files as bytes, the
configuration the workload runs with, and for every operation the expected
outcome (scored-agent count, planted groups, known agents) that the
benchmark checks the program's output against.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

STEP = 0.3999          # seconds per canonical frame (crowdcast default)
KNOWN = 30             # known-window length (crowdcast default)
FORMATIONS = ("line", "abreast", "v")


@dataclass(frozen=True)
class Op:
    """One benchmark operation: an endtime plus what the output must show.

    ``expected_scored`` is the number of agents covering the known window
    and the horizon; ``known`` the agents covering the known window;
    ``groups`` the planted groups whose members are all known.
    """

    endtime: int
    expected_scored: int
    known: frozenset
    groups: tuple


@dataclass
class Scenario:
    name: str
    files: dict                      # file name -> bytes
    ops: list                        # list of Op, one pass of the workload
    config: dict = field(default_factory=dict)   # crowdcast.Config overrides
    params: dict = field(default_factory=dict)   # ForceParams overrides
    mode: str = "rigid"
    fps: float | None = None         # set when the input is raw obsmat
    checks: list = field(default_factory=list)   # untimed accuracy windows

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name] + b"\0")
        return h.hexdigest()


# ---------------------------------------------------------------------------
# kinematics

def _route_walk(route: np.ndarray, speed: float, times: np.ndarray):
    """Positions and unit headings along a quadratic Bezier route walked at
    constant speed, continuing straight past its end."""
    u = np.linspace(0.0, 1.0, 801)[:, None]
    a, b, c = route
    curve = (1 - u) ** 2 * a + 2 * (1 - u) * u * b + u ** 2 * c
    seg = np.linalg.norm(np.diff(curve, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    s = speed * times
    x = np.interp(s, arc, curve[:, 0])
    y = np.interp(s, arc, curve[:, 1])
    tang = np.gradient(curve, axis=0)
    tang /= np.linalg.norm(tang, axis=1, keepdims=True)
    hx = np.interp(s, arc, tang[:, 0])
    hy = np.interp(s, arc, tang[:, 1])
    past = s > arc[-1]
    x[past] = curve[-1, 0] + tang[-1, 0] * (s[past] - arc[-1])
    y[past] = curve[-1, 1] + tang[-1, 1] * (s[past] - arc[-1])
    head = np.stack([hx, hy], axis=1)
    head /= np.linalg.norm(head, axis=1, keepdims=True)
    return np.stack([x, y], axis=1), head


def _formation(n: int, kind: str) -> np.ndarray:
    """(along, across) member offsets, centred on their mean. Neighbours sit
    0.7-0.9 m apart, so every group is one connected cluster within the
    1.2 m personal distance."""
    k = np.arange(n, dtype=np.float64)
    if kind == "line":
        off = np.stack([-0.8 * k, np.zeros(n)], axis=1)
    elif kind == "abreast":
        off = np.stack([np.zeros(n), 0.7 * (k - (n - 1) / 2)], axis=1)
    else:
        rank = np.ceil(k / 2)
        side = np.where(k % 2 == 1, 1.0, -1.0)
        off = np.stack([-0.5 * rank, 0.7 * rank * side], axis=1)
    return off - off.mean(axis=0)


def _members(center: np.ndarray, head: np.ndarray, offsets: np.ndarray,
             rng: np.random.Generator, noise: float = 0.03) -> list:
    perp = np.stack([-head[:, 1], head[:, 0]], axis=1)
    return [center + o[0] * head + o[1] * perp
            + rng.normal(0.0, noise, size=center.shape) for o in offsets]


# group sizes and formations cycle in a fixed order, so the mix of work is
# the same for every seed; the seed moves offsets, speeds (about 1%) and noise
SIZES = (2, 1, 3, 2, 4, 1, 2, 3)


def _size_and_formation(i: int) -> tuple:
    return SIZES[i % len(SIZES)], FORMATIONS[i % len(FORMATIONS)]


# ---------------------------------------------------------------------------
# writers

def _canonical_csv(agents: list) -> bytes:
    """agents: (agent number, first frame, (n, 2) positions), any order."""
    lines = ["frame,agent_id,x,y"]
    for num, first, pos in sorted(agents, key=lambda a: a[0]):
        for i, (x, y) in enumerate(pos):
            lines.append(f"{first + i},p{num},{float(x)!r},{float(y)!r}")
    return ("\n".join(lines) + "\n").encode()


def _scene_text(segments: list, polygons: list) -> bytes:
    lines = ["# generated benchmark scene"]
    lines += ["seg " + " ".join(repr(float(v)) for v in np.ravel(s)) for s in segments]
    lines += ["poly " + " ".join(repr(float(v)) for v in np.ravel(p)) for p in polygons]
    return ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------------------
# window bookkeeping shared by the flow scenarios

def _flow_ops(spans: dict, groups: list, endtimes, horizon: int) -> list:
    """spans: agent id -> (first frame, last frame) on the canonical grid."""
    ops = []
    for e in endtimes:
        first = e - KNOWN + 1
        known = frozenset(a for a, (f0, f1) in spans.items()
                          if f0 <= first and f1 >= e)
        scored = sum(1 for a in known if spans[a][1] >= e + horizon)
        planted = tuple(g for g in groups if set(g) <= known)
        ops.append(Op(int(e), scored, known, planted))
    return ops


def _lane_groups(rng, lanes, period: int, duration: int, n_spawn: int):
    """Periodic group spawns on each lane.

    Every lane spawns one group each ``period`` frames that walks for
    ``duration`` frames. Lane phases and the base speed are fixed, so a seed
    changes each group's lateral offset, speed jitter and member noise but
    not which groups meet. Returns per group its agent numbers, spawn frame
    and member positions on the canonical grid.
    """
    num = 0
    out = []
    for li, route in enumerate(lanes):
        phase = (7 * li) % period
        for j in range(n_spawn):
            spawn = phase + j * period
            n, kind = _size_and_formation(li + j)
            shift = rng.uniform(-0.1, 0.1)
            d = route[2] - route[0]
            normal = np.array([-d[1], d[0]]) / np.linalg.norm(d)
            speed = 1.2 + rng.uniform(-0.01, 0.01)
            times = np.arange(duration) * STEP
            center, head = _route_walk(route + shift * normal, speed, times)
            pos = _members(center, head, _formation(n, kind), rng)
            ids = list(range(num, num + n))
            num += n
            out.append((ids, spawn, pos))
    return out


def _flow_scenario(name, rng, lanes, period, duration, endtimes, horizon,
                   scene=b"", **kw) -> Scenario:
    n_spawn = max(endtimes) // period + 2      # every group a window can see
    made = _lane_groups(rng, lanes, period, duration, n_spawn)
    agents, spans, groups = [], {}, []
    for ids, spawn, pos in made:
        for num, p in zip(ids, pos):
            agents.append((num, spawn, p))
            spans[f"p{num}"] = (spawn, spawn + duration - 1)
        groups.append(tuple(f"p{i}" for i in ids))
    files = {"canonical.csv": _canonical_csv(agents), "scene.txt": scene}
    return Scenario(name, files, _flow_ops(spans, groups, endtimes, horizon), **kw)


# ---------------------------------------------------------------------------
# workloads

def concourse(seed: int, tiny: bool = False) -> Scenario:
    """Wide, sparse area: three clusters of three lanes (two crossing, one
    counterflow), 120 m apart, so most group pairs are beyond the rollout's
    reach. No obstacles."""
    rng = np.random.default_rng([seed, 1])
    lanes = []
    for c in range(1 if tiny else 3):
        ox = 120.0 * c
        lanes.append(np.array([[ox - 28, -4], [ox + 4, -4], [ox + 28, 10]]))
        lanes.append(np.array([[ox + 4, -28], [ox + 4, 2], [ox - 14, 26]]))
        lanes.append(np.array([[ox + 28, 2], [ox, 3], [ox - 28, -6]]))
    # a lane spawns every 30 frames and each group stays 89 frames, so every
    # window simulates exactly two groups per lane and scores one; windows
    # 30 frames apart score different groups
    endtimes = range(150, 150 + (2 if tiny else 10) * 30, 30)
    return _flow_scenario("concourse", rng, lanes, period=30, duration=89,
                          endtimes=endtimes, horizon=30,
                          params={"substeps": 1})


def bottleneck(seed: int, tiny: bool = False) -> Scenario:
    """Small dense scene: counterflow through a 2.4 m gap between a wall
    segment and a pillar. Default substeps, seeded-jitter reconstruction,
    a short horizon and k = 3 to keep one window near half a second."""
    rng = np.random.default_rng([seed, 2])
    horizon = 8
    lanes = [np.array([[-14.0, 0.6], [0.0, 0.0], [14.0, -0.6]]),
             np.array([[14.0, -0.6], [0.0, 0.0], [-14.0, 0.6]])]
    scene = _scene_text(
        segments=[np.array([[0.0, 1.2], [0.0, 6.0]])],
        polygons=[np.array([[-0.4, -1.2], [0.4, -1.2], [0.4, -3.0], [-0.4, -3.0]])])
    # period 8 and duration 45: two groups per lane in every window, one
    # of them scored; windows 8 frames apart score different groups
    endtimes = range(100, 100 + (2 if tiny else 40) * 8, 8)
    return _flow_scenario("bottleneck", rng, lanes, period=8, duration=45,
                          endtimes=endtimes, horizon=horizon,
                          scene=scene,
                          config={"predict_time_steps": horizon, "k_candidates": 3},
                          mode="seeded-jitter")


def recording(seed: int, tiny: bool = False) -> Scenario:
    """A long street-front recording written as raw obsmat rows at 10 fps in
    pixel units with a perspective homography. Pedestrians cross a 36 m wide
    view in both directions, a few as groups, some turning into a doorway.
    Windows are spread at a fixed stride over the part of the recording that
    has at least two minutes of history."""
    rng = np.random.default_rng([seed, 3])
    fps = 10.0
    raw_frames = 1500 if tiny else 8000
    h = np.array([[0.021, 0.0009, -0.4], [-0.0006, 0.026, -0.2],
                  [0.00002, 0.00004, 1.0]])
    hinv = np.linalg.inv(h)
    routes = [np.array([[-4.0, 4.0], [14.0, 4.5], [32.0, 4.0]]),
              np.array([[32.0, 6.5], [14.0, 6.0], [-4.0, 6.5]]),
              np.array([[-4.0, 0.5], [14.0, 0.5], [16.0, 12.0]]),
              np.array([[32.0, 9.5], [18.0, 9.5], [16.0, 12.5]])]
    rows = []
    spans = {}
    groups = []
    num = 1
    route_gap = 300    # raw frames between spawns on one route
    spawns = []
    for r in range(len(routes)):
        for t in range(r * route_gap // len(routes), raw_frames - 20, route_gap):
            spawns.append((t + int(rng.integers(0, 3)), r))
    for i, (spawn, r) in enumerate(sorted(spawns)):
        n, kind = _size_and_formation(i)
        speed = rng.uniform(1.08, 1.12)
        route = routes[r] + rng.uniform(-0.1, 0.1, size=(1, 2))
        length = float(np.linalg.norm(route[1] - route[0])
                       + np.linalg.norm(route[2] - route[1]))
        last = min(raw_frames - 1, spawn + int(length / speed * fps))
        raw = np.arange(spawn, last + 1)
        center, head = _route_walk(route, speed, (raw - spawn) / fps)
        pos = _members(center, head, _formation(n, kind), rng)
        t0, t1 = spawn / fps, last / fps
        k0 = int(np.ceil(t0 / STEP - 1e-9))
        k1 = int(np.floor(t1 / STEP + 1e-9))
        ids = []
        for p in pos:
            pix = np.column_stack([p, np.ones(len(p))]) @ hinv.T
            pix = pix[:, :2] / pix[:, 2:]
            for f, (x, y) in zip(raw, pix):
                rows.append((int(f), num, float(x), float(y)))
            if k1 - k0 >= 1:
                spans[str(num)] = (k0, k1)
                ids.append(str(num))
            num += 1
        if ids:
            groups.append(tuple(ids))
    rows.sort()
    text = "".join(f"{f} {a} {x!r} 0.0 {y!r} 0.0 0.0 0.0\n" for f, a, x, y in rows)
    last_frame = int(np.floor((raw_frames - 1) / fps / STEP))
    first_end = 200 if tiny else 300
    n_windows = 3 if tiny else 80
    stride = max(1, (last_frame - 30 - first_end) // n_windows)
    endtimes = range(first_end, first_end + n_windows * stride, stride)
    files = {"obsmat.txt": text.encode(),
             "homography.txt": (" ".join(repr(float(v)) for v in h.ravel())
                                + "\n").encode(),
             "scene.txt": b""}
    return Scenario("recording", files, _flow_ops(spans, groups, endtimes, 30),
                    params={"substeps": 1}, fps=fps)


def plaza(seed: int, tiny: bool = False) -> Scenario:
    """Dense plaza: every agent is present throughout, circling the plaza
    centre on concentric rings 2 m apart, alternate rings in opposite
    directions; groups on one ring keep at least 4 m apart. Most agents
    walk in planted groups."""
    rng = np.random.default_rng([seed, 4])
    n_target = 60 if tiny else 200
    n_frames = 40 + (3 if tiny else 8) * 8
    t = np.arange(n_frames) * STEP
    agents, groups = [], []
    num, ring = 0, 0
    while num < n_target:
        radius = 4.0 + 2.0 * ring
        direction = 1.0 if ring % 2 == 0 else -1.0
        slots = int(2 * np.pi * radius // 4.5)
        for k in range(slots):
            if num >= n_target:
                break
            n, kind = _size_and_formation(len(groups))
            n = min(n, n_target - num)
            r = radius + rng.uniform(-0.1, 0.1)
            theta = (2 * np.pi * (k + rng.uniform(-0.05, 0.05)) / slots
                     + direction * (1.0 + rng.uniform(-0.01, 0.01)) * t / r)
            center = r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
            head = direction * np.stack([-np.sin(theta), np.cos(theta)], axis=1)
            pos = _members(center, head, _formation(n, kind), rng)
            agents += [(i, 0, p) for i, p in zip(range(num, num + n), pos)]
            groups.append(tuple(f"p{i}" for i in range(num, num + n)))
            num += n
        ring += 1
    everyone = frozenset(f"p{i}" for i in range(num))
    ops = [Op(e, num, everyone, tuple(groups))
           for e in range(KNOWN + 9, n_frames - 1, 8)]
    files = {"canonical.csv": _canonical_csv(agents), "scene.txt": b""}
    # accuracy: disjoint subsets of the planted groups, each spanning all
    # rings, one eval window each
    e = n_frames - 31
    checks = []
    for j in range(1 if tiny else 2):
        sub = tuple(groups[j::1 if tiny else 4])
        agents_in = frozenset(a for g in sub for a in g)
        checks.append(Op(e, len(agents_in), agents_in, sub))
    return Scenario("plaza-groups", files, ops, params={"substeps": 1},
                    checks=checks)


GENERATORS = {
    "concourse": concourse,
    "bottleneck": bottleneck,
    "recording": recording,
    "plaza-groups": plaza,
}
