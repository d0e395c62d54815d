"""Group division from sustained proximity, plus the group emotion value.

Pairs of agents that stay close over their whole co-present history get a
three-valued closeness score (0, 0.5, or 1). Positive scores become edges of
an undirected graph whose connected components are the groups; a group's
emotion value is a logistic transform of a cohesion score built from pairwise
velocity alignment, speed differences, and group size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Config, DataError, Trajectory, velocity_at

# speeds below this are treated as standing still in the emotion cosine term
_STILL_SPEED = 1e-6

# per-frame emotion is averaged over this many trailing frames of the known
# window to get the single value used for prediction
EMOTION_WINDOW_FRAMES = 5


@dataclass(frozen=True)
class IntimacyGraph:
    """Undirected graph of agents; edges carry a positive closeness level."""

    nodes: tuple
    edges: dict  # (id_a, id_b) sorted tuple -> 0.5 or 1.0

    def level(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        return self.edges.get((min(a, b), max(a, b)), 0.0)


@dataclass(frozen=True)
class GroupState:
    """A detected group: members, center track, emotion, member offsets.

    ``member_offsets`` maps each member to its position relative to the group
    center at the anchor frame (the last frame of the center trajectory); the
    offsets sum to zero there because the center is the member mean.
    """

    members: tuple
    center_trajectory: Trajectory
    emotion: float
    member_offsets: dict

    @property
    def size(self) -> int:
        return len(self.members)


class _UnionFind:
    def __init__(self, items):
        self._parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


def _co_present_frames(traj_i: Trajectory, traj_j: Trajectory) -> np.ndarray:
    return np.intersect1d(traj_i.frames, traj_j.frames)


def pairwise_intimacy(traj_i: Trajectory, traj_j: Trajectory, cfg: Config) -> float:
    """Closeness level of two agents over their co-present frames.

    The pair distance is the maximum over every co-present frame, so a pair
    counts as close only if it stays close throughout. Returns 1 within the
    intimate distance, 0.5 within the personal distance, else 0. Pairs sharing
    fewer than ``cfg.min_overlap_frames`` frames score 0.
    """
    common = _co_present_frames(traj_i, traj_j)
    if len(common) < cfg.min_overlap_frames:
        return 0.0
    pi = traj_i.positions[np.searchsorted(traj_i.frames, common)]
    pj = traj_j.positions[np.searchsorted(traj_j.frames, common)]
    worst = float(np.max(np.linalg.norm(pi - pj, axis=1)))
    if worst <= cfg.intimate_distance:
        return 1.0
    if worst <= cfg.personal_distance:
        return 0.5
    return 0.0


def build_intimacy_graph(tracks: list, cfg: Config) -> IntimacyGraph:
    """Evaluate all agent pairs and keep the edges with positive closeness.

    A cheap prefilter skips the full per-frame scan for pairs that cannot be
    close: too few co-present frames, or already farther than the personal
    distance at the first or last co-present frame (the maximum over all
    frames is then certainly above the threshold too). The result is
    identical to evaluating every pair exhaustively.
    """
    nodes = tuple(sorted({tr.agent_id for tr in tracks}))
    by_id = {tr.agent_id: tr for tr in tracks}
    if len(nodes) != len(tracks):
        raise DataError("duplicate agent ids in track list")
    edges = {}
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            ta, tb = by_id[a], by_id[b]
            common = _co_present_frames(ta, tb)
            if len(common) < cfg.min_overlap_frames:
                continue
            for probe in (common[0], common[-1]):
                d = np.linalg.norm(ta.position_at(probe) - tb.position_at(probe))
                if d > cfg.personal_distance:
                    break
            else:
                level = pairwise_intimacy(ta, tb, cfg)
                if level > 0.0:
                    edges[(a, b)] = level
    return IntimacyGraph(nodes, edges)


def extract_groups(graph: IntimacyGraph) -> list:
    """Connected components of the positive-closeness graph.

    Every node lands in exactly one group; nodes without edges become
    singleton groups. Components are returned as sorted member tuples,
    ordered by their first member.
    """
    uf = _UnionFind(graph.nodes)
    for a, b in graph.edges:
        uf.union(a, b)
    components: dict = {}
    for node in graph.nodes:
        components.setdefault(uf.find(node), []).append(node)
    return sorted(tuple(sorted(m)) for m in components.values())


def group_center_trajectory(members: list) -> Trajectory:
    """Per-frame arithmetic mean of the member positions.

    Only frames where every member is present contribute, which keeps the
    center free of jumps when a member's track starts late or ends early.
    """
    if not members:
        raise DataError("group needs at least one member")
    if len(members) == 1:
        tr = members[0]
        return Trajectory(f"group[{tr.agent_id}]", tr.frames, tr.times, tr.positions)
    common = members[0].frames
    for tr in members[1:]:
        common = np.intersect1d(common, tr.frames)
    if len(common) == 0:
        ids = ",".join(tr.agent_id for tr in members)
        raise DataError(f"members {ids} are never co-present")
    stack = np.stack([tr.positions[np.searchsorted(tr.frames, common)] for tr in members])
    center = stack.mean(axis=0)
    times = members[0].times[np.searchsorted(members[0].frames, common)]
    name = "group[" + ",".join(sorted(tr.agent_id for tr in members)) + "]"
    return Trajectory(name, common, times, center)


def group_emotion(members: list, frame: int, cfg: Config) -> float:
    """Emotion value of a group at one frame, in [0, 1).

    The cohesion score adds 1, the mean pairwise cosine of member velocities,
    minus the mean pairwise absolute speed difference, minus the member
    count; the emotion value is the logistic of that score. Pairs where
    either member is standing still contribute zero to the cosine mean. A
    singleton group has emotion 1 by convention: its track is the group
    track, with nothing to deviate.
    """
    n = len(members)
    if n == 0:
        raise DataError("group needs at least one member")
    if n == 1:
        return 1.0
    vels = np.stack([velocity_at(tr, frame) for tr in members])
    speeds = np.linalg.norm(vels, axis=1)
    cos_sum = 0.0
    speed_diff_sum = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if speeds[i] > _STILL_SPEED and speeds[j] > _STILL_SPEED:
                cos_sum += float(vels[i] @ vels[j]) / (speeds[i] * speeds[j])
            speed_diff_sum += abs(speeds[i] - speeds[j])
    pairs = n * (n - 1)
    score = 1.0 + cos_sum / pairs - speed_diff_sum / pairs - n
    try:
        return 1.0 / (1.0 + math.exp(-score))
    except OverflowError:
        # exp(-score) is beyond the float range: the IEEE value of 1/(1+inf)
        return 0.0


def group_emotion_for_prediction(members: list, cfg: Config) -> float:
    """Single emotion value for a group's prediction.

    The per-frame value is averaged over the trailing frames of the window
    where all members are co-present (up to ``EMOTION_WINDOW_FRAMES`` of
    them).
    """
    if len(members) == 1:
        return 1.0
    center = group_center_trajectory(members)
    frames = center.frames[-EMOTION_WINDOW_FRAMES:]
    values = [group_emotion(members, int(f), cfg) for f in frames]
    return float(np.mean(values))


def make_group_state(members: list, cfg: Config) -> GroupState:
    """Assemble the full group description used by prediction.

    The offsets are anchored at the last frame of the center trajectory.
    """
    center = group_center_trajectory(members)
    emotion = group_emotion_for_prediction(members, cfg)
    anchor = int(center.frames[-1])
    center_pos = center.positions[-1]
    offsets = {tr.agent_id: tr.position_at(anchor) - center_pos for tr in members}
    return GroupState(tuple(sorted(tr.agent_id for tr in members)), center,
                      emotion, offsets)
