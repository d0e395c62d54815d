"""Group division from sustained proximity, plus the group emotion value.

Pairs of agents that stay close over their whole co-present history get a
three-valued closeness score (0, 0.5, or 1). Positive scores become edges of
an undirected graph, held as index arrays (i, j) into the sorted agent ids,
i < j, in (i, j) order; its connected components are the groups. A group's
emotion value is a logistic transform of a cohesion score built from pairwise
velocity alignment, speed differences, and group size.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (Config, DataError, TooFewPointsError, Trajectory, component_labels,
                   near_pairs, velocity_at)

# speeds below this are treated as standing still in the emotion cosine term
_STILL_SPEED = 1e-6

# per-frame emotion is averaged over this many trailing frames of the known
# window to get the single value used for prediction
EMOTION_WINDOW_FRAMES = 5

# from this many members on, exp(n - 2) overflows a float (see _emotions)
_ZERO_EMOTION_SIZE = math.floor(math.log(sys.float_info.max)) + 3

# pair terms (one pair on one frame) held in memory at once: the emotion's
# over a group's frames, the closeness graph's over its candidates' frames
_PAIR_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class IntimacyGraph:
    """Undirected graph over the sorted agent ids ``nodes``: edge k joins
    ``nodes[i[k]]`` and ``nodes[j[k]]``, i[k] < j[k], at closeness level
    ``levels[k]`` (0.5 or 1.0), in (i, j) order; ``edges`` is their dict."""

    nodes: tuple
    i: np.ndarray
    j: np.ndarray
    levels: np.ndarray

    @property
    def edges(self) -> dict:
        return {(self.nodes[a], self.nodes[b]): v for a, b, v in zip(
            self.i.tolist(), self.j.tolist(), self.levels.tolist())}

    def level(self, a: str, b: str) -> float:
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


def pairwise_intimacy(traj_i: Trajectory, traj_j: Trajectory, cfg: Config) -> float:
    """Closeness level of two agents over their co-present frames.

    The pair distance is the maximum over every co-present frame, so a pair
    counts as close only if it stays close throughout. Returns 1 within the
    intimate distance, 0.5 within the personal distance, else 0. Pairs sharing
    fewer than ``cfg.min_overlap_frames`` frames score 0.
    """
    common = np.intersect1d(traj_i.frames, traj_j.frames)
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
    """Closeness level of every agent pair; the positive ones become edges.

    The tracks are laid on one grid over their distinct frames in one pass:
    a presence mask and x and y planes (NaN where absent), each (N, F), rows
    in node order. Only candidate pairs are scored. A pair's maximum
    distance over its co-present frames is at least its |dx| and its |dy| on
    any one of them, so two rows present on the grid's last frame are a
    candidate only when both lie within ``personal_distance`` there: the 2-D
    cell list of :func:`near_pairs` over that frame, which does not depend
    on the axis. A row absent from that frame is NaN there, so it pairs with
    every row. Candidates are scored in blocks of about ``_PAIR_BLOCK``
    terms with the definition of :func:`pairwise_intimacy`: co-present
    count, then the maximum distance over the co-present frames, then the
    two thresholds. Edges are sorted into (i, j) node order.
    """
    rows = sorted(tracks, key=lambda tr: tr.agent_id)
    nodes = tuple(tr.agent_id for tr in rows)
    if len(set(nodes)) != len(nodes):
        raise DataError("duplicate agent ids in track list")
    n = len(rows)
    frames, cols = np.unique(np.concatenate(
        [np.empty(0, dtype=np.int64)] + [tr.frames for tr in rows]),
        return_inverse=True)
    found = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))]
    if not len(frames):
        return IntimacyGraph(nodes, *found[0])
    cells = np.repeat(np.arange(n), [len(tr.frames) for tr in rows]), cols
    present = np.zeros((n, len(frames)), dtype=bool)
    present[cells] = True
    x, y = np.full((2, n, len(frames)), np.nan)
    x[cells], y[cells] = np.concatenate(
        [np.empty((0, 2))] + [tr.positions for tr in rows]).T
    for i, j in near_pairs(np.column_stack([x[:, -1], y[:, -1]]), cfg.personal_distance,
                           max(1, _PAIR_BLOCK // len(frames))):
        co = present[i] & present[j]
        dx = x[i] - x[j]
        dy = y[i] - y[j]
        # sqrt(dx*dx + dy*dy) is what np.linalg.norm computes for a 2-vector,
        # and sqrt is monotone: the root of the largest square is the largest
        # distance, bit for bit
        worst = np.sqrt(np.max(dx * dx + dy * dy, axis=1, where=co, initial=0.0))
        keep = ((co.sum(axis=1) >= cfg.min_overlap_frames)
                & (worst <= cfg.personal_distance))
        found.append((i[keep], j[keep],
                      np.where(worst[keep] <= cfg.intimate_distance, 1.0, 0.5)))
    i, j, levels = (np.concatenate(c) for c in zip(*found))
    first = np.lexsort((j, i))
    return IntimacyGraph(nodes, i[first], j[first], levels[first])


def extract_groups(graph: IntimacyGraph) -> list:
    """Connected components of the positive-closeness graph.

    Every node lands in exactly one group; nodes without edges become
    singleton groups. Components are returned as sorted member tuples,
    ordered by their first member.
    """
    label = component_labels(len(graph.nodes), graph.i, graph.j)
    order = np.argsort(label, kind="stable")
    ids = np.array(graph.nodes, dtype=object)[order].tolist()
    # in label order, a group starts at its first row, its label
    starts = np.flatnonzero(label[order] == order).tolist()
    return [tuple(ids[lo:hi]) for lo, hi in zip(starts, starts[1:] + [len(ids)])]


def _gather(members: list) -> tuple:
    """The center track of two or more members, and the gather it is built on.

    Frames strictly increase within a track, so a frame every member holds
    appears n times in a row in the sorted member frames. The members' rows
    there take one ``searchsorted`` each, into their concatenated positions
    and times. Returns the center, the (n, F, 2) member positions at the F
    common frames, the (n, F) rows where a :func:`velocity_at` difference
    at each of them starts (the previous row; a track's first row is its
    own), and the concatenated positions and times.
    """
    n = len(members)
    frames = np.sort(np.concatenate([tr.frames for tr in members]))
    tail = frames[n - 1:]
    common = tail[tail == frames[:len(tail)]]
    if len(common) == 0:
        ids = ",".join(tr.agent_id for tr in members)
        raise DataError(f"members {ids} are never co-present")
    starts = np.array([0] + [len(tr) for tr in members[:-1]]).cumsum()[:, None]
    rows = np.array([tr.frames.searchsorted(common) for tr in members]) + starts
    positions = np.concatenate([tr.positions for tr in members])
    times = np.concatenate([tr.times for tr in members])
    stack = positions[rows]
    # the sum over members divided by n is what stack.mean(axis=0) computes;
    # the common frames and the first member's times there are a subset of
    # one checked track's, so they strictly increase
    center = _center([tr.agent_id for tr in members], common, times[rows[0]],
                     stack.sum(axis=0) / n)
    return center, stack, np.maximum(rows - 1, starts), positions, times


def _center(ids, frames, times, positions) -> Trajectory:
    """The center track of the members ``ids``, named after them sorted,
    from arrays that keep the :class:`Trajectory` invariants; they are made
    read-only, and nothing is copied or checked."""
    for arr in (frames, times, positions):
        arr.setflags(write=False)
    return Trajectory.trusted("group[" + ",".join(sorted(ids)) + "]", frames, times, positions)


def group_center_trajectory(members: list) -> Trajectory:
    """Per-frame arithmetic mean of the member positions.

    Only frames where every member is present contribute, which keeps the
    center free of jumps when a member's track starts late or ends early.
    A singleton's center is a :meth:`Trajectory.span` of its track.
    """
    if not members:
        raise DataError("group needs at least one member")
    if len(members) == 1:
        tr = members[0]
        return tr.span(0, len(tr), f"group[{tr.agent_id}]")
    return _gather(members)[0]


def _logistic(score: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-score))
    except OverflowError:
        # exp(-score) is beyond the float range: the IEEE value of 1/(1+inf)
        return 0.0


def _running_sum(total: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Each frame's ``total`` plus its terms, added one at a time in
    row-major order: a sequential ``np.cumsum``, where ``np.sum`` would add
    pairwise and change the bits."""
    flat = np.concatenate([total[:, None], terms.reshape(len(total), -1)], axis=1)
    return np.cumsum(flat, axis=1)[:, -1]


def _emotions(vels: np.ndarray) -> list:
    """Emotion values of a group of two or more members, one per frame,
    from the (F, n, 2) member velocities on F frames.

    Reproduces the scalar definition bit for bit: pair terms are added in
    i-major, j-minor order (skipped pairs add an exact +0.0), and the pair
    dot products come from ``np.vecdot``, whose inner loop is the one
    ``vels[i] @ vels[j]`` runs. Rows are taken in blocks, so scratch memory
    stays near ``_PAIR_BLOCK`` terms however large the group. The score is
    at most 2 - n (mean cosine at most 1, speed spread at least 0), so from
    ``_ZERO_EMOTION_SIZE`` (712) members on every value is exactly 0.0, given
    without the loop, for finite speeds, which positions within
    ``core.SCALE`` on the step grid ensure (a NaN speed gives the loop NaN).
    """
    frames, n = vels.shape[:2]
    if n >= _ZERO_EMOTION_SIZE:
        return [0.0] * frames
    # sqrt of the sum of squares is what np.linalg.norm computes
    speeds = np.sqrt((vels * vels).sum(axis=-1))
    moving = speeds > _STILL_SPEED
    cos_sum = np.zeros(frames)
    diff_sum = np.zeros(frames)
    rows = max(1, _PAIR_BLOCK // (frames * n))
    for lo in range(0, n, rows):
        i = slice(lo, lo + rows)
        pair = np.arange(n)[i, None] != np.arange(n)
        si, sj = speeds[:, i, None], speeds[:, None, :]
        cos = np.zeros((frames,) + pair.shape)
        np.divide(np.vecdot(vels[:, i, None], vels[:, None, :]), si * sj,
                  out=cos, where=pair & moving[:, i, None] & moving[:, None, :])
        cos_sum = _running_sum(cos_sum, cos)
        diff_sum = _running_sum(diff_sum, np.where(pair, np.abs(si - sj), 0.0))
    pairs = n * (n - 1)
    return [_logistic(1.0 + cos / pairs - diff / pairs - n)
            for cos, diff in zip(cos_sum.tolist(), diff_sum.tolist())]


def group_emotion(members: list, frame: int, cfg: Config) -> float:
    """Emotion value of a group at one frame, in [0, 1).

    The cohesion score adds 1, the mean pairwise cosine of member velocities,
    minus the mean pairwise absolute speed difference, minus the member
    count; the emotion value is the logistic of that score. Pairs where
    either member is standing still contribute zero to the cosine mean. A
    singleton group has emotion 1 by convention: its track is the group
    track, with nothing to deviate.
    """
    if not members:
        raise DataError("group needs at least one member")
    if len(members) == 1:
        return 1.0
    return _emotions(np.stack([velocity_at(tr, [frame]) for tr in members], axis=1))[0]


def make_group_state(members: list, cfg: Config) -> GroupState:
    """Assemble the full group description used by prediction.

    The emotion is the per-frame value averaged over the trailing frames of
    the center trajectory, where all members are co-present (up to
    ``EMOTION_WINDOW_FRAMES`` of them). The offsets are anchored at the last
    frame of the center trajectory.

    Everything is read off one gather of the members' rows at their common
    frames (:func:`group_center_trajectory`). A member's velocity at a frame
    follows :func:`velocity_at`: the backward difference to its previous
    row, the forward one at its first row.
    """
    if len(members) < 2:
        center = group_center_trajectory(members)
        if not len(center):
            raise DataError(f"agent {members[0].agent_id!r} has no points")
        stack = center.positions[None]
        emotion = 1.0
    else:
        center, stack, before, positions, times = _gather(members)
        for tr in members:
            if len(tr) < 2:
                raise TooFewPointsError(
                    f"agent {tr.agent_id!r} needs >= 2 points for a velocity query")
        # a member of two or more rows starts no difference at its last row,
        # so none spans two members; indexing by (F, n) rows gathers the
        # (F, n, 2) velocities contiguous, as the pair loops read them
        before = before[:, -EMOTION_WINDOW_FRAMES:].T
        dt = (times[1:] - times[:-1])[before]
        vels = (positions[1:] - positions[:-1])[before] / dt[..., None]
        values = _emotions(vels)
        # the bits of np.mean(values)
        emotion = float(np.add.reduce(values)) / len(values)
    offsets = dict(zip((tr.agent_id for tr in members), stack[:, -1] - center.positions[-1]))
    return GroupState(tuple(sorted(tr.agent_id for tr in members)), center,
                      emotion, offsets)


def window_group_states(known: list, groups: list) -> list:
    """:func:`make_group_state` of each group of a known window, bit for
    bit, in one array pass per group size.

    Every track of ``known`` holds the same frames, the window's T; each of
    ``groups`` lists member ids among theirs, and its rows follow that
    order, which fixes the order of the sums. The tracks are stacked once
    into (N, T, 2) positions and (N, T) times. The B groups of one size
    n >= 2 gather their (B, n, T, 2) members: the centers are the sum over
    members divided by n, the offsets each member's last position minus its
    center's. Their velocities at the trailing w = ``min(EMOTION_WINDOW_FRAMES,
    T)`` frames, by the :func:`velocity_at` rule within the window, go to
    one :func:`_emotions` call as B * w frames of n members. A singleton's
    center is a :meth:`Trajectory.span` of its track, with emotion 1.
    States are returned in ``groups`` order.
    """
    if not groups:
        return []
    frames = known[0].frames
    steps = len(frames)
    # frames strictly increase within a track, so none runs across two
    # copies of the first track's: N copies in N tracks are one track each
    held = np.concatenate([tr.frames for tr in known])
    if len(held) != len(known) * steps or (held.reshape(-1, steps) != frames).any():
        raise DataError("known-window tracks must hold the same frames")
    positions = np.concatenate([tr.positions for tr in known]).reshape(-1, steps, 2)
    times = np.concatenate([tr.times for tr in known]).reshape(-1, steps)
    index = {tr.agent_id: k for k, tr in enumerate(known)}
    by_size = {}
    for g, members in enumerate(groups):
        by_size.setdefault(len(members), []).append(g)
    # the rows where each trailing frame's velocity difference ends: the
    # backward one, or the forward one from the window's first row
    w = min(EMOTION_WINDOW_FRAMES, steps)
    end = np.maximum(np.arange(steps - w, steps), 1)[:, None]
    states = [None] * len(groups)
    for n, which in by_size.items():
        rows = np.array([[index[m] for m in groups[g]] for g in which], dtype=np.intp)
        stack = positions[rows]
        if n == 1:
            centers = [known[k].span(0, steps, f"group[{known[k].agent_id}]")
                       for k in rows[:, 0].tolist()]
            center_pos = stack[:, 0]
            emotions = [1.0] * len(which)
        else:
            center_pos = stack.sum(axis=1) / n
            centers = [_center(groups[g], frames, t, p)
                       for g, t, p in zip(which, times[rows[:, 0]], center_pos)]
            # (B, 1, n) rows against (w, 1) ends gather (B, w, n), so the
            # (B * w, n, 2) velocities are contiguous
            member = rows[:, None, :]
            dt = times[member, end] - times[member, end - 1]
            vels = (positions[member, end] - positions[member, end - 1]) / dt[..., None]
            values = np.reshape(_emotions(vels.reshape(-1, n, 2)), (-1, w))
            # each row's bits of np.mean over its w values
            emotions = (np.add.reduce(values, axis=1) / w).tolist()
        offsets = stack[:, :, -1] - center_pos[:, None, -1]
        for g, center, emotion, offset in zip(which, centers, emotions, offsets):
            states[g] = GroupState(tuple(sorted(groups[g])), center, emotion,
                                   dict(zip(groups[g], offset)))
    return states
