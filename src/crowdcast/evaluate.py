"""Displacement metrics and the windowed experiment runner.

A window fixes an endtime; the preceding known steps are observed, the
following steps are predicted and scored against ground truth with
minimum-over-candidates average and final displacement errors (the
best-of-K protocol of Gupta et al., "Social GAN", CVPR 2018). A constant
velocity extrapolation of each member is scored alongside as the baseline.

A window is scored in one pass: its ground truth, its baseline inputs and
every (agent, candidate) row of its groups' flat member rows are gathered
into one stack of difference tracks, which :func:`displacement_errors`
scores. :func:`ade`, :func:`fde` and :func:`min_over_candidates` are its
one-case calls, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Config,
    DataError,
    SceneGeometry,
    Tracks,
    Trajectory,
    build_database,
    final_velocity,
    runs,
)
from .dynamics import ForceParams, straight_lines
from .pipeline import predict_at_endtime


@dataclass(frozen=True)
class Window:
    """One evaluation window: the known steps end at ``endtime``, the
    prediction horizon follows."""

    endtime: int

    def horizon_last(self, cfg: Config) -> int:
        return self.endtime + cfg.predict_time_steps


@dataclass(frozen=True)
class AgentRecord:
    """Scores of one evaluated agent in one window."""

    endtime: int
    agent_id: str
    group_size: int
    emotion: float
    min_ade: float
    min_fde: float
    ade_argmin: int
    fde_argmin: int
    baseline_ade: float
    baseline_fde: float
    n_candidates: int


@dataclass(frozen=True)
class WindowRow:
    """Aggregate of one window. Mean errors are NaN when nothing was
    evaluable."""

    endtime: int
    n_groups: int
    n_agents: int
    n_skipped: int
    min_ade: float
    min_fde: float
    baseline_ade: float
    baseline_fde: float


def _check_aligned(pred: Trajectory, gt: Trajectory):
    if len(pred) != len(gt):
        raise DataError(f"length mismatch: {len(pred)} vs {len(gt)}")
    if len(pred) == 0:
        raise DataError("empty trajectory")
    if not np.array_equal(pred.frames, gt.frames):
        raise DataError("trajectories cover different frames")


def displacement_errors(d: np.ndarray) -> tuple:
    """ADE and FDE of each (..., T, 2) stack of differences between a
    prediction and its ground truth: the mean and the last of the per-step
    distances. The FDE is ``sqrt(vecdot)``, which keeps the bits of the
    one-point ``np.linalg.norm``; a norm over an axis need not."""
    last = d[..., -1, :]
    return np.linalg.norm(d, axis=-1).mean(axis=-1), np.sqrt(np.vecdot(last, last))


def ade(pred: Trajectory, gt: Trajectory) -> float:
    """Mean Euclidean distance per step between two aligned tracks."""
    _check_aligned(pred, gt)
    return float(displacement_errors(pred.positions - gt.positions)[0])


def fde(pred: Trajectory, gt: Trajectory) -> float:
    """Euclidean distance between the final points of two tracks."""
    if len(pred) == 0 or len(gt) == 0:
        raise DataError("empty trajectory")
    if pred.frames[-1] != gt.frames[-1]:
        raise DataError("final frames differ")
    return float(displacement_errors(pred.positions[-1:] - gt.positions[-1:])[1])


def _best(errors: np.ndarray) -> tuple:
    """Per row of (..., K) errors, the minimum and its first place, as
    ``np.argmin`` picks it."""
    arg = errors.argmin(axis=-1)
    return np.take_along_axis(errors, arg[..., None], axis=-1)[..., 0], arg


def min_over_candidates(candidates: list, gt: Trajectory) -> tuple:
    """Minimum ADE and FDE over a candidate set, with their argmins.

    The two minima are taken independently, so the best-on-average candidate
    and the best-at-the-end candidate may differ.
    """
    if not candidates:
        raise DataError("no candidates to score")
    for c in candidates:
        _check_aligned(c, gt)
    d = np.stack([c.positions for c in candidates]) - gt.positions
    (min_ade, min_fde), (ai, fi) = _best(np.stack(displacement_errors(d)))
    return float(min_ade), float(min_fde), (int(ai), int(fi))


@dataclass(frozen=True)
class MetricReport:
    """Experiment results: per-window aggregates and per-agent records."""

    k_used: int
    rows: tuple
    agents: tuple

    @property
    def overall_min_ade(self) -> float:
        vals = [a.min_ade for a in self.agents]
        return float(np.mean(vals)) if vals else math.nan

    @property
    def overall_min_fde(self) -> float:
        vals = [a.min_fde for a in self.agents]
        return float(np.mean(vals)) if vals else math.nan

    def beats_baseline_fraction(self) -> float:
        """Fraction of evaluated agents whose min ADE is at or below the
        constant-velocity baseline's ADE."""
        if not self.agents:
            return math.nan
        hits = sum(1 for a in self.agents if a.min_ade <= a.baseline_ade)
        return hits / len(self.agents)

    def text_table(self) -> str:
        """Aligned table, one column per endtime, ade/fde pairs as cells."""
        def pair(a, f):
            if math.isnan(a) or math.isnan(f):
                return "n/a"
            return f"{a:.6f}/{f:.6f}"

        headers = [f"Endtime= {row.endtime}" for row in self.rows]
        lines = [
            ("hybrid", [pair(r.min_ade, r.min_fde) for r in self.rows]),
            ("baseline", [pair(r.baseline_ade, r.baseline_fde) for r in self.rows]),
            ("groups", [str(r.n_groups) for r in self.rows]),
            ("agents", [f"{r.n_agents} ({r.n_skipped} skipped)" for r in self.rows]),
        ]
        label_w = max(len(name) for name, _ in lines)
        widths = [max(len(h), *(len(cells[i]) for _, cells in lines))
                  for i, h in enumerate(headers)]
        out = [f"K = {self.k_used} candidates per group",
               " " * label_w + "  " +
               "  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        for name, cells in lines:
            out.append(name.ljust(label_w) + "  " +
                       "  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(line.rstrip() for line in out) + "\n"

    def csv_bytes(self) -> bytes:
        out = ["endtime,min_ade,min_fde,n_agents,n_skipped"]
        for r in self.rows:
            out.append(f"{r.endtime},{r.min_ade!r},{r.min_fde!r},"
                       f"{r.n_agents},{r.n_skipped}")
        return ("\n".join(out) + "\n").encode()


def run_experiment(tracks, scene: SceneGeometry, windows: list,
                   cfg: Config, params: ForceParams, mode: str = "rigid",
                   seed: int = 0) -> MetricReport:
    """Run the full predictor over a list of windows and score it.

    Per window, the database is ``build_database(tracks, cfg,
    endtime=window.endtime)``: each track's points before the known window,
    so nothing of the window or its horizon is searched. Each group's own
    members are excluded from its query. Agents covering the whole known
    window are simulated; those also covering the whole horizon are scored.
    An agent with any frame at or before the window's last horizon frame
    counts toward the window's total once, however many tracks hold its id
    (an empty track never counts); total minus evaluated is reported as
    skipped. Windows with nothing to evaluate yield NaN rows rather than
    failing. ``tracks`` is converted once by :meth:`Tracks.of`, so every
    window slices one table.
    """
    tracks = Tracks.of(tracks)
    rows = []
    records = []
    for window in windows:
        seen = tracks.count_before(window.horizon_last(cfg) + 1) > 0
        total = len(np.unique(tracks.codes[seen]))
        db = build_database(tracks, cfg, endtime=window.endtime)
        preds = predict_at_endtime(tracks, window.endtime, db, cfg, params,
                                   scene, mode=mode, seed=seed)
        win_records = _score_window(tracks, preds, window.endtime, cfg)
        n_eval = len(win_records)
        if win_records:
            def mean(key):
                return float(np.mean([getattr(r, key) for r in win_records]))

            row = WindowRow(window.endtime, len(preds), n_eval, total - n_eval,
                            mean("min_ade"), mean("min_fde"),
                            mean("baseline_ade"), mean("baseline_fde"))
        else:
            row = WindowRow(window.endtime, len(preds), 0, total,
                            math.nan, math.nan, math.nan, math.nan)
        rows.append(row)
        records.extend(win_records)
    return MetricReport(cfg.k_candidates + 1, tuple(rows), tuple(records))


def _rows_from(tracks: Tracks, first: int, steps: int, unique: bool = False) -> dict:
    """Agent id -> the table row of frame ``first`` in the last track with
    that id holding every frame ``first`` .. ``first + steps - 1``. With
    ``unique``, two such tracks with one id raise ``DataError`` naming it."""
    hits, rows = tracks.covering(first, steps)
    out = {tracks[t].agent_id: r
           for t, r in zip(hits.tolist(), (tracks.starts[hits] + rows).tolist())}
    if unique and len(out) < len(hits):
        ids = [tracks[t].agent_id for t in hits.tolist()]
        twice = next(a for a in ids if ids.count(a) > 1)
        raise DataError(f"agent {twice!r} has two tracks holding every frame "
                        f"{first}..{first + steps - 1}")
    return out


def _score_window(tracks: Tracks, preds: list, endtime: int, cfg: Config) -> list:
    """An ``AgentRecord`` for each member of ``preds`` that covers the
    horizon, in ``preds`` and ``members`` order.

    One :func:`displacement_errors` pass scores every (agent, candidate)
    row of the groups' flat ``member_points`` rows and every baseline
    against the agents' horizon rows of the table. An agent's rows are found
    by its id, which may hold several tracks: its ground truth in the track
    holding the horizon, its baseline's two rows (frames ``endtime - 1`` and
    ``endtime``) in the one it was grouped from. Two tracks with one id that
    both hold the horizon raise ``DataError``.
    """
    steps, n_known = cfg.predict_time_steps, cfg.known_time_steps
    truth = _rows_from(tracks, endtime + 1, steps, unique=True)
    # every member holds the known window
    known_first = _rows_from(tracks, endtime - n_known + 1, n_known)
    scored, rows, first = [], [], 0
    for pred in preds:
        shape = pred.member_points.shape[:2]
        for k, member in enumerate(pred.members):
            row = truth.get(member)
            if row is not None:
                scored.append((pred, member))
                rows.append((row, known_first[member] + n_known - 1, first + k, *shape))
        first += math.prod(shape)
    if not scored:
        return []
    # (agent, candidate) row i is flat member row lead + slot * size of agent[i]
    starts, ends, lead, counts, size = np.array(rows).T
    agent, slot = runs(counts)
    members = np.concatenate([p.member_points.reshape(-1, steps, 2) for p in preds])
    gt = tracks.positions.take(starts[:, None] + np.arange(steps), axis=0)
    known = ends[:, None] + np.array([-1, 0])
    baseline = straight_lines(tracks.positions.take(ends, axis=0),
                              final_velocity(tracks.positions.take(known, axis=0),
                                             tracks.times.take(known)),
                              steps, cfg.step_duration)
    errors = np.stack(displacement_errors(np.concatenate(
        [members[lead[agent] + slot * size[agent]] - gt[agent], baseline - gt])))
    table = np.full((2, len(counts), counts.max()), np.inf)
    table[:, agent, slot] = errors[:, :len(agent)]
    (min_ade, min_fde), (ai, fi) = _best(table)
    return [AgentRecord(endtime, member, len(pred.members), pred.emotion, *vals)
            for (pred, member), vals in zip(scored, zip(
                min_ade.tolist(), min_fde.tolist(), ai.tolist(), fi.tolist(),
                *errors[:, len(agent):].tolist(), counts.tolist()))]
