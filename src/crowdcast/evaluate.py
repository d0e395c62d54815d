"""Displacement metrics and the windowed experiment runner.

A window fixes an endtime; the preceding known steps are observed, the
following steps are predicted and scored against ground truth with
minimum-over-candidates average and final displacement errors. A constant
velocity extrapolation of each member is scored alongside as the baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Config,
    DataError,
    SceneGeometry,
    Trajectory,
    build_database,
    history_for_endtime,
)
from .dynamics import ForceParams, constant_velocity_baseline
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


def ade(pred: Trajectory, gt: Trajectory) -> float:
    """Mean Euclidean distance per step between two aligned tracks."""
    _check_aligned(pred, gt)
    return float(np.mean(np.linalg.norm(pred.positions - gt.positions, axis=1)))


def fde(pred: Trajectory, gt: Trajectory) -> float:
    """Euclidean distance between the final points of two tracks."""
    if len(pred) == 0 or len(gt) == 0:
        raise DataError("empty trajectory")
    if pred.frames[-1] != gt.frames[-1]:
        raise DataError("final frames differ")
    return float(np.linalg.norm(pred.positions[-1] - gt.positions[-1]))


def min_over_candidates(candidates: list, gt: Trajectory) -> tuple:
    """Minimum ADE and FDE over a candidate set, with their argmins.

    The two minima are taken independently, so the best-on-average candidate
    and the best-at-the-end candidate may differ.
    """
    if not candidates:
        raise DataError("no candidates to score")
    ades = [ade(c, gt) for c in candidates]
    fdes = [fde(c, gt) for c in candidates]
    ai = int(np.argmin(ades))
    fi = int(np.argmin(fdes))
    return ades[ai], fdes[fi], (ai, fi)


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


def run_experiment(tracks: list, scene: SceneGeometry, windows: list,
                   cfg: Config, params: ForceParams, mode: str = "rigid",
                   seed: int = 0) -> MetricReport:
    """Run the full predictor over a list of windows and score it.

    Per window, the database holds only frames before the known window and
    each group's own members are excluded from its query. Agents covering
    the whole known window are simulated; those also covering the whole
    horizon are scored. An agent with any frame at or before the window's
    last horizon frame counts toward the window's total; total minus
    evaluated is reported as skipped. Windows with nothing to evaluate
    yield NaN rows rather than failing.
    """
    rows = []
    records = []
    by_id = {tr.agent_id: tr for tr in tracks}
    steps = cfg.predict_time_steps
    for window in windows:
        horizon_last = window.horizon_last(cfg)
        total = sum(1 for tr in tracks if tr.frames[0] <= horizon_last)
        db = build_database(history_for_endtime(tracks, window.endtime, cfg), cfg)
        preds = predict_at_endtime(tracks, window.endtime, db, cfg, params,
                                   scene, mode=mode, seed=seed)
        win_records = []
        for pred in preds:
            for member, known in zip(pred.members, pred.known):
                # frames increase: covered when steps - 1 after the first is last
                tr = by_id[member]
                i = int(np.searchsorted(tr.frames, window.endtime + 1))
                if i + steps > len(tr) or tr.frames[i + steps - 1] != horizon_last:
                    continue
                horizon = slice(i, i + steps)
                gt = Trajectory(member, tr.frames[horizon], tr.times[horizon],
                                tr.positions[horizon])
                cand_trajs = [c.member_trajectories[member]
                              for c in pred.candidates]
                min_ade, min_fde, (ai, fi) = min_over_candidates(cand_trajs, gt)
                base = constant_velocity_baseline(known, steps, cfg,
                                                  start_frame=window.endtime)
                win_records.append(AgentRecord(
                    window.endtime, member, len(pred.members), pred.emotion,
                    min_ade, min_fde, ai, fi, ade(base, gt), fde(base, gt),
                    len(cand_trajs)))
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
