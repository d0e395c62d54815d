"""Per-call reference for member reconstruction and window scoring.

Reconstruction runs once per candidate, each call seeding its own
generator; scoring runs once per agent, with one ``ade`` and one ``fde``
call per candidate and a checked constant-velocity ``Trajectory`` as the
baseline. A group's desired speed and initial velocity are taken center by
center. ``predict_at_endtime`` and ``run_experiment`` in ``crowdcast`` must
return exactly what :func:`predict_at_endtime` and :func:`run_experiment`
here return, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from crowdcast.core import DataError, Trajectory, build_database, velocity_at
from crowdcast.dynamics import ReconstructionPolicy, predict_group_trajectory
from crowdcast.evaluate import AgentRecord, MetricReport, WindowRow
from crowdcast.pipeline import detect_groups, group_candidates


def _deviations(policy, agent_id: str, steps: int, rng) -> np.ndarray:
    pattern = np.asarray(policy.residuals[agent_id], dtype=np.float64)
    if policy.mode == "rigid":
        if len(pattern) == 0:
            return np.zeros((steps, 2))
        reps = -(-steps // len(pattern))
        return np.tile(pattern, (reps, 1))[:steps]
    rms = float(np.sqrt(np.mean(pattern ** 2))) if len(pattern) else 0.0
    return rng.normal(0.0, 1.0, size=(steps, 2)) * rms


def reconstruct_members(group_traj, offsets: dict, emotion: float, policy) -> dict:
    """One candidate's members, each through the checked constructor."""
    if not 0.0 <= emotion <= 1.0:
        raise DataError(f"emotion must be in [0, 1], got {emotion}")
    if set(offsets) != set(policy.residuals):
        raise DataError("member offsets and residual patterns disagree")
    steps = len(group_traj)
    rng = np.random.default_rng(policy.seed) if policy.mode == "seeded-jitter" else None
    out = {}
    for agent_id in sorted(offsets, key=str):
        dev = _deviations(policy, agent_id, steps, rng)
        points = group_traj.positions + np.asarray(offsets[agent_id]) \
            + (1.0 - emotion) * dev
        out[agent_id] = Trajectory(agent_id, group_traj.frames, group_traj.times, points)
    return out


def _check_aligned(pred, gt):
    if len(pred) != len(gt):
        raise DataError(f"length mismatch: {len(pred)} vs {len(gt)}")
    if len(pred) == 0:
        raise DataError("empty trajectory")
    if not np.array_equal(pred.frames, gt.frames):
        raise DataError("trajectories cover different frames")


def ade(pred, gt) -> float:
    _check_aligned(pred, gt)
    return float(np.mean(np.linalg.norm(pred.positions - gt.positions, axis=1)))


def fde(pred, gt) -> float:
    if len(pred) == 0 or len(gt) == 0:
        raise DataError("empty trajectory")
    if pred.frames[-1] != gt.frames[-1]:
        raise DataError("final frames differ")
    return float(np.linalg.norm(pred.positions[-1] - gt.positions[-1]))


def min_over_candidates(candidates: list, gt) -> tuple:
    if not candidates:
        raise DataError("no candidates to score")
    ades = [ade(c, gt) for c in candidates]
    fdes = [fde(c, gt) for c in candidates]
    ai = int(np.argmin(ades))
    fi = int(np.argmin(fdes))
    return ades[ai], fdes[fi], (ai, fi)


def constant_velocity_baseline(traj, steps: int, cfg, start_frame: int) -> Trajectory:
    vel = velocity_at(traj, int(traj.frames[-1])) if len(traj) >= 2 else np.zeros(2)
    frames = np.arange(start_frame + 1, start_frame + steps + 1)
    offsets = (frames - start_frame)[:, None] * vel[None, :] * cfg.step_duration
    points = traj.positions[-1][None, :] + offsets
    return Trajectory(traj.agent_id, frames, frames * cfg.step_duration, points)


def mean_speed(traj) -> float:
    if len(traj) < 2:
        return 0.0
    seg = np.linalg.norm(np.diff(traj.positions, axis=0), axis=1)
    dt = np.diff(traj.times)
    return float(np.mean(seg / dt))


def predict_at_endtime(tracks, endtime: int, db, cfg, params, scene,
                       mode: str = "rigid", seed: int = 0) -> list:
    """Per group: (members, emotion, desired speed, known tracks, and per
    candidate (destination, provenance, score, group trajectory, members))."""
    known, states = detect_groups(tracks, endtime, cfg)
    cands = group_candidates(db, states, cfg)
    by_id = {tr.agent_id: tr for tr in known}
    centers = [st.center_trajectory for st in states]
    starts = np.reshape([c.positions[-1] for c in centers], (-1, 2))
    speeds = [max(mean_speed(c), params.speed_floor) for c in centers]
    rolled = predict_group_trajectory(
        starts, [np.array([c.destination for c in group]) for group in cands],
        np.array(speeds), scene, [], cfg.predict_time_steps, params, cfg,
        initial_velocity=np.reshape([velocity_at(c, int(c.frames[-1])) for c in centers],
                                    (-1, 2)))
    # each candidate's positions as a checked track on the horizon's frames
    frames = np.arange(endtime + 1, endtime + cfg.predict_time_steps + 1)
    out = []
    for st, group_cands, speed, points in zip(states, cands, speeds, rolled):
        group_trajs = [Trajectory("predicted", frames, frames * cfg.step_duration, p)
                       for p in points]
        member_known = tuple(by_id[m] for m in st.members)
        policy = ReconstructionPolicy.from_known_window(
            member_known, st.center_trajectory, st.member_offsets, mode, seed)
        rollouts = [(c.destination, c.provenance, c.score, traj,
                     reconstruct_members(traj, st.member_offsets, st.emotion, policy))
                    for c, traj in zip(group_cands, group_trajs)]
        out.append((st.members, st.emotion, speed, member_known, rollouts))
    return out


def run_experiment(tracks, scene, windows: list, cfg, params, mode: str = "rigid",
                   seed: int = 0) -> MetricReport:
    """The windowed experiment, one agent and one candidate at a time."""
    rows, records = [], []
    steps = cfg.predict_time_steps
    for window in windows:
        last = window.horizon_last(cfg)
        total = len({tr.agent_id for tr in tracks if len(tr) and tr.frames[0] <= last})
        db = build_database(tracks, cfg, endtime=window.endtime)
        preds = predict_at_endtime(tracks, window.endtime, db, cfg, params, scene,
                                   mode, seed)
        horizon = np.arange(window.endtime + 1, window.endtime + steps + 1)
        truth = {}
        for tr in tracks:
            i = int(np.searchsorted(tr.frames, horizon[0]))
            if i + steps <= len(tr) and np.array_equal(tr.frames[i:i + steps], horizon):
                if tr.agent_id in truth:
                    raise DataError(f"agent {tr.agent_id!r} has two tracks holding "
                                    f"the horizon")
                truth[tr.agent_id] = tr.span(i, i + steps)
        win = []
        for members, emotion, _, known, rollouts in preds:
            for member, kn in zip(members, known):
                if member not in truth:
                    continue
                gt = truth[member]
                cand = [r[4][member] for r in rollouts]
                min_ade, min_fde, (ai, fi) = min_over_candidates(cand, gt)
                base = constant_velocity_baseline(kn, steps, cfg, window.endtime)
                win.append(AgentRecord(window.endtime, member, len(members), emotion,
                                       min_ade, min_fde, ai, fi, ade(base, gt),
                                       fde(base, gt), len(cand)))
        if win:
            def mean(key):
                return float(np.mean([getattr(r, key) for r in win]))

            rows.append(WindowRow(window.endtime, len(preds), len(win), total - len(win),
                                  mean("min_ade"), mean("min_fde"),
                                  mean("baseline_ade"), mean("baseline_fde")))
        else:
            rows.append(WindowRow(window.endtime, len(preds), 0, total,
                                  math.nan, math.nan, math.nan, math.nan))
        records.extend(win)
    return MetricReport(cfg.k_candidates + 1, tuple(rows), tuple(records))
