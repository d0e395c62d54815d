"""Shared fixtures and the acceptance-criteria summary hook."""

from __future__ import annotations

import re

import numpy as np
import pytest

from crowdcast import Config, Trajectory
from crowdcast.dynamics import predict_group_trajectory, reach_edges

STEP = 0.3999


@pytest.fixture
def cfg() -> Config:
    return Config()


def line_track(agent_id: str, first_frame: int, n: int, start, velocity,
               step_duration: float = STEP) -> Trajectory:
    """Constant-velocity track on the global frame grid."""
    frames = np.arange(first_frame, first_frame + n)
    k = np.arange(n, dtype=np.float64)
    pos = np.asarray(start, dtype=np.float64)[None, :] \
        + k[:, None] * np.asarray(velocity, dtype=np.float64)[None, :] * step_duration
    return Trajectory.from_frame_grid(agent_id, frames, pos, step_duration)


def rollout_edges(start, speed, others, steps, params, cfg) -> tuple:
    """The reach edges of a rollout's groups, the subject at ``start`` as
    row 0 and ``others`` after it, as ``predict_at_endtime`` builds them
    over its window's groups."""
    speeds = np.maximum([speed] + [g.speed for g in others], params.speed_floor)
    starts = np.array([start] + [g.pos for g in others], dtype=np.float64)
    return reach_edges(starts, params.max_speed_for(speeds), params.neighborhood_range,
                       steps * cfg.step_duration)


def rollout_one(start, dest, speed, scene, others, steps, params, cfg,
                initial_velocity=None, start_frame: int = 0) -> list:
    """The trajectories of one subject's candidates ``dest``: a
    ``predict_group_trajectory`` call with one subject, ``others`` after it
    and the edges of :func:`rollout_edges`."""
    [out] = predict_group_trajectory(
        [start], [dest], [speed], scene, others, steps, params, cfg,
        None if initial_velocity is None else [initial_velocity], start_frame,
        edges=rollout_edges(start, speed, others, steps, params, cfg))
    return out


def random_track(rng: np.random.Generator, agent_id: str,
                 first_frame: int | None = None, n: int | None = None,
                 scale: float = 5.0, step_duration: float = STEP) -> Trajectory:
    """Random-walk track on the global frame grid."""
    if first_frame is None:
        first_frame = int(rng.integers(0, 40))
    if n is None:
        n = int(rng.integers(2, 41))
    frames = np.arange(first_frame, first_frame + n)
    start = rng.uniform(-scale, scale, size=2)
    steps = rng.normal(0.0, 0.3, size=(n - 1, 2))
    pos = np.vstack([start, start + np.cumsum(steps, axis=0)])
    return Trajectory.from_frame_grid(agent_id, frames, pos, step_duration)


def benchmark_tracks(n_agents: int = 100, lane_gap: float = 10.5,
                     step_duration: float = STEP) -> list:
    """Synthetic evaluation dataset: straight walkers with a historical twin.

    Each test agent walks its own lane over frames 40..129 (a 30-frame known
    window ending at 99 plus a 30-frame horizon). A twin with a different id
    walked the same lane earlier (frames 0..64), passing through the agent's
    endtime pose and continuing past the agent's final position, so the
    twin's recorded destination sends a rollout straight along the truth.
    Lanes are far enough apart that no grouping or interaction occurs.
    """
    tracks = []
    for i in range(n_agents):
        y = i * lane_gap
        speed = 0.9 + 0.2 * (i % 5) / 4.0
        vel = np.array([speed, 0.0])
        start = np.array([-(40 * speed * step_duration), y])
        tracks.append(line_track(f"a{i}", 40, 90, start + 40 * vel * step_duration,
                                 vel, step_duration))
        pose_at_end = start + 99 * vel * step_duration
        twin_start = pose_at_end - 24 * vel * step_duration
        tracks.append(line_track(f"t{i}", 0, 65, twin_start, vel, step_duration))
    return tracks


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL/SKIP line per acceptance criterion."""
    rows = {}
    for status, word in (("passed", "PASS"), ("failed", "FAIL"),
                         ("error", "FAIL"), ("skipped", "SKIP")):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            m = re.search(r"test_criterion_(\d+)", nodeid)
            if m is None:
                continue
            num = int(m.group(1))
            name = nodeid.split("::")[-1]
            if rows.get(num, ("", "PASS"))[1] != "FAIL":
                rows[num] = (name, word)
    if rows:
        terminalreporter.write_sep("=", "acceptance criteria")
        for num in sorted(rows):
            name, word = rows[num]
            terminalreporter.write_line(f"criterion {num:2d}: {word}  {name}")
