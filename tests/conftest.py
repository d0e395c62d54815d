"""Shared fixtures and the acceptance-criteria summary hook."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import pytest

from crowdcast import Config, Trajectory
from crowdcast.dynamics import predict_group_trajectory

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


@dataclass(frozen=True)
class GroupInit:
    """One body of ``predict_group_trajectory``'s ``others``: a group that
    is simulated but is no subject. ``velocity`` None starts it at its
    desired speed aimed at ``dest``."""

    pos: np.ndarray
    dest: np.ndarray
    speed: float
    velocity: np.ndarray | None = None


def rollout_one(start, dest, speed, scene, others, steps, params, cfg,
                initial_velocity=None) -> np.ndarray:
    """The (C, steps, 2) positions of one subject along its candidates
    ``dest``: a ``predict_group_trajectory`` call with one subject and
    ``others`` after it."""
    [out] = predict_group_trajectory(
        [start], [dest], [speed], scene, others, steps, params, cfg,
        None if initial_velocity is None else [initial_velocity])
    return out


def dense_blob(n: int, steps: int, step_duration: float = STEP) -> list:
    """``n`` agents over frames 0 .. steps - 1 walking together at 0.5 m/s
    from random starts inside a 1 m square: all but about 0.2% of the
    pairs stay within the personal distance."""
    rng = np.random.default_rng(n)
    frames = np.arange(steps)
    walk = np.column_stack([0.5 * step_duration * frames, np.zeros(steps)])
    return [Trajectory.from_frame_grid(f"b{k:05d}", frames, start + walk, step_duration)
            for k, start in enumerate(rng.uniform(0.0, 1.0, (n, 2)))]


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


class HookCounter:
    """``np.minimum`` as ``crowdcast.core`` sees it under the ``hook_rounds``
    fixture: the same ufunc, with each ``at`` call, one hooking round of
    ``core.component_labels``, counted."""

    def __init__(self):
        self.rounds = 0

    def __call__(self, *args, **kw):
        return np.minimum(*args, **kw)

    def at(self, *args):
        self.rounds += 1
        np.minimum.at(*args)


@pytest.fixture
def hook_rounds(monkeypatch) -> HookCounter:
    """Counts the hooking rounds of every ``core.component_labels`` call
    made while the test runs."""
    from crowdcast import core

    counter = HookCounter()

    class Numpy:
        minimum = counter

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(core, "np", Numpy())
    return counter


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
