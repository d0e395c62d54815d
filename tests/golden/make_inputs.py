"""Write the input files of the golden-output fixture.

    python tests/golden/make_inputs.py

Writes ``input.csv`` (about 40 agents walking in groups of 1-4 across a
30 x 20 m area, frames 0-99), ``history.csv`` (earlier walkers, passed to
``predict`` and ``destinations`` as ``--database``), ``scene.txt`` (one
wall segment, one convex pillar), and the raw annotations ``raw.txt`` with
their pixel-to-meter ``homography.txt`` (passed to ``ingest``) next to this
script. The expected outputs under ``expected/`` come from running the
commands in ``test_golden.py`` on these inputs; regenerating them is a
behaviour change and must be stated as one.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
STEP = 0.3999
SEED = 20210219
RAW_SEED = 20090929   # own stream: the canonical inputs stay as they were
RAW_FPS = 10.0

# pixels to meters with a perspective term, as in the ETH recordings
HOMOGRAPHY = np.array([[2.8e-2, 1.5e-3, -3.2],
                       [-6.0e-4, 3.1e-2, -1.7],
                       [2.0e-5, 4.5e-5, 1.0]])

SCENE = """\
# wall along the south edge of the crossing, and a square pillar
seg 4.0 2.0 26.0 2.0
poly 14.0 9.0 16.0 9.0 16.0 11.0 14.0 11.0
bounds 0.0 0.0 30.0 20.0
"""


def _walk(rng, first: int, n: int, start, heading: float, speed: float):
    """Center path with a slow heading drift, on the frame grid."""
    turn = rng.uniform(-0.01, 0.01)
    headings = heading + turn * np.arange(n)
    steps = speed * STEP * np.stack([np.cos(headings), np.sin(headings)], axis=1)
    return np.asarray(start, float) + np.vstack([np.zeros(2), np.cumsum(steps[:-1], axis=0)])


def _rows(rng, prefix: str, n_groups: int, first_range, n_range) -> list:
    rows = []
    agent = 0
    for _ in range(n_groups):
        size = int(rng.integers(1, 5))
        first = int(rng.integers(*first_range))
        n = int(rng.integers(*n_range))
        east = rng.random() < 0.5
        heading = (0.0 if east else np.pi) + rng.uniform(-0.3, 0.3)
        start = (rng.uniform(0.5, 4.0) if east else rng.uniform(26.0, 29.5),
                 rng.uniform(3.0, 17.0))
        center = _walk(rng, first, n, start, heading, rng.uniform(0.9, 1.4))
        normal = np.array([-np.sin(heading), np.cos(heading)])
        spacing = rng.uniform(0.3, 0.4)
        for m in range(size):
            offset = (m - (size - 1) / 2.0) * spacing * normal
            pos = center + offset + rng.normal(0.0, 0.01, size=center.shape)
            for k in range(n):
                rows.append((f"{prefix}{agent}", first + k,
                             round(float(pos[k, 0]), 4), round(float(pos[k, 1]), 4)))
            agent += 1
    rows.sort(key=lambda r: (int(r[0][len(prefix):]), r[1]))
    return rows


def _csv(rows: list) -> str:
    return "frame,agent_id,x,y\n" + "".join(
        f"{f},{a},{x!r},{y!r}\n" for a, f, x, y in rows)


def _raw_obsmat(rng) -> str:
    """Five walkers at 10 fps in the 8-column obsmat layout, pixel units,
    rows ordered by frame. Walker 2 misses one frame (bridged), walker 3
    leaves for three seconds (split into ``3`` and ``3#2``), and walker 4
    comes back for a single row (a remnant that is dropped)."""
    to_pixels = np.linalg.inv(HOMOGRAPHY)
    rows = []
    for agent in range(5):
        first = int(rng.integers(0, 40))
        frames = np.arange(first, first + int(rng.integers(50, 90)))
        if agent == 2:
            frames = np.delete(frames, 20)
        elif agent == 3:
            frames = np.concatenate([frames[:30], frames[60:]])
        elif agent == 4:
            frames = np.append(frames, frames[-1] + 40)
        t = (frames - first) / RAW_FPS
        heading = rng.uniform(-np.pi, np.pi)
        speed = rng.uniform(0.8, 1.5)
        start = rng.uniform([2.0, 2.0], [18.0, 12.0])
        world = start + speed * t[:, None] * np.array([np.cos(heading), np.sin(heading)])
        world += rng.normal(0.0, 0.02, size=world.shape)
        hom = np.column_stack([world, np.ones(len(world))]) @ to_pixels.T
        pixels = hom[:, :2] / hom[:, 2:]
        rows += [(int(f), agent, px, py) for f, (px, py) in zip(frames, pixels)]
    rows.sort(key=lambda r: (r[0], r[1]))
    return "".join(f"{f:.7e} {a:.7e} {x:.7e} {0.0:.7e} {y:.7e} "
                   f"{0.0:.7e} {0.0:.7e} {0.0:.7e}\n" for f, a, x, y in rows)


def main() -> None:
    rng = np.random.default_rng(SEED)
    (HERE / "input.csv").write_text(_csv(_rows(rng, "", 16, (0, 30), (60, 80))))
    (HERE / "history.csv").write_text(_csv(_rows(rng, "h", 12, (0, 10), (20, 40))))
    (HERE / "scene.txt").write_text(SCENE)
    (HERE / "raw.txt").write_text(_raw_obsmat(np.random.default_rng(RAW_SEED)))
    (HERE / "homography.txt").write_text(
        "\n".join(" ".join(repr(float(v)) for v in row) for row in HOMOGRAPHY) + "\n")


if __name__ == "__main__":
    main()
