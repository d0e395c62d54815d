"""Long-recording probe: how a window's cost grows with the history before it.

The seed-101 ``recording`` workload of ``bench/scenarios.py`` is ingested
as ``bench/run.py`` ingests it, then its tracks are repeated k times one
after another in time, each copy with fresh ids. Twenty of the workload's
windows are moved into the last copy and run one ``run_experiment`` call
each, as the bench runs them. The run's summaries are built by an untimed
warm-up pass; then ``--passes`` timed passes follow. Prints one JSON object:
for each k, the table rows and the median ms per window over the passes.

    PYTHONPATH=src python tests/probes/long_recording.py [--ks 1,4,16,64]

Only numpy and the package are needed. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import scenarios  # noqa: E402

import crowdcast as cc  # noqa: E402
from crowdcast import core, evaluate, ingest  # noqa: E402

SEED = 101
WINDOWS = 20


def recording_tracks(cfg) -> tuple:
    """The workload's tracks as a list, its scene and its endtimes."""
    scen = scenarios.recording(SEED)
    homography = ingest.Homography.from_text(scen.files["homography.txt"].decode())
    csv_bytes, _ = ingest.to_canonical(ingest.parse_obsmat(scen.files["obsmat.txt"]),
                                       homography, scen.fps, cfg)
    tracks = core.read_canonical_csv(csv_bytes, cfg.step_duration)
    scene = core.parse_scene(scen.files["scene.txt"].decode())
    return scen, list(tracks), scene


def repeated(tracks: list, k: int, period: int, step: float) -> cc.Tracks:
    """``k`` copies of ``tracks``, copy j shifted ``j * period`` frames
    later, its ids suffixed ``~j``."""
    return cc.Tracks(
        cc.Trajectory.from_frame_grid(f"{tr.agent_id}~{j}", tr.frames + j * period,
                                      tr.positions, step)
        for j in range(k) for tr in tracks)


def probe(ks, passes: int) -> dict:
    cfg = cc.Config()
    scen, base, scene = recording_tracks(cfg)
    params = cc.ForceParams.from_config(cfg, **scen.params)
    period = max(int(tr.frames[-1]) for tr in base if len(tr)) + 1
    endtimes = [op.endtime for op in scen.ops][::len(scen.ops) // WINDOWS][:WINDOWS]
    out = {}
    for k in ks:
        tracks = repeated(base, k, period, cfg.step_duration)
        windows = [evaluate.Window(e + (k - 1) * period) for e in endtimes]

        def one_pass() -> list:
            took = []
            for w in windows:
                t0 = time.perf_counter()
                evaluate.run_experiment(tracks, scene, [w], cfg, params,
                                        mode=scen.mode, seed=0)
                took.append(time.perf_counter() - t0)
            return took

        one_pass()      # builds the run's lazily built summaries
        per_pass = [statistics.median(one_pass()) * 1e3 for _ in range(passes)]
        out[str(k)] = {"rows": len(tracks.frames),
                       "ms_per_window": round(statistics.median(per_pass), 3)}
        del tracks
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ks", default="1,4,16,64",
                    help="comma-separated repeat counts (default 1,4,16,64)")
    ap.add_argument("--passes", type=int, default=3)
    args = ap.parse_args(argv)
    ks = [int(k) for k in args.ks.split(",")]
    print(json.dumps(probe(ks, args.passes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
