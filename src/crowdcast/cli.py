"""Command line interface: ingest, groups, destinations, predict, eval, plot.

``_PARAMS`` is the one list of run parameters. A ``--config`` file (``key =
value`` lines) may set each, every subcommand has a flag for each (``--mode``
only ``predict`` and ``eval``), and ``run_config.txt`` in the output
directory records each in the file's format, so a run can be reproduced from
its own output. Explicit flags take precedence over the file and the file
over the defaults.

Exit codes: 0 success, 2 usage or validation error (including annotation
parse errors), 3 data error in otherwise well-formed input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .core import (
    Config,
    DataError,
    SceneGeometry,
    Tracks,
    build_database,
    parse_scene,
    read_canonical_csv,
)
from .dynamics import FROM_CONFIG, MODES, ForceParams
from .evaluate import Window, run_experiment
from .ingest import Homography, parse_obsmat, to_canonical
from .pipeline import (
    detect_groups,
    group_candidates,
    known_window_tracks,
    predict_at_endtime,
)
from .plotting import render_svg


def _mode(value: str) -> str:
    if value not in MODES:
        raise ValueError(f"unknown mode {value!r}")
    return value


# the run parameters, name -> (type, default): the Config fields, the
# ForceParams fields not copied from Config, then the seed and the mode
_PARAMS = {f.name: (int if f.type == "int" else float, f.default)
           for f in fields(Config) + tuple(f for f in fields(ForceParams)
                                           if f.name not in FROM_CONFIG)}
_PARAMS.update(seed=(int, 0), mode=(_mode, "rigid"))

_FLAG_HELP = {
    "known_time_steps": "length of the known window in steps",
    "predict_time_steps": "length of the prediction horizon in steps",
    "k_candidates": "destinations retrieved from the database per group",
    "person_radius": "radius of a person in meters",
    "step_duration": "duration of one time step in seconds",
    "neighborhood_range": "interaction and query normalization range in meters",
    "person_mass": "mass of a person in kilograms",
    "intimate_distance": "distance bound for full closeness in meters",
    "personal_distance": "distance bound for half closeness in meters",
    "min_overlap_frames": "co-present frames required before scoring a pair",
    "direction_weight": "weight of the direction term in the retrieval score",
    "relaxation_time": "seconds to relax toward the desired velocity",
    "repulsion_strength": "pairwise repulsion amplitude",
    "repulsion_range": "pairwise repulsion decay length in meters",
    "obstacle_strength": "obstacle repulsion amplitude",
    "obstacle_range": "obstacle repulsion decay length in meters",
    "max_speed_factor": "speed cap as a multiple of the desired speed",
    "speed_floor": "minimum desired speed in m/s",
    "substeps": "integrator substeps per output step",
}


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    run = common.add_argument_group("run options")
    run.add_argument("--config", metavar="FILE",
                     help="key = value parameter file, overridden by flags")
    run.add_argument("--seed", type=int, metavar="N",
                     help="RNG seed for the seeded-jitter policy "
                          f"(default {_PARAMS['seed'][1]})")
    run.add_argument("--out", metavar="DIR", default=".",
                     help="output directory (default: current directory)")
    group = common.add_argument_group("parameters (defaults in parentheses)")
    for name, text in _FLAG_HELP.items():
        kind, default = _PARAMS[name]
        group.add_argument("--" + name.replace("_", "-"), dest=name, type=kind,
                           metavar="X", help=f"{text} ({default!r})")
    return common


def _parse_config_file(path: str) -> dict:
    out = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARAMS:
            raise ValueError(f"{path}:{lineno}: unknown parameter {key!r}")
        try:
            out[key] = _PARAMS[key][0](value)
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {key}: {err}") from None
    return out


def _resolve(args) -> tuple:
    """Merge defaults, config file, and flags into Config, ForceParams, seed, mode."""
    merged = {name: default for name, (_, default) in _PARAMS.items()}
    if args.config:
        merged.update(_parse_config_file(args.config))
    merged.update({name: getattr(args, name) for name in _PARAMS
                   if getattr(args, name, None) is not None})
    seed, mode = merged.pop("seed"), merged.pop("mode")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    cfg = Config(**{f.name: merged.pop(f.name) for f in fields(Config)})
    return cfg, ForceParams.from_config(cfg, **merged), seed, mode


def _write_outputs(args, run: tuple, files: dict, **extra) -> Path:
    """Write ``files`` (name -> text or bytes) into ``--out``, then
    ``run_config.txt``: the resolved ``run`` from :func:`_resolve`, headed
    by the subcommand, its input and ``extra``."""
    cfg, params, seed, mode = run
    header = {"subcommand": args.command, "input": args.input, **extra}
    values = {**asdict(params), **asdict(cfg), "seed": seed, "mode": mode}
    lines = ["# resolved run configuration; pass back via --config to reproduce",
             *(f"# {key}: {value}" for key, value in header.items()),
             # the mode is a bare word, numbers round-trip through repr
             *(f"{key} = {v if isinstance(v, str) else repr(v)}"
               for key, v in sorted((key, values[key]) for key in _PARAMS))]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in {**files, "run_config.txt": "\n".join(lines) + "\n"}.items():
        (out_dir / name).write_bytes(
            data if isinstance(data, bytes) else data.encode("utf-8"))
    return out_dir


def _read_bytes(path: str) -> bytes:
    p = Path(path)
    if not p.is_file():
        raise OSError(f"no such file: {path}")
    return p.read_bytes()


def _load_tracks(path: str, cfg: Config) -> Tracks:
    return read_canonical_csv(_read_bytes(path), cfg.step_duration)


def _load_scene(args) -> SceneGeometry:
    if args.scene:
        return parse_scene(_read_bytes(args.scene).decode("utf-8"))
    return SceneGeometry.empty()


def _point(p) -> list:
    return [float(p[0]), float(p[1])]


def _points(positions) -> list:
    return [_point(p) for p in positions]


def _candidate(c) -> dict:
    """A candidate destination (``Candidate`` or ``CandidateRollout``)."""
    return {"destination": _point(c.destination),
            "provenance": c.provenance,
            "score": None if c.score is None else float(c.score)}


def _jsonl(records: list) -> str:
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def cmd_ingest(args) -> int:
    run = _resolve(args)
    if not (args.fps > 0 and math.isfinite(args.fps)):
        raise ValueError(f"--fps must be positive and finite, got {args.fps}")
    data = _read_bytes(args.input)
    homography = Homography.identity()
    if args.homography:
        homography = Homography.from_text(_read_bytes(args.homography).decode())
    rows = parse_obsmat(data, column_map=args.columns)
    csv_bytes, summary = to_canonical(rows, homography, args.fps, run[0])
    out_dir = _write_outputs(args, run, {"canonical.csv": csv_bytes}, fps=args.fps)
    print(summary.describe())
    print(f"wrote {out_dir / 'canonical.csv'}")
    return 0


def cmd_groups(args) -> int:
    run = _resolve(args)
    cfg = run[0]
    _, states = detect_groups(_load_tracks(args.input, cfg), args.endtime, cfg)
    text = _jsonl([{"members": list(st.members),
                    "size": st.size,
                    "emotion": float(st.emotion),
                    "center_last": _point(st.center_trajectory.positions[-1])}
                   for st in states])
    _write_outputs(args, run, {"groups.jsonl": text}, endtime=args.endtime)
    sys.stdout.write(text)
    return 0


def _database(args, cfg: Config, tracks: list):
    """The ``--database`` file when given, else the input's history before
    the known window."""
    if args.database:
        return build_database(_load_tracks(args.database, cfg), cfg)
    return build_database(tracks, cfg, endtime=args.endtime)


def cmd_destinations(args) -> int:
    run = _resolve(args)
    cfg = run[0]
    tracks = _load_tracks(args.input, cfg)
    db = _database(args, cfg, tracks)
    _, states = detect_groups(tracks, args.endtime, cfg)
    text = _jsonl([{"members": list(st.members),
                    "emotion": float(st.emotion),
                    "candidates": [_candidate(c) for c in cands]}
                   for st, cands in zip(states, group_candidates(db, states, cfg))])
    _write_outputs(args, run, {"destinations.jsonl": text}, endtime=args.endtime)
    sys.stdout.write(text)
    return 0


def _prediction_layers(preds: list, known: list, tracks: list, endtime: int,
                       cfg: Config) -> list:
    layers = [("known", tr.positions) for tr in known]
    horizon_last = endtime + cfg.predict_time_steps
    by_id = {tr.agent_id: tr for tr in tracks}
    for pred in preds:
        for member in pred.members:
            tr = by_id[member]
            future = tr.positions[(tr.frames > endtime) & (tr.frames <= horizon_last)]
            if len(future) >= 2:
                layers.append(("groundtruth", future))
        for c in pred.candidates:
            layers.append(("predicted", c.group_trajectory.positions))
            layers.append(("destination", c.destination.reshape(1, 2)))
    return layers


def cmd_predict(args) -> int:
    run = _resolve(args)
    cfg, params, seed, mode = run
    tracks = _load_tracks(args.input, cfg)
    scene = _load_scene(args)
    db = _database(args, cfg, tracks)
    preds = predict_at_endtime(tracks, args.endtime, db, cfg, params, scene,
                               mode=mode, seed=seed)
    if not preds:
        print(f"warning: no complete group at endtime {args.endtime}", file=sys.stderr)
    text = _jsonl([{
        "endtime": args.endtime,
        "members": list(pred.members),
        "emotion": float(pred.emotion),
        "desired_speed": float(pred.desired_speed),
        "candidates": [{
            **_candidate(c),
            "group_trajectory": _points(c.group_trajectory.positions),
            "members": {m: _points(t.positions)
                        for m, t in sorted(c.member_trajectories.items())},
        } for c in pred.candidates],
    } for pred in preds])
    _write_outputs(args, run, {"predictions.jsonl": text},
                   endtime=args.endtime, scene=args.scene,
                   database=args.database)
    if args.plot:
        known = known_window_tracks(tracks, args.endtime, cfg)
        svg = render_svg(_prediction_layers(preds, known, tracks,
                                            args.endtime, cfg), scene)
        Path(args.plot).write_text(svg, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def _auto_endtimes(tracks: list, cfg: Config, stride: int) -> list:
    if not tracks:
        return []
    first = min(int(tr.frames[0]) for tr in tracks)
    last = max(int(tr.frames[-1]) for tr in tracks)
    start = first + cfg.known_time_steps - 1
    return list(range(start, last + 1, stride))


def cmd_eval(args) -> int:
    run = _resolve(args)
    cfg, params, seed, mode = run
    if args.stride is not None and args.stride < 1:
        raise ValueError(f"--stride must be at least 1, got {args.stride}")
    tracks = _load_tracks(args.input, cfg)
    scene = _load_scene(args)
    if args.endtimes is not None:
        try:
            endtimes = [int(part) for part in args.endtimes.split(",") if part]
        except ValueError:
            raise ValueError(f"--endtimes must be comma-separated integers, "
                             f"got {args.endtimes!r}")
    else:
        endtimes = _auto_endtimes(tracks, cfg,
                                  args.stride or cfg.predict_time_steps)
    if not endtimes:
        raise ValueError("no endtimes to evaluate")
    report = run_experiment(tracks, scene, [Window(e) for e in endtimes],
                            cfg, params, mode=mode, seed=seed)
    table = report.text_table()
    _write_outputs(args, run, {"results.txt": table,
                               "results.csv": report.csv_bytes()},
                   endtimes=",".join(str(e) for e in endtimes))
    sys.stdout.write(table)
    return 0


def cmd_plot(args) -> int:
    run = _resolve(args)
    tracks = _load_tracks(args.input, run[0])
    scene = _load_scene(args)
    layers = []
    for tr in tracks:
        if args.endtime is None:
            layers.append(("known", tr.positions))
            continue
        past = tr.positions[tr.frames <= args.endtime]
        future = tr.positions[tr.frames > args.endtime]
        if len(past):
            layers.append(("known", past))
        if len(future):
            layers.append(("groundtruth", future))
    out_dir = _write_outputs(args, run, {"plot.svg": render_svg(layers, scene)})
    print(f"wrote {out_dir / 'plot.svg'}")
    return 0


def _parent(*flags, **kwargs) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    common = _common_parser()
    # arguments shared by several subcommands, each defined once
    canonical = _parent("input", help="canonical CSV")
    endtime = _parent("--endtime", type=int, required=True,
                      help="last frame of the known window")
    database = _parent("--database", metavar="FILE",
                       help="canonical CSV to search (default: the input's "
                            "frames before the known window)")
    scene = _parent("--scene", metavar="FILE", help="obstacle geometry file")
    mode = _parent("--mode", choices=MODES,
                   help=f"member deviation policy ({_PARAMS['mode'][1]})")
    parser = argparse.ArgumentParser(
        prog="crowdcast",
        description="Group-aware pedestrian trajectory prediction: detect "
                    "groups, retrieve candidate destinations from history, "
                    "roll them out with a force model, and evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common],
                       help="convert a raw annotation file to canonical CSV")
    p.add_argument("input", help="raw annotation file (obsmat-style)")
    p.add_argument("--fps", type=float, default=2.5,
                   help="annotation frame rate in frames per second (2.5)")
    p.add_argument("--homography", metavar="FILE",
                   help="3x3 matrix file mapping annotation to world meters")
    p.add_argument("--columns", metavar="MAP",
                   help="column override as 'frame,id,x,y' indices")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("groups", parents=[common, canonical, endtime],
                       help="detect groups over the known window")
    p.set_defaults(func=cmd_groups)

    p = sub.add_parser("destinations", parents=[common, canonical, endtime, database],
                       help="retrieve candidate destinations per group")
    p.set_defaults(func=cmd_destinations)

    p = sub.add_parser("predict",
                       parents=[common, canonical, endtime, database, scene, mode],
                       help="predict member trajectories at an endtime")
    p.add_argument("--plot", metavar="FILE.svg",
                   help="also render the prediction to this SVG file")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", parents=[common, canonical, scene, mode],
                       help="run the windowed experiment and report metrics")
    p.add_argument("--endtimes", metavar="A,B,...",
                   help="explicit endtime list (default: auto-stride)")
    p.add_argument("--stride", type=int,
                   help="stride between auto endtimes (predict_time_steps)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", parents=[common, canonical, scene],
                       help="render tracks and obstacles to SVG")
    p.add_argument("--endtime", type=int,
                   help="split tracks into known/future at this frame")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3 if isinstance(err, DataError) else 2


if __name__ == "__main__":
    sys.exit(main())
