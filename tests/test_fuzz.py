"""Property tests: every subcommand on malformed or degenerate input.

``groups``, ``destinations``, ``predict``, ``eval`` and ``plot`` read random
canonical CSVs and scene files, ``ingest`` random annotation rows,
homography files and flags, and every subcommand a random ``--config``
file. Whatever they hold, each command ends with exit code 0 (done), 2
(usage) or 3 (data), never with a traceback; on exit 0 the groups partition
the agents that cover the known window, every predicted coordinate is
finite, and an ingested CSV reads back.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from crowdcast import Config, cli
from crowdcast.core import read_canonical_csv
from crowdcast.pipeline import known_window_tracks

HEADER = "frame,agent_id,x,y\n"
BAD_TOKENS = ["nan", "inf", "-inf", "NaN", "1e999", "", "x", "-3", "1.5",
              "99999999999999999999999", "9223372036854775807"]


@st.composite
def groups_case(draw, messy: bool = True) -> tuple:
    """A canonical CSV with its endtime, known-window length and overlap
    minimum. Most agents walk near one another over the whole known window;
    the rest start or end inside it, and tracks get gaps and single frames.
    Unless ``messy`` is false, tracks also get duplicate frames, sometimes
    one token is spoiled or a row cut short, and sometimes the file is
    empty, header-only or header-less."""
    known = draw(st.sampled_from([2, 3, 4, 6]))
    endtime = draw(st.integers(max(known - 1, 0), 14))
    overlap = draw(st.integers(1, known + 1))
    kind = draw(st.sampled_from(["tracks"] * 5 + ["empty", "header", "no-header"])) \
        if messy else "tracks"
    if kind in ("empty", "header"):
        return ("" if kind == "empty" else HEADER), endtime, known, overlap
    spacing = draw(st.sampled_from([0.2, 0.44, 1.0, 5.0, 0.0]))
    velocities = st.sampled_from([(0.5, 0.0), (1.0, 0.3), (0.0, 0.0)])
    shared = draw(velocities)
    rows = []
    for agent in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 3)) > 0:
            first = draw(st.integers(max(endtime - known - 2, 0), endtime - known + 1))
            last = draw(st.integers(endtime, endtime + 2))
        else:
            first = draw(st.integers(0, 14))
            last = first + draw(st.integers(0, 5))
        vx, vy = draw(velocities) if draw(st.integers(0, 4)) == 0 else shared
        gaps = draw(st.sets(st.integers(first, last), max_size=2)) \
            if draw(st.integers(0, 3)) == 0 else set()
        dups = {draw(st.integers(first, last))} \
            if messy and draw(st.integers(0, 9)) == 0 else set()
        for f in range(first, last + 1):
            if f in gaps:
                continue
            x, y = agent * spacing + vx * f, vy * f
            rows.append([str(f), f"p{agent}", repr(x), repr(y)])
            if f in dups:
                rows.append([str(f), f"p{agent}", repr(x + 0.01), repr(y)])
    if messy and rows and draw(st.integers(0, 3)) == 0:
        row = draw(st.integers(0, len(rows) - 1))
        rows[row][draw(st.sampled_from([0, 2, 3]))] = draw(st.sampled_from(BAD_TOKENS))
    if messy and draw(st.integers(0, 9)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), ["3", "p0", "1.0"])
    order = draw(st.permutations(range(len(rows))))
    body = "".join(",".join(rows[i]) + "\n" for i in order)
    return (body if kind == "no-header" else HEADER + body), endtime, known, overlap


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=groups_case())
def test_groups_cli_exit_codes_and_partition(case):
    text, endtime, known, overlap = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_text(text, encoding="utf-8")
        rc = cli.main(["groups", str(path), "--endtime", str(endtime),
                       "--known-time-steps", str(known),
                       "--min-overlap-frames", str(overlap),
                       "--out", tmp])
        assert rc in (0, 2, 3)
        if rc != 0:
            return
        records = [json.loads(line) for line in
                   (Path(tmp) / "groups.jsonl").read_text().splitlines()]
    cfg = Config(known_time_steps=known, min_overlap_frames=overlap)
    tracks = read_canonical_csv(text, cfg.step_duration)
    expected = sorted(tr.agent_id for tr in known_window_tracks(tracks, endtime, cfg))
    flat = [m for rec in records for m in rec["members"]]
    assert sorted(flat) == expected
    assert len(flat) == len(set(flat))
    assert all(rec["size"] == len(rec["members"]) for rec in records)
    assert all(math.isfinite(v) for rec in records
               for v in [rec["emotion"]] + rec["center_last"])



# scene coordinates: near the walkers, or huge enough that an edge's
# squared length, or the distance to it, overflows
SCENE_COORDS = st.one_of(st.floats(-3.0, 12.0, width=16),
                         st.sampled_from([0.0, 1e154, -1e154, 1e200, -1e308,
                                          1e308, 1.7976931348623157e308]))


@st.composite
def scene_file(draw) -> str:
    """A scene file of ``seg``, ``poly`` and ``bounds`` lines: segments,
    zero-length ones and ones reaching from x to -x among them, and
    rectangles or triangles, some with a repeated vertex; coordinates near
    the walkers or huge."""
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["seg", "point", "across", "rect", "tri",
                                     "bounds"]))
        x, y, w, h = (draw(SCENE_COORDS) for _ in range(4))
        if kind == "bounds":
            lines.append(f"bounds {x!r} {y!r} {w!r} {h!r}")
            continue
        pts = {"seg": [(x, y), (w, h)],
               "point": [(x, y), (x, y)],
               "across": [(x, y), (-x, h)],
               "rect": [(x, y), (x + w, y), (x + w, y + h), (x, y + h)],
               "tri": [(x, y), (w, y), (x, h)]}[kind]
        if len(pts) > 2 and draw(st.booleans()):
            at = draw(st.integers(0, len(pts) - 1))
            pts.insert(at, pts[at])
        word = "seg" if len(pts) == 2 else "poly"
        lines.append(" ".join([word] + [repr(v) for pt in pts for v in pt]))
    return "".join(line + "\n" for line in lines)


def _finite_predictions(records) -> bool:
    def points(rec):
        for cand in rec["candidates"]:
            yield from cand["group_trajectory"]
            for track in cand["members"].values():
                yield from track
    return all(math.isfinite(v) for rec in records for pt in points(rec) for v in pt)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=groups_case(), scene=scene_file())
def test_destinations_and_predict_cli_exit_codes_and_candidates(case, scene):
    """``destinations`` and ``predict`` (short horizon, one substep, the
    scene file for ``predict``) on the same inputs: exit 0, 2 or 3; on 0
    the records partition the known agents, each has at most k retrieved
    candidates from distinct non-member agents and ends with the
    straight-line one, every predicted coordinate is finite, the members
    and emotions are those ``groups`` reports, and both report the same
    candidates."""
    text, endtime, known, overlap = case
    outputs = {"groups": "groups.jsonl", "destinations": "destinations.jsonl",
               "predict": "predictions.jsonl"}
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_text(text, encoding="utf-8")
        scene_path = Path(tmp) / "scene.txt"
        scene_path.write_text(scene, encoding="utf-8")
        for command, output in outputs.items():
            out = Path(tmp) / command
            extra = ["--scene", str(scene_path)] if command == "predict" else []
            rc = cli.main([command, str(path), "--endtime", str(endtime),
                           "--known-time-steps", str(known),
                           "--min-overlap-frames", str(overlap),
                           "--predict-time-steps", "3", "--substeps", "1",
                           "--out", str(out)] + extra)
            assert rc in (0, 2, 3)
            if rc == 0:
                records[command] = [json.loads(line) for line in
                                    (out / output).read_text().splitlines()]
    assert _finite_predictions(records.get("predict", []))
    if records.keys() <= {"groups"}:
        return
    cfg = Config(known_time_steps=known, min_overlap_frames=overlap)
    tracks = read_canonical_csv(text, cfg.step_duration)
    expected = sorted(tr.agent_id for tr in known_window_tracks(tracks, endtime, cfg))
    for command in records.keys() - {"groups"}:
        flat = [m for rec in records[command] for m in rec["members"]]
        assert sorted(flat) == expected
        assert len(flat) == len(set(flat))
        for rec in records[command]:
            *retrieved, linear = rec["candidates"]
            assert linear["provenance"] == "linear-continuation"
            assert linear["score"] is None
            sources = [c["provenance"].split("@")[0] for c in retrieved]
            assert len(retrieved) <= cfg.k_candidates
            assert len(set(sources)) == len(sources)
            assert not {f"db:{m}" for m in rec["members"]} & set(sources)
            if command == "predict":
                assert all(sorted(c["members"]) == rec["members"]
                           for c in rec["candidates"])
    groups = {command: [(r["members"], r["emotion"]) for r in recs]
              for command, recs in records.items()}
    assert len(set(map(repr, groups.values()))) == 1
    if records.keys() >= {"destinations", "predict"}:
        shared = ("destination", "provenance", "score")
        assert [[[c[k] for k in shared] for c in r["candidates"]]
                for r in records["destinations"]] == \
            [[[c[k] for k in shared] for c in r["candidates"]]
             for r in records["predict"]]


def _exit_code(argv: list) -> int:
    """Exit code of ``crowdcast argv``; argparse exits 2 on a usage error."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    event(f"{argv[0]} exit {rc}")
    return rc


# obsmat numbers: small, on or off the integer grid, huge, or no number
OBSMAT_TOKENS = st.one_of(st.integers(-2, 12).map(str),
                          st.floats(-5.0, 5.0, width=16).map(repr),
                          st.sampled_from(["1e308", "-1e308", "1e154", "0.5", "nan",
                                           "inf", "x", "1e999", "3.0000001"]))


@st.composite
def obsmat_file(draw) -> str:
    """An annotation matrix: walkers on consecutive frames in the 4- or
    8-column layout, with gaps, repeated frames and comment lines; sometimes
    one token is spoiled or a row has the wrong column count."""
    wide = draw(st.booleans())
    rows = []
    for agent in range(draw(st.integers(0, 4))):
        first = draw(st.integers(0, 20))
        step = draw(st.sampled_from([1, 1, 2, 10]))
        vx = draw(st.sampled_from([0.0, 0.5, 1.0, 1e300]))
        for k in range(draw(st.integers(0, 8))):
            frame, x, y = first + k * step, agent + vx * k, 0.3 * k
            row = [str(frame), str(agent), repr(x), repr(y)]
            rows.append(row[:3] + ["0", row[3], "0", "0", "0"] if wide else row)
    if rows and draw(st.integers(0, 3)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), list(rows[0]))
    if rows and draw(st.integers(0, 2)) == 0:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(OBSMAT_TOKENS)
    if rows and draw(st.integers(0, 5)) == 0:
        rows[draw(st.integers(0, len(rows) - 1))].append("7")
    lines = [" ".join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(0, "# frame id x y")
    return "".join(line + "\n" for line in lines)


HOMOGRAPHIES = st.one_of(st.none(), st.sampled_from([
    "1 0 0 0 1 0 0 0 1", "0.5 0 3 0 0.5 -2 0 0 1",
    "1 0 0 0 1 0 0.01 0 1",       # perspective: some points map far away
    "1 0 0 0 1 0 1 0 0",          # points on x = 0 map to infinity
    "1 2 3 2 4 6 0 0 1",          # singular
    "0 0 0 0 0 0 0 0 0", "1 0 0 0 1 0 0 0", "1 0 0 0 1 0 0 0 nan",
    "1e300 0 0 0 1e300 0 0 0 1", "1e-300 0 0 0 1e-300 0 0 0 1", "a b c d e f g h i"]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(raw=obsmat_file(), homography=HOMOGRAPHIES,
       fps=st.one_of(st.just("2.5"), st.sampled_from(
           ["25", "0.1", "1e-300", "1e300", "0", "-1", "nan", "inf"])),
       columns=st.one_of(st.none(), st.sampled_from(
           ["0,1,2,3", "0,1,2,4", "1,0,3,2", "0,1", "0,1,2,9", "a,b,c,d",
            "-1,1,2,3"])))
def test_ingest_cli_exit_codes_and_readback(raw, homography, fps, columns):
    """``ingest`` on random annotation rows, homography files and flags:
    exit 0, 2 or 3; on 0 the canonical CSV reads back with finite
    coordinates on the step grid."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.txt"
        path.write_text(raw, encoding="utf-8")
        argv = ["ingest", str(path), "--fps", fps, "--out", tmp]
        if homography is not None:
            (Path(tmp) / "h.txt").write_text(homography)
            argv += ["--homography", str(Path(tmp) / "h.txt")]
        if columns is not None:
            argv += ["--columns", columns]
        rc = _exit_code(argv)
        assert rc in (0, 2, 3)
        if rc != 0:
            return
        tracks = read_canonical_csv((Path(tmp) / "canonical.csv").read_bytes(),
                                    Config().step_duration)
    assert all(len(tr) >= 2 for tr in tracks)
    assert all(np.all(np.diff(tr.frames) == 1) for tr in tracks)


# mostly valid endtime lists, sometimes malformed or beyond int64
VALID_ENDTIMES = st.lists(st.integers(-2, 20), min_size=1, max_size=3).map(
    lambda ends: ",".join(map(str, ends)))
ENDTIMES = st.one_of(
    VALID_ENDTIMES, VALID_ENDTIMES,
    st.sampled_from(["", ",", "a", "1,,2", "3.5", "99999999999999999999",
                     "9223372036854775807", "-9223372036854775808"]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=st.one_of(groups_case(), groups_case(messy=False)),
       scene=st.one_of(st.just(""), scene_file()),
       endtimes=st.one_of(st.none(), ENDTIMES),
       stride=st.sampled_from([None, None, "-1", "0", "1", "3", "100"]),
       mode=st.sampled_from(["rigid", "seeded-jitter"]))
def test_eval_cli_exit_codes_and_rows(case, scene, endtimes, stride, mode):
    """``eval`` with explicit or strided endtimes, a scene file and either
    member mode (short horizon, one substep): exit 0, 2 or 3; on 0 the CSV
    has one row per endtime, each agent counted once as evaluated or
    skipped."""
    text, _, known, overlap = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_text(text, encoding="utf-8")
        (Path(tmp) / "scene.txt").write_text(scene, encoding="utf-8")
        argv = ["eval", str(path), "--scene", str(Path(tmp) / "scene.txt"),
                "--mode", mode, "--known-time-steps", str(known),
                "--min-overlap-frames", str(overlap),
                "--predict-time-steps", "3", "--substeps", "1", "--out", tmp]
        argv += [] if endtimes is None else ["--endtimes", endtimes]
        argv += [] if stride is None else ["--stride", stride]
        rc = _exit_code(argv)
        assert rc in (0, 2, 3)
        if rc != 0:
            return
        header, *rows = (Path(tmp) / "results.csv").read_text().splitlines()
    tracks = read_canonical_csv(text, Config().step_duration)
    assert header == "endtime,min_ade,min_fde,n_agents,n_skipped"
    if endtimes:  # an empty list means the default, strided endtimes
        assert len(rows) == len([e for e in endtimes.split(",") if e])
    for row in rows:
        endtime, *errors, n_agents, n_skipped = row.split(",")
        present = sum(1 for tr in tracks if tr.frames[0] <= int(endtime) + 3)
        assert int(n_agents) + int(n_skipped) == present
        assert all(math.isfinite(float(e)) for e in errors) == (int(n_agents) > 0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=st.one_of(groups_case(), groups_case(messy=False)),
       scene=st.one_of(st.just(""), scene_file()),
       endtime=st.one_of(st.none(), st.integers(-3, 20),
                         st.sampled_from([2**63, -2**63 - 1])))
def test_plot_cli_exit_codes(case, scene, endtime):
    """``plot`` with and without an endtime and a scene file: exit 0, 2 or
    3; on 0 it writes an SVG document."""
    text = case[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_text(text, encoding="utf-8")
        (Path(tmp) / "scene.txt").write_text(scene, encoding="utf-8")
        argv = ["plot", str(path), "--scene", str(Path(tmp) / "scene.txt"),
                "--out", tmp]
        argv += [] if endtime is None else ["--endtime", str(endtime)]
        rc = _exit_code(argv)
        assert rc in (0, 2, 3)
        if rc == 0:
            svg = (Path(tmp) / "plot.svg").read_text()
            assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


# integer parameters stay small, because the work of a run grows with them;
# floats range over the values each check has to refuse
CONFIG_INTS = ["known_time_steps", "predict_time_steps", "k_candidates",
               "min_overlap_frames", "substeps"]
CONFIG_FLOATS = ["person_radius", "step_duration", "neighborhood_range",
                 "person_mass", "intimate_distance", "personal_distance",
                 "direction_weight", "relaxation_time", "repulsion_strength",
                 "repulsion_range", "obstacle_strength", "obstacle_range",
                 "max_speed_factor", "speed_floor"]


@st.composite
def config_file(draw) -> str:
    """A ``--config`` file: known keys with valid, out-of-range,
    non-finite or unparsable values, unknown keys, lines without ``=``,
    comments and blank lines."""
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["int", "float", "float", "seed", "mode",
                                     "unknown", "no-equals", "comment"]))
        if kind == "int":
            value = draw(st.sampled_from(["-1", "0", "1", "2", "3", "3", "4",
                                          "1.5", "x"]))
            lines.append(f"{draw(st.sampled_from(CONFIG_INTS))} = {value}")
        elif kind == "float":
            value = draw(st.sampled_from(["0.3999", "0.5", "1.0", "2", "0",
                                          "-1", "1e-300", "1e300", "nan",
                                          "inf", "-inf", "x"]))
            lines.append(f"{draw(st.sampled_from(CONFIG_FLOATS))} = {value}")
        elif kind == "seed":
            lines.append(f"seed = {draw(st.sampled_from(['0', '7', '-1', 'x']))}")
        elif kind == "mode":
            lines.append(f"mode = {draw(st.sampled_from(['rigid', 'seeded-jitter', 'x']))}")
        elif kind == "unknown":
            lines.append("speed = 1.0")
        elif kind == "no-equals":
            lines.append("known_time_steps 3")
        else:
            lines.append(draw(st.sampled_from(["# note", "", "  # k = 1"])))
    return "".join(line + "\n" for line in lines)


WALKERS = HEADER + "".join(f"{f},{a},{a * 0.5 + 0.4 * f!r},{0.1 * f!r}\n"
                           for a in range(3) for f in range(12))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(config=config_file(),
       command=st.sampled_from(["ingest", "groups", "destinations", "predict",
                                "eval", "plot"]))
def test_config_file_on_every_subcommand(config, command):
    """Every subcommand with a random ``--config`` file: exit 0, 2 or 3; on
    0 its ``run_config.txt``, passed back through ``--config``, reproduces
    itself."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if command == "ingest":
            path = tmp / "raw.txt"
            path.write_text("".join(f"{f} {a} {a + 0.4 * f!r} 0.0\n"
                                    for a in range(2) for f in range(6)))
        else:
            path = tmp / "in.csv"
            path.write_text(WALKERS)
        (tmp / "run.cfg").write_text(config, encoding="utf-8")
        extra = {"groups": ["--endtime", "9"], "destinations": ["--endtime", "9"],
                 "predict": ["--endtime", "9"], "eval": ["--endtimes", "6,8"]}
        argv = [command, str(path)] + extra.get(command, [])
        rc = _exit_code(argv + ["--config", str(tmp / "run.cfg"), "--out", str(tmp / "a")])
        assert rc in (0, 2, 3)
        if rc != 0:
            return
        first = (tmp / "a" / "run_config.txt").read_text()
        rc = _exit_code(argv + ["--config", str(tmp / "a" / "run_config.txt"),
                              "--out", str(tmp / "b")])
        assert rc == 0
        assert (tmp / "b" / "run_config.txt").read_text() == first
