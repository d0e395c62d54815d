"""Property tests: ``crowdcast groups``, ``destinations`` and ``predict``
on malformed or degenerate CSVs.

Whatever the canonical CSV holds, each command ends with exit code 0
(done), 2 (usage) or 3 (data), never with a traceback; on exit 0 the groups
partition the agents that cover the known window.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from crowdcast import Config, cli
from crowdcast.core import read_canonical_csv
from crowdcast.pipeline import known_window_tracks

HEADER = "frame,agent_id,x,y\n"
BAD_TOKENS = ["nan", "inf", "-inf", "NaN", "1e999", "", "x", "-3", "1.5",
              "99999999999999999999999", "9223372036854775807"]


@st.composite
def groups_case(draw) -> tuple:
    """A canonical CSV with its endtime, known-window length and overlap
    minimum. Most agents walk near one another over the whole known window;
    the rest start or end inside it, and tracks get gaps, duplicate frames
    and single frames. Sometimes one token is spoiled or a row cut short;
    sometimes the file is empty, header-only or header-less."""
    known = draw(st.sampled_from([2, 3, 4, 6, 1]))
    endtime = draw(st.integers(max(known - 1, 0), 14))
    overlap = draw(st.integers(1, known + 1))
    kind = draw(st.sampled_from(["tracks"] * 5 + ["empty", "header", "no-header"]))
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
        dups = {draw(st.integers(first, last))} if draw(st.integers(0, 9)) == 0 else set()
        for f in range(first, last + 1):
            if f in gaps:
                continue
            x, y = agent * spacing + vx * f, vy * f
            rows.append([str(f), f"p{agent}", repr(x), repr(y)])
            if f in dups:
                rows.append([str(f), f"p{agent}", repr(x + 0.01), repr(y)])
    if rows and draw(st.integers(0, 3)) == 0:
        row = draw(st.integers(0, len(rows) - 1))
        rows[row][draw(st.sampled_from([0, 2, 3]))] = draw(st.sampled_from(BAD_TOKENS))
    if draw(st.integers(0, 9)) == 0:
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



@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=groups_case())
def test_destinations_and_predict_cli_exit_codes_and_candidates(case):
    """``destinations`` and ``predict`` (short horizon, one substep) on the
    same inputs: exit 0, 2 or 3; on 0 the records partition the known
    agents, each has at most k retrieved candidates from distinct
    non-member agents and ends with the straight-line one, the members and
    emotions are those ``groups`` reports, and both report the same
    candidates."""
    text, endtime, known, overlap = case
    outputs = {"groups": "groups.jsonl", "destinations": "destinations.jsonl",
               "predict": "predictions.jsonl"}
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_text(text, encoding="utf-8")
        for command, output in outputs.items():
            out = Path(tmp) / command
            rc = cli.main([command, str(path), "--endtime", str(endtime),
                           "--known-time-steps", str(known),
                           "--min-overlap-frames", str(overlap),
                           "--predict-time-steps", "3", "--substeps", "1",
                           "--out", str(out)])
            assert rc in (0, 2, 3)
            if rc == 0:
                records[command] = [json.loads(line) for line in
                                    (out / output).read_text().splitlines()]
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
