"""Command line interface behavior, exit codes, and reproducibility."""

from __future__ import annotations

import json
import time
from dataclasses import fields
from pathlib import Path

import pytest

from crowdcast import cli
from crowdcast.core import Config, read_canonical_csv, write_canonical_csv
from crowdcast.dynamics import FROM_CONFIG, ForceParams

from conftest import STEP, benchmark_tracks, line_track

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def tracks_csv(tmp_path):
    path = tmp_path / "tracks.csv"
    path.write_bytes(write_canonical_csv(benchmark_tracks(3)))
    return path


def _write_obsmat(path, n_frames=12, bad_line=None):
    lines = []
    for k in range(n_frames):
        x = 0.5 * k
        lines.append(f"{k} 7 {x} 0.0 2.0 0.0 0.0 0.0")
    if bad_line is not None:
        lines[bad_line - 1] = "1 7 oops 0.0 2.0 0.0 0.0 0.0"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestHelp:
    def test_top_level_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("ingest", "groups", "destinations", "predict", "eval",
                     "plot"):
            assert name in out

    def test_parameters_documented_with_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["predict", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--step-duration" in out and "0.3999" in out
        assert "--k-candidates" in out and "(5)" in out
        assert "--relaxation-time" in out and "(0.5)" in out
        assert "--substeps" in out and "(8)" in out
        assert "--seed" in out and "--config" in out


class TestIngest:
    def test_missing_input(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        rc = cli.main(["ingest", str(missing), "--out", str(tmp_path)])
        assert rc == 2
        assert "nope.txt" in capsys.readouterr().err

    def test_bad_fps(self, tmp_path, capsys):
        raw = _write_obsmat(tmp_path / "raw.txt")
        rc = cli.main(["ingest", str(raw), "--fps", "0", "--out",
                       str(tmp_path)])
        assert rc == 2
        assert "fps" in capsys.readouterr().err

    def test_writes_canonical_csv(self, tmp_path, capsys, cfg):
        raw = _write_obsmat(tmp_path / "raw.txt")
        out = tmp_path / "run"
        rc = cli.main(["ingest", str(raw), "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "wrote" in captured
        tracks = read_canonical_csv((out / "canonical.csv").read_bytes(),
                                    cfg.step_duration)
        assert [tr.agent_id for tr in tracks] == ["7"]
        assert (out / "run_config.txt").is_file()

    def test_bad_column_map_is_usage_error(self, tmp_path, capsys):
        raw = _write_obsmat(tmp_path / "raw.txt")
        out = tmp_path / "run"
        for columns in ["0,1,2", "a,b,c,d", "0,1,-1,2"]:
            rc = cli.main(["ingest", str(raw), "--columns", columns, "--out", str(out)])
            assert rc == 2, columns
            assert "bad column map" in capsys.readouterr().err
            assert not out.exists()

    def test_column_index_past_int64_is_parse_error(self, tmp_path, capsys):
        # an index numpy cannot hold is reported as a column past the row's
        # end, as the largest one it can hold is
        raw = _write_obsmat(tmp_path / "raw.txt")
        out = tmp_path / "run"
        for big in [2**63 - 1, 99999999999999999999]:
            rc = cli.main(["ingest", str(raw), "--columns", f"0,1,2,{big}", "--out", str(out)])
            assert rc == 2, big
            assert f"line 1: column {big} missing in 8-column row" in capsys.readouterr().err
            assert not out.exists()

    def test_parse_error_reports_line(self, tmp_path, capsys):
        raw = _write_obsmat(tmp_path / "raw.txt", bad_line=3)
        rc = cli.main(["ingest", str(raw), "--out", str(tmp_path)])
        assert rc == 2
        assert "3" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_resample_is_data_error(self, tmp_path, capsys):
        # both coordinates are finite, but interpolating between them would
        # overflow to -inf: the scale check rejects the first point before
        # any resampling; nothing may be written, and no numpy warning may
        # reach stderr
        raw = tmp_path / "raw.txt"
        raw.write_text("0 7 1e308 0.0 2.0 0 0 0\n1 7 -1e308 0.0 2.0 0 0 0\n"
                       "2 7 0.0 0.0 2.0 0 0 0\n")
        out = tmp_path / "run"
        rc = cli.main(["ingest", str(raw), "--out", str(out)])
        assert rc == 3
        assert "agent 7: point (1e+308, 2.0) maps beyond" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_time_is_data_error(self, tmp_path, capsys):
        # frame 1e308 at 1e-300 fps has no finite time
        raw = tmp_path / "raw.txt"
        raw.write_text("0 7 0.0 0.0\n1e308 7 1.0 0.0\n")
        out = tmp_path / "run"
        rc = cli.main(["ingest", str(raw), "--fps", "1e-300", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "agent 7: frame 1000" in err and "overflows the time axis" in err
        assert not out.exists()

    def test_point_at_infinity_is_data_error(self, tmp_path, capsys):
        # w = 0.01 x + 1 vanishes at x = -100
        raw = tmp_path / "raw.txt"
        raw.write_text("0 7 -99.0 0.0\n1 7 -100.0 0.0\n")
        (tmp_path / "h.txt").write_text("1 0 0  0 1 0  0.01 0 1\n")
        out = tmp_path / "run"
        rc = cli.main(["ingest", str(raw), "--homography", str(tmp_path / "h.txt"),
                       "--out", str(out)])
        assert rc == 3
        assert "point (-100.0, 0.0) maps to infinity" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_transform_is_data_error(self, tmp_path, capsys):
        # a valid matrix times a finite pixel overflows to inf
        raw = tmp_path / "raw.txt"
        raw.write_text("0 7 1e308 0.0\n1 7 1e308 0.0\n2 7 1e308 0.0\n")
        (tmp_path / "h.txt").write_text("1e200 0 0  0 1 0  0 0 1\n")
        out = tmp_path / "run"
        rc = cli.main(["ingest", str(raw), "--homography", str(tmp_path / "h.txt"),
                       "--out", str(out)])
        assert rc == 3
        assert "agent 7: point (1e+308, 0.0) maps beyond" in capsys.readouterr().err
        assert not out.exists()


class TestGroups:
    def test_jsonl_structure(self, tmp_path, capsys):
        tracks = [
            line_track("a", 0, 40, (0.0, 0.0), (1.0, 0.0)),
            line_track("b", 0, 40, (0.0, 0.3), (1.0, 0.0)),
            line_track("c", 0, 40, (0.0, 30.0), (1.0, 0.0)),
        ]
        path = tmp_path / "t.csv"
        path.write_bytes(write_canonical_csv(tracks))
        rc = cli.main(["groups", str(path), "--endtime", "39", "--out",
                       str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "groups.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["members"] for r in records] == [["a", "b"], ["c"]]
        assert records[0]["size"] == 2
        assert records[0]["emotion"] == pytest.approx(0.5)
        assert len(records[0]["center_last"]) == 2
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    @staticmethod
    def _chain_groups(tmp_path, capsys, n):
        """``groups`` records of n agents 0.4 m apart over a 2-frame window."""
        rows = "".join(f"{f},{a},{0.4 * a!r},{0.5 * f!r}\n"
                       for a in range(n) for f in range(2))
        path = tmp_path / "chain.csv"
        path.write_text("frame,agent_id,x,y\n" + rows)
        rc = cli.main(["groups", str(path), "--endtime", "1",
                       "--known-time-steps", "2", "--min-overlap-frames", "2",
                       "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        return [json.loads(line) for line in
                (tmp_path / "groups.jsonl").read_text().splitlines()]

    def test_huge_chained_group_exits_cleanly(self, tmp_path, capsys):
        # 720 agents 0.4 m apart form one chained group; its cohesion score
        # is about -718, past the range of exp
        records = self._chain_groups(tmp_path, capsys, 720)
        assert [r["size"] for r in records] == [720]
        assert records[0]["emotion"] == 0.0

    def test_huge_chained_group_predicts_and_evaluates(self, tmp_path, capsys):
        # the same group's emotion of 0.0 is a valid reconstruction input:
        # its members' deviations enter unscaled
        self._chain_groups(tmp_path, capsys, 720)
        path = str(tmp_path / "chain.csv")
        flags = ["--known-time-steps", "2", "--min-overlap-frames", "2",
                 "--out", str(tmp_path)]
        assert cli.main(["predict", path, "--endtime", "1"] + flags) == 0
        assert cli.main(["eval", path, "--endtimes", "1"] + flags) == 0
        assert "error" not in capsys.readouterr().err

    def test_5000_agent_chain_is_cheap(self, tmp_path, capsys):
        # cost probe: 5,000 agents still form one chained group, with the
        # same emotion, in bounded time (about 2.3 s on a 2-core host, nearly
        # all of it the group's emotion, whose pair terms are O(n²))
        t0 = time.perf_counter()
        records = self._chain_groups(tmp_path, capsys, 5000)
        assert time.perf_counter() - t0 < 20.0
        assert [r["size"] for r in records] == [5000]
        assert records[0]["emotion"] == 0.0

    def test_duplicate_frame_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("frame,agent_id,x,y\n1,a,0.0,0.0\n1,a,1.0,0.0\n")
        rc = cli.main(["groups", str(path), "--endtime", "10", "--out",
                       str(tmp_path)])
        assert rc == 3
        assert "duplicate" in capsys.readouterr().err


class TestNonFiniteInput:
    def test_csv_nan_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("frame,agent_id,x,y\n0,a,0.0,0.0\n1,a,nan,0.0\n")
        rc = cli.main(["groups", str(path), "--endtime", "1", "--out",
                       str(tmp_path)])
        assert rc == 3
        assert "line 3" in capsys.readouterr().err

    def test_scene_inf_is_data_error(self, tmp_path, capsys, tracks_csv):
        scene = tmp_path / "scene.txt"
        scene.write_text("seg 0 0 inf 0\n")
        rc = cli.main(["plot", str(tracks_csv), "--scene", str(scene),
                       "--out", str(tmp_path)])
        assert rc == 3
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["seg -1e308 0 1e308 0",
                                       "seg 0 0 1e200 0",
                                       "poly 0 0 1e308 0 1e308 1e308",
                                       "poly 0 0 1e154 0 1e154 1e154 0 1e154"])
    def test_scene_edge_overflow_is_data_error(self, tmp_path, capsys, tracks_csv,
                                               entry):
        # every coordinate is finite, but no distance to such an edge is:
        # the scale check rejects the entry's line before any geometry
        scene = tmp_path / "scene.txt"
        scene.write_text(f"bounds -1e9 -1e9 1e9 1e9\n{entry}\n")
        out = tmp_path / "run"
        rc = cli.main(["predict", str(tracks_csv), "--endtime", "99",
                       "--predict-time-steps", "3", "--scene", str(scene),
                       "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "line 2" in err and "within ±1e+09 m" in err
        assert not (out / "predictions.jsonl").exists()

    def test_obsmat_nan_is_parse_error(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("0 7 0.0 0.0\n1 7 nan 0.0\n")
        rc = cli.main(["ingest", str(raw), "--out", str(tmp_path)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--person-radius", "--relaxation-time"])
    def test_nan_parameter_is_usage_error(self, tmp_path, capsys, tracks_csv,
                                          flag):
        rc = cli.main(["groups", str(tracks_csv), "--endtime", "99", flag,
                       "nan", "--out", str(tmp_path)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err


# the float parameters a flag sets; each must lie in [1e-9, 1e9]
FLOAT_FLAGS = ["person_radius", "step_duration", "neighborhood_range",
               "person_mass", "intimate_distance", "personal_distance",
               "direction_weight", "relaxation_time", "repulsion_strength",
               "repulsion_range", "obstacle_strength", "obstacle_range",
               "max_speed_factor", "speed_floor"]


class TestScaleContract:
    @pytest.mark.parametrize("name", FLOAT_FLAGS)
    def test_float_parameter_range_on_eval(self, tmp_path, capsys, name):
        # three walkers past a wall and a square pillar; a RuntimeWarning
        # anywhere in the run fails the test
        path = tmp_path / "in.csv"
        path.write_text("frame,agent_id,x,y\n" + "".join(
            f"{f},{a},{a * 0.5 + 0.4 * f!r},{0.1 * f!r}\n"
            for a in range(3) for f in range(12)))
        scene = tmp_path / "scene.txt"
        scene.write_text("seg 0 -1 5 -1\npoly 2 1 3 1 3 2 2 2\n")

        def run(value):
            out = tmp_path / value
            rc = cli.main(["eval", str(path), "--scene", str(scene),
                           "--endtimes", "5,8", "--known-time-steps", "3",
                           "--predict-time-steps", "3", "--min-overlap-frames", "2",
                           f"--{name.replace('_', '-')}={value}", "--out", str(out)])
            return rc, capsys.readouterr().err, (out / "results.csv").exists()

        low = "-1e+09" if name == "direction_weight" else "1e-09"
        for value in ("5e-324", "1e-300", "1e300", "1.7976931348623157e308"):
            if name == "direction_weight" and float(value) < 1.0:
                assert run(value) == (0, "", True)  # the weight may be 0
            else:
                assert run(value) == (2, f"error: {name} must be finite and in "
                                         f"[{low}, 1e+09], got {float(value)!r}\n", False)
        for value in ("1e-9", "1e9"):
            rc, err, written = run(value)
            if (name, value) in (("intimate_distance", "1e9"),
                                 ("personal_distance", "1e-9")):
                # intimate_distance < personal_distance cannot hold
                assert (rc, written) == (2, False)
                assert "intimate_distance < personal_distance" in err
            else:
                assert (rc, err, written) == (0, "", True)


class TestDestinations:
    def test_k_plus_one_candidates(self, tmp_path, capsys, tracks_csv):
        rc = cli.main(["destinations", str(tracks_csv), "--endtime", "99",
                       "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        lines = (tmp_path / "destinations.jsonl").read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            rec = json.loads(line)
            cands = rec["candidates"]
            assert len(cands) == 6
            assert cands[-1]["provenance"] == "linear-continuation"
            assert cands[-1]["score"] is None
            for c in cands[:-1]:
                assert c["provenance"].startswith("db:")
                assert c["score"] >= 0.0


class TestPredict:
    def test_no_group_endtime_warns_but_succeeds(self, tmp_path, capsys,
                                                 tracks_csv):
        rc = cli.main(["predict", str(tracks_csv), "--endtime", "5",
                       "--out", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "no complete group" in captured.err
        assert (tmp_path / "predictions.jsonl").read_text() == ""

    def test_predictions_jsonl_structure(self, tmp_path, capsys, tracks_csv):
        rc = cli.main(["predict", str(tracks_csv), "--endtime", "99",
                       "--substeps", "1", "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        records = [json.loads(line) for line in
                   (tmp_path / "predictions.jsonl").read_text().splitlines()]
        assert len(records) == 3
        for rec in records:
            assert rec["endtime"] == 99
            assert len(rec["candidates"]) == 6
            for cand in rec["candidates"]:
                assert len(cand["group_trajectory"]) == 30
                for member in rec["members"]:
                    assert len(cand["members"][member]) == 30

    def test_default_database_holds_no_future(self, tmp_path, capsys):
        # without --database, candidates come from frames before the known
        # window only: no retrieved destination is a point at or after it
        tracks = read_canonical_csv((GOLDEN / "input.csv").read_bytes(), STEP)
        endtime, known = 50, 12
        later = {(float(x), float(y)) for tr in tracks
                 for f, (x, y) in zip(tr.frames, tr.positions)
                 if f >= endtime - known + 1}
        rc = cli.main(["predict", str(GOLDEN / "input.csv"), "--endtime",
                       str(endtime), "--known-time-steps", str(known),
                       "--predict-time-steps", "2", "--substeps", "1",
                       "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        retrieved = [tuple(c["destination"])
                     for line in (tmp_path / "predictions.jsonl").read_text().splitlines()
                     for c in json.loads(line)["candidates"]
                     if c["provenance"].startswith("db:")]
        assert retrieved
        assert not later & set(retrieved)

    def test_two_point_gapped_database_track_is_kept_out(self, tmp_path, capsys, tracks_csv):
        # a two-point track stores no sample, so its gap goes unchecked
        db = tmp_path / "db.csv"
        db.write_text("frame,agent_id,x,y\n0,z,0.0,0.0\n5,z,1.0,0.0\n")
        rc = cli.main(["predict", str(tracks_csv), "--endtime", "99",
                       "--database", str(db), "--predict-time-steps", "2",
                       "--substeps", "1", "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        records = [json.loads(line) for line in
                   (tmp_path / "predictions.jsonl").read_text().splitlines()]
        assert len(records) == 3
        assert all(c["provenance"] == "linear-continuation"
                   for rec in records for c in rec["candidates"])

    @pytest.mark.parametrize("stride", [1e200, 1e306])
    def test_huge_coordinates_are_data_error(self, tmp_path, capsys, stride):
        # three walkers stepping far beyond 1e9 m per frame: the CSV reader
        # names the first such line, before any arithmetic could overflow
        path = tmp_path / "in.csv"
        path.write_text("frame,agent_id,x,y\n" + "".join(
            f"{f},{a},{stride * f!r},{float(a)!r}\n" for a in range(3) for f in range(40)))
        out = tmp_path / "run"
        rc = cli.main(["predict", str(path), "--endtime", "29",
                       "--known-time-steps", "5", "--out", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.err == ("error: CSV line 3: coordinates must be finite "
                                "and within ±1e+09 m\n")
        assert captured.out == "" and not out.exists()

    def test_run_config_reproduces_output(self, tmp_path, capsys, tracks_csv):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        rc = cli.main(["predict", str(tracks_csv), "--endtime", "99",
                       "--mode", "seeded-jitter", "--seed", "5",
                       "--k-candidates", "2", "--substeps", "1",
                       "--out", str(out_a)])
        assert rc == 0
        rc = cli.main(["predict", str(tracks_csv), "--endtime", "99",
                       "--config", str(out_a / "run_config.txt"),
                       "--out", str(out_b)])
        assert rc == 0
        capsys.readouterr()
        first = (out_a / "predictions.jsonl").read_bytes()
        second = (out_b / "predictions.jsonl").read_bytes()
        assert first == second
        assert json.loads(first.splitlines()[0])["candidates"][0]


class TestEval:
    def test_config_file_changes_k(self, tmp_path, capsys, tracks_csv):
        cfg_file = tmp_path / "params.cfg"
        cfg_file.write_text("# trimmed candidate set\nk_candidates = 1\n")
        rc = cli.main(["eval", str(tracks_csv), "--endtimes", "99",
                       "--config", str(cfg_file), "--substeps", "1",
                       "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        table = (tmp_path / "results.txt").read_text()
        assert table.startswith("K = 2 candidates per group")
        assert out == table
        csv_text = (tmp_path / "results.csv").read_text()
        assert csv_text.splitlines()[0] == "endtime,min_ade,min_fde,n_agents,n_skipped"

    def test_bad_endtimes_flag(self, tmp_path, capsys, tracks_csv):
        rc = cli.main(["eval", str(tracks_csv), "--endtimes", "1,x",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "endtimes" in capsys.readouterr().err

    def test_empty_endtimes_is_usage_error(self, tmp_path, capsys, tracks_csv):
        # an explicitly empty list is not the default list
        rc = cli.main(["eval", str(tracks_csv), "--endtimes", "",
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "no endtimes to evaluate" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("stride", ["0", "-3"])
    def test_non_positive_stride_is_usage_error(self, tmp_path, capsys,
                                                tracks_csv, stride):
        rc = cli.main(["eval", str(tracks_csv), "--stride", stride,
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "--stride" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_header_only_csv_has_no_endtimes(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("frame,agent_id,x,y\n")
        rc = cli.main(["eval", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "no endtimes to evaluate" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["eval", "--endtimes", "99"], ["predict", "--endtime", "99"],
        ["groups", "--endtime", "99"]])
    def test_one_known_step_is_usage_error(self, tmp_path, capsys, tracks_csv,
                                           command):
        # a velocity needs two points, so a one-step window is refused
        # before any work, as a usage error
        rc = cli.main([command[0], str(tracks_csv)] + command[1:]
                      + ["--known-time-steps", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert "known_time_steps must be >= 2" in capsys.readouterr().err

    def test_non_convex_polygon_is_data_error(self, tmp_path, capsys, tracks_csv):
        scene = tmp_path / "scene.txt"
        scene.write_text("seg 0 0 1 0\npoly 0 0 4 0 1 1 0 4\n")
        rc = cli.main(["eval", str(tracks_csv), "--endtimes", "99",
                       "--scene", str(scene), "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "line 2" in err and "not convex" in err

    @pytest.mark.parametrize("key,value", [("k_candidates", "five"),
                                           ("step_duration", "abc"),
                                           ("seed", "1.5"),
                                           ("mode", "sideways")])
    def test_config_value_its_type_refuses(self, tmp_path, capsys, tracks_csv,
                                           key, value):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"# one bad value\n{key} = {value}\n")
        rc = cli.main(["eval", str(tracks_csv), "--endtimes", "99",
                       "--config", str(cfg_file), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg_file}:2: {key}: ")
        assert not (tmp_path / "run").exists()

    def test_unknown_config_key(self, tmp_path, capsys, tracks_csv):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("wibble = 3\n")
        rc = cli.main(["eval", str(tracks_csv), "--endtimes", "99",
                       "--config", str(cfg_file), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "wibble" in err and ":1:" in err


class TestPlot:
    def test_svg_layers_and_scene(self, tmp_path, capsys, tracks_csv):
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text("seg 0 0 5 0\n")
        rc = cli.main(["plot", str(tracks_csv), "--endtime", "99",
                       "--scene", str(scene_file), "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        svg = (tmp_path / "plot.svg").read_text()
        assert svg.startswith("<svg") or "<svg" in svg
        assert 'class="known"' in svg
        assert 'class="groundtruth"' in svg
        assert 'class="obstacle"' in svg


class TestRunParameters:
    """Every run parameter reaches ``run_config.txt``, ``--config`` and
    ``--help`` of every subcommand."""

    # the Config fields, the ForceParams fields not copied from Config, the
    # seed and the member deviation mode
    NAMES = ({f.name for f in fields(Config)}
             | {f.name for f in fields(ForceParams)} - FROM_CONFIG.keys()
             | {"seed", "mode"})

    @pytest.mark.parametrize("command", [
        ["ingest"], ["groups", "--endtime", "99"],
        ["destinations", "--endtime", "99"], ["predict", "--endtime", "99"],
        ["eval", "--endtimes", "99"], ["plot"]])
    def test_every_parameter_reaches_every_surface(self, tmp_path, capsys,
                                                   tracks_csv, command):
        assert set(cli._PARAMS) == self.NAMES
        name = command[0]
        data = _write_obsmat(tmp_path / "raw.txt") if name == "ingest" else tracks_csv
        argv = [name, str(data), *command[1:], "--substeps", "1"]
        assert cli.main(argv + ["--out", str(tmp_path / "a")]) == 0
        written = (tmp_path / "a" / "run_config.txt").read_text()
        settings = [line for line in written.splitlines() if not line.startswith("#")]
        assert {line.split(" = ")[0] for line in settings} == self.NAMES
        # the file is accepted back as --config and resolves to the same run
        assert cli.main(argv + ["--config", str(tmp_path / "a" / "run_config.txt"),
                                "--out", str(tmp_path / "b")]) == 0
        again = (tmp_path / "b" / "run_config.txt").read_text()
        assert [line for line in again.splitlines() if not line.startswith("#")] == settings
        capsys.readouterr()
        with pytest.raises(SystemExit):
            cli.main([name, "--help"])
        shown = set(capsys.readouterr().out.split())
        for key in self.NAMES - {"mode"}:
            assert "--" + key.replace("_", "-") in shown, key
        assert ("--mode" in shown) == (name in ("predict", "eval"))
