"""Command line interface behavior, exit codes, and reproducibility."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from crowdcast import cli
from crowdcast.core import read_canonical_csv, write_canonical_csv

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

    def test_parse_error_reports_line(self, tmp_path, capsys):
        raw = _write_obsmat(tmp_path / "raw.txt", bad_line=3)
        rc = cli.main(["ingest", str(raw), "--out", str(tmp_path)])
        assert rc == 2
        assert "3" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_resample_is_data_error(self, tmp_path, capsys):
        # both coordinates are finite, but interpolating between them
        # overflows to -inf; nothing may be written, and no numpy warning
        # may reach stderr
        raw = tmp_path / "raw.txt"
        raw.write_text("0 7 1e308 0.0 2.0 0 0 0\n1 7 -1e308 0.0 2.0 0 0 0\n"
                       "2 7 0.0 0.0 2.0 0 0 0\n")
        out = tmp_path / "run"
        rc = cli.main(["ingest", str(raw), "--out", str(out)])
        assert rc == 3
        assert "agent '7'" in capsys.readouterr().err
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

    def test_huge_chained_group_exits_cleanly(self, tmp_path, capsys):
        # 720 agents 0.4 m apart form one chained group; its cohesion score
        # is about -718, past the range of exp
        n = 720
        rows = "".join(f"{f},{a},{0.4 * a!r},{0.5 * f!r}\n"
                       for a in range(n) for f in range(2))
        path = tmp_path / "chain.csv"
        path.write_text("frame,agent_id,x,y\n" + rows)
        rc = cli.main(["groups", str(path), "--endtime", "1",
                       "--known-time-steps", "2", "--min-overlap-frames", "2",
                       "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        records = [json.loads(line) for line in
                   (tmp_path / "groups.jsonl").read_text().splitlines()]
        assert [r["size"] for r in records] == [n]
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
        # predicting next to it would write NaN coordinates
        scene = tmp_path / "scene.txt"
        scene.write_text(f"bounds -1e308 -1e308 1e308 1e308\n{entry}\n")
        out = tmp_path / "run"
        rc = cli.main(["predict", str(tracks_csv), "--endtime", "99",
                       "--predict-time-steps", "3", "--scene", str(scene),
                       "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "line 2" in err and "overflows" in err
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
