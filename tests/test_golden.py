"""Golden-output gate: CLI outputs on a fixed seeded scenario, byte for byte.

The inputs under ``golden/`` come from ``golden/make_inputs.py``; the
expected files under ``golden/expected/`` were written by the commands
below. A change that alters any of them changes the predictor's behaviour
and has to say so; refactors must leave them identical.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from crowdcast.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
PARAMS = ["--known-time-steps", "12", "--predict-time-steps", "10",
          "--substeps", "2"]

CASES = {
    "eval-rigid": (["eval", "input.csv", "--scene", "scene.txt",
                    "--endtimes", "30,45"], "results.csv"),
    "eval-seeded-jitter": (["eval", "input.csv", "--scene", "scene.txt",
                            "--endtimes", "45", "--mode", "seeded-jitter",
                            "--seed", "3"], "results.csv"),
    "predict": (["predict", "input.csv", "--database", "history.csv",
                 "--scene", "scene.txt", "--endtime", "40"],
                "predictions.jsonl"),
    "destinations": (["destinations", "input.csv", "--database", "history.csv",
                      "--endtime", "40"], "destinations.jsonl"),
    "groups": (["groups", "input.csv", "--endtime", "40"], "groups.jsonl"),
    "predict-default-database": (["predict", "input.csv", "--scene", "scene.txt",
                                  "--endtime", "40"], "predictions.jsonl"),
    "destinations-default-database": (["destinations", "input.csv",
                                       "--endtime", "40"], "destinations.jsonl"),
    "predict-plot": (["predict", "input.csv", "--database", "history.csv",
                      "--scene", "scene.txt", "--endtime", "40",
                      "--plot", "predict.svg"], "predict.svg"),
    "plot": (["plot", "input.csv", "--scene", "scene.txt", "--endtime", "40"],
             "plot.svg"),
    "ingest": (["ingest", "raw.txt", "--homography", "homography.txt",
                "--fps", "10"], "canonical.csv"),
}


def run_case(name: str, out_dir: Path) -> bytes:
    args, output = CASES[name]
    # inputs are read from golden/, a --plot file is written to the output
    argv = [str(GOLDEN / a) if a.endswith((".csv", ".txt"))
            else str(out_dir / a) if a.endswith(".svg") else a
            for a in args] + PARAMS + ["--out", str(out_dir)]
    assert main(argv) == 0
    return (out_dir / output).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, tmp_path, capsys):
    got = run_case(name, tmp_path)
    expected = (GOLDEN / "expected" / name / CASES[name][1]).read_bytes()
    assert got == expected
