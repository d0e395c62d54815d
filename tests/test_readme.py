"""The README's library example runs as written against the current API."""

from __future__ import annotations

import re
from pathlib import Path

from crowdcast.core import write_canonical_csv

from conftest import benchmark_tracks

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_runs(tmp_path, monkeypatch, capsys):
    """The fenced ``python`` block of the README, executed in a directory
    whose ``run/canonical.csv`` holds 20 lanes of the synthetic benchmark
    tracks: its endtime of 120 has groups, a known window and history
    there. Any name the snippet uses that the code no longer has fails
    here."""
    [snippet] = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                           re.S | re.M)
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "canonical.csv").write_bytes(write_canonical_csv(benchmark_tracks(20)))
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    exec(compile(snippet, str(README), "exec"), namespace)
    assert namespace["states"] and namespace["report"].rows
    # one group per lane, with k + 1 candidates over the 30-step horizon
    assert "(6, 30, 2) (6, 1, 30, 2)" in capsys.readouterr().out
