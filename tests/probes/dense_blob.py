"""Dense-blob probe: what group detection's closeness graph and components
cost when nearly every pair of agents is an edge.

n agents of ``conftest.dense_blob`` walk together inside a 1 m square
over one known window of ``Config().known_time_steps`` frames; all but
about 0.2% of their pairs are edges. For each n, ``build_intimacy_graph``
then ``extract_groups`` run ``--repeats`` times, and the best wall time of
each is kept. Prints one JSON object: for each n, the groups and the
seconds of the build, the extraction and their sum. The script also runs
against a tree whose graph is a dict of id pairs; at n = 4,000 that dict
holds about 8 million entries.

    PYTHONPATH=src python tests/probes/dense_blob.py [--ns 500,1000,2000,4000]

Needs numpy, pytest (for ``tests/conftest.py``) and the package. pytest
does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import crowdcast as cc  # noqa: E402
from crowdcast import grouping  # noqa: E402

from conftest import dense_blob  # noqa: E402


def probe(ns, repeats: int) -> dict:
    cfg = cc.Config()
    out = {}
    for n in ns:
        tracks = dense_blob(n, cfg.known_time_steps, cfg.step_duration)
        build = extract = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            graph = grouping.build_intimacy_graph(tracks, cfg)
            t1 = time.perf_counter()
            groups = grouping.extract_groups(graph)
            t2 = time.perf_counter()
            build, extract = min(build, t1 - t0), min(extract, t2 - t1)
            del graph
        out[str(n)] = {"groups": len(groups), "build_s": round(build, 3),
                       "extract_s": round(extract, 3), "total_s": round(build + extract, 3)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ns", default="500,1000,2000,4000",
                    help="comma-separated agent counts (default 500,1000,2000,4000)")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    print(json.dumps(probe([int(n) for n in args.ns.split(",")], args.repeats)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
