"""crowdcast benchmark: one workload per process.

    python3 bench/run.py --workload concourse --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from the seed (``scenarios.py``), loads them
through crowdcast's parsers (set-up), then runs full passes over the
workload's endtimes while they fit in ``--seconds`` (at least one). Every
operation's output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. Every
timing is scaled to a nominal host speed by a reference loop timed around
it (``hostclock.py``); the wall times are printed beside them. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the run
is split into an untraced and a traced half and the metrics are the
per-layer ones from the traced half (see ``tracing.py``). See README.md for
the workloads and metrics.
"""

from __future__ import annotations

import os

# one process, no extra threads: pin numeric libraries before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

EVAL_WORKLOADS = ("concourse", "bottleneck", "recording")
WORKLOADS = EVAL_WORKLOADS + ("plaza-groups",)

# set-up is repeated between operations while it has taken less than this
# share of the elapsed run time, so its samples span the run
SETUP_SHARE = 0.1
MIN_SETUPS = 3


def _import_program():
    if not (SRC / "crowdcast" / "__init__.py").is_file():
        raise SystemExit(f"error: crowdcast sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import crowdcast  # noqa: F401
    return crowdcast


cc = _import_program()
from crowdcast import core, evaluate, grouping, ingest, pipeline  # noqa: E402

import scenarios  # noqa: E402
from hostclock import HostClock  # noqa: E402
from tracing import UNUSED_MODULES, Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# set-up: input bytes -> tracks and scene

def load_inputs(scen: scenarios.Scenario, cfg):
    """Parse the scenario's files the way the CLI would: ingest raw
    annotations when present, then read canonical CSV and the scene."""
    files = scen.files
    if scen.fps is not None:
        homography = ingest.Homography.from_text(files["homography.txt"].decode())
        rows = ingest.parse_obsmat(files["obsmat.txt"])
        csv_bytes, _ = ingest.to_canonical(rows, homography, scen.fps, cfg)
    else:
        csv_bytes = files["canonical.csv"]
    tracks = core.read_canonical_csv(csv_bytes, cfg.step_duration)
    scene = core.parse_scene(files["scene.txt"].decode())
    return tracks, scene


def timed_setup(scen, cfg, clock: HostClock, times: list, wall: list):
    """One set-up from a freshly collected heap; appends its duration,
    scaled to the nominal host speed, to ``times`` and in wall seconds to
    ``wall``."""
    gc.collect()
    t0 = time.perf_counter()
    tracks, scene = load_inputs(scen, cfg)
    dt = time.perf_counter() - t0
    times.append(dt * clock.scale())
    wall.append(dt)
    return tracks, scene


# ---------------------------------------------------------------------------
# operations and their checks

def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def eval_op(op, tracks, scene, cfg, params, scen):
    """One window through ``run_experiment`` (reconstruction seed 0).
    Returns (seconds in the call, agents handled, per-agent records,
    problem or None, result digest)."""
    t0 = time.perf_counter()
    report = evaluate.run_experiment(tracks, scene, [evaluate.Window(op.endtime)],
                                     cfg, params, mode=scen.mode, seed=0)
    elapsed = time.perf_counter() - t0
    recs = report.agents
    problem = None
    scored = sum(r.n_agents for r in report.rows)
    if scored != op.expected_scored or len(recs) != scored:
        problem = f"scored {scored} agents, expected {op.expected_scored}"
    elif any(r.n_candidates != cfg.k_candidates + 1 for r in recs):
        problem = "an agent lacks k+1 candidates"
    elif not all(math.isfinite(v) for r in recs
                 for v in (r.min_ade, r.min_fde, r.baseline_ade, r.baseline_fde)):
        problem = "non-finite error"
    digest = _digest(repr([(r.agent_id, r.min_ade, r.min_fde, r.ade_argmin,
                            r.fde_argmin, r.emotion) for r in recs]))
    return elapsed, scored, recs, problem, digest


def detect_groups(tracks, endtime, cfg):
    """Group detection as ``crowdcast groups`` runs it: window cut, graph,
    components, group state."""
    known = pipeline.known_window_tracks(tracks, endtime, cfg)
    graph = grouping.build_intimacy_graph(known, cfg)
    by_id = {tr.agent_id: tr for tr in known}
    comps = grouping.extract_groups(graph)
    states = [grouping.make_group_state([by_id[m] for m in members], cfg)
              for members in comps]
    return known, comps, states


def groups_op(op, tracks, cfg):
    """One group detection; returns the same fields as ``eval_op``."""
    t0 = time.perf_counter()
    known, comps, states = detect_groups(tracks, op.endtime, cfg)
    elapsed = time.perf_counter() - t0
    ids = [tr.agent_id for tr in known]
    problem = None
    flat = [m for c in comps for m in c]
    if set(ids) != op.known:
        problem = f"{len(ids)} known agents, expected {len(op.known)}"
    elif len(flat) != len(set(flat)) or set(flat) != set(ids):
        problem = "groups do not partition the known agents"
    elif len(states) != len(comps):
        problem = "missing group state"
    digest = _digest(repr([(s.members, s.emotion, s.center_trajectory.positions[-1].tolist())
                           for s in states]))
    return elapsed, len(ids), comps, problem, digest


def match_frac(planted, comps) -> tuple:
    found = {frozenset(c) for c in comps}
    return sum(1 for g in planted if frozenset(g) in found), len(planted)


# ---------------------------------------------------------------------------
# one measured phase

def measure(scen, seconds: float) -> dict:
    """Set up, then run full passes over the workload's operations: the
    first always, each further one while it is expected to end within
    ``seconds`` of the start (judged by the pass before it). Set-up is
    repeated in between (SETUP_SHARE). Times are kept both scaled to the
    nominal host speed (``setup_times``, ``op_times``) and in wall seconds
    (``setup_wall``, ``op_wall``)."""
    cfg = cc.Config(**scen.config)
    params = cc.ForceParams.from_config(cfg, **scen.params)
    clock = HostClock()
    setup_times, setup_wall = [], []
    start = time.perf_counter()
    tracks, scene = timed_setup(scen, cfg, clock, setup_times, setup_wall)
    is_eval = scen.name in EVAL_WORKLOADS
    op_times, op_wall = [], []
    agents = attempted = failed = passes = 0
    problems = []
    first_pass = {}          # endtime -> (records or components, digest)
    pass_start = start
    while True:
        for op in scen.ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                if is_eval:
                    dt, n, result, problem, digest = eval_op(
                        op, tracks, scene, cfg, params, scen)
                else:
                    dt, n, result, problem, digest = groups_op(op, tracks, cfg)
            except Exception as exc:  # a failed operation is counted, not fatal
                dt = time.perf_counter() - t0
                n, result, problem, digest = 0, None, f"raised {exc!r}", "-"
            op_times.append(dt * clock.scale())
            op_wall.append(dt)
            agents += n
            if problem is not None:
                failed += 1
                problems.append(f"endtime {op.endtime}: {problem}")
            if passes == 0:
                first_pass[op.endtime] = (result, digest)
            if sum(setup_wall) < SETUP_SHARE * (time.perf_counter() - start):
                timed_setup(scen, cfg, clock, setup_times, setup_wall)
        passes += 1
        now = time.perf_counter()
        if now + (now - pass_start) > start + seconds:
            break
        pass_start = now
    while len(setup_times) < MIN_SETUPS:
        timed_setup(scen, cfg, clock, setup_times, setup_wall)
    return {"cfg": cfg, "params": params, "tracks": tracks, "scene": scene,
            "setup_times": setup_times, "op_times": op_times,
            "setup_wall": setup_wall, "op_wall": op_wall,
            "host_factor": clock.host_factor(), "agents": agents,
            "attempted": attempted, "failed": failed, "problems": problems,
            "first_pass": first_pass, "passes": passes}


def quality(scen, res) -> dict:
    """Accuracy and group recovery, deterministic per seed. Eval workloads
    take errors from their first pass and check grouping in an untimed
    detection per window; plaza-groups takes group recovery from its first
    pass and errors from untimed windows over disjoint subsets of its
    planted groups."""
    cfg, params = res["cfg"], res["params"]
    found = planted = 0
    problems = []
    if scen.name in EVAL_WORKLOADS:
        recs = [r for rs, _ in res["first_pass"].values() if rs for r in rs]
        for op in scen.ops:
            _, comps, _ = detect_groups(res["tracks"], op.endtime, cfg)
            f, p = match_frac(op.groups, comps)
            found, planted = found + f, planted + p
    else:
        for op in scen.ops:
            comps = res["first_pass"][op.endtime][0] or []
            f, p = match_frac(op.groups, comps)
            found, planted = found + f, planted + p
        recs = []
        for check in scen.checks:
            subset = [tr for tr in res["tracks"] if tr.agent_id in check.known]
            try:
                _, _, got, problem, _ = eval_op(check, subset, res["scene"],
                                                cfg, params, scen)
            except Exception as exc:  # reported as a failed check
                got, problem = [], f"raised {exc!r}"
            recs.extend(got)
            if problem is not None:
                problems.append(f"accuracy window {check.endtime}: {problem}")
    mean = statistics.fmean
    return {
        "min_ade_m": mean(r.min_ade for r in recs) if recs else math.nan,
        "min_fde_m": mean(r.min_fde for r in recs) if recs else math.nan,
        "beats_baseline_frac": (mean(1.0 if r.min_ade <= r.baseline_ade else 0.0
                                     for r in recs) if recs else math.nan),
        "group_match_frac": found / planted if planted else math.nan,
        "scored_agents": len(recs),
        "planted_groups": planted,
        "problems": problems,
    }


def tail(values: list) -> tuple:
    """Highest whole percentile with at least ten samples beyond it (nearest
    rank), or the maximum when there are fewer than eleven samples."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    p = (100 * (n - 10)) // n
    return p, xs[max(0, math.ceil(p * n / 100) - 1)]


def src_line_counts() -> dict:
    return {p.stem: sum(1 for _ in p.open(encoding="utf-8"))
            for p in sorted((SRC / "crowdcast").glob("*.py"))}


# ---------------------------------------------------------------------------
# reporting

def _line(name, value, unit, note=""):
    print(f"  {name:<34} {value:>14.6g} {unit:<6} {note}".rstrip())


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    scen = scenarios.GENERATORS[workload](seed, tiny=tiny)
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print(f"input sha256 {scen.digest()}  "
          + "  ".join(f"{k}={len(v)}B" for k, v in sorted(scen.files.items())))
    print("src lines (informational): "
          + "  ".join(f"{k}={v}" for k, v in src_line_counts().items()))
    if not trace:
        phases = [measure(scen, seconds)]
        metrics, correct = end_to_end(scen, phases[0])
    else:
        base = measure(scen, seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            traced = measure(scen, seconds / 2)
        phases = [base, traced]
        correct = all(base["first_pass"][e][1] == traced["first_pass"][e][1]
                      for e in base["first_pass"])
        print(f"traced result digests equal untraced: {correct}")
        metrics = per_layer(tracer, base, traced)
    for res in phases:
        for p in res["problems"][:10]:
            print(f"FAILED {p}")
    failed = sum(res["failed"] for res in phases)
    return {"correct": correct and failed == 0,
            "attempted": sum(res["attempted"] for res in phases),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def end_to_end(scen, res) -> tuple:
    q = quality(scen, res)
    ops = res["op_times"]
    n = len(ops)
    p, tail_s = tail(ops)
    busy = sum(ops)
    print(f"operations {n} in {res['passes']} full passes of {len(scen.ops)}; "
          f"set-ups {len(res['setup_times'])}")
    wall = res["op_wall"]
    print(f"host factor {res['host_factor']:.4f} (median reference loop time "
          f"over nominal); wall times: setup_s median "
          f"{statistics.median(res['setup_wall']):.6g} s, window_ms.p50 "
          f"{statistics.median(wall) * 1e3:.6g} ms, agents_per_s "
          f"{res['agents'] / sum(wall):.6g} 1/s")
    for e, (_, digest) in sorted(res["first_pass"].items()):
        print(f"  result digest endtime {e}: {digest}")
    failed_frac = res["failed"] / res["attempted"]
    metrics = {
        "setup_s": (statistics.median(res["setup_times"]), "s",
                    f"median of {len(res['setup_times'])} set-ups"),
        "window_ms.p50": (statistics.median(ops) * 1e3, "ms", f"n={n}"),
        "window_ms.tail": (tail_s * 1e3, "ms", f"p{p}, n={n}"),
        "agents_per_s": (res["agents"] / busy, "1/s",
                         f"{res['agents']} agents / {busy:.3f} s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", ""),
        "min_ade_m": (q["min_ade_m"], "m", f"{q['scored_agents']} scored agents"),
        "min_fde_m": (q["min_fde_m"], "m", ""),
        "beats_baseline_frac": (q["beats_baseline_frac"], "frac", ""),
        "group_match_frac": (q["group_match_frac"], "frac",
                             f"{q['planted_groups']} planted groups"),
    }
    print("end-to-end metrics:")
    for name, (value, unit, note) in metrics.items():
        _line(name, value, unit, note)
    _line("failed_frac", failed_frac, "frac",
          f"{res['failed']} of {res['attempted']} (reported as 'failed')")
    problems = q["problems"]
    for p in problems:
        print(f"FAILED {p}")
    correct = not problems and all(math.isfinite(v) for v, _, _ in metrics.values())
    return {k: (v, u) for k, (v, u, _) in metrics.items()}, correct


def per_layer(tracer: Tracer, base: dict, traced: dict) -> dict:
    # layer times are wall times, so shares are of wall operation time; the
    # overhead compares host-scaled rates, so a host slow-down between the
    # halves does not read as tracing cost
    op_s = sum(traced["op_wall"])
    rate_base = base["agents"] / sum(base["op_times"])
    rate_traced = traced["agents"] / sum(traced["op_times"])
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = (1.0 - rate_traced / rate_base, "frac")
    print(f"traced operations {len(traced['op_times'])} taking {op_s:.3f} s; "
          f"untraced {len(base['op_times'])}")
    print("share of traced operation time by layer:")
    for layer, share in sorted(tracer.layer_shares(op_s).items(),
                               key=lambda kv: -kv[1]):
        print(f"  {layer:<16} {share:7.1%}")
    print(f"not run by any workload: {', '.join(UNUSED_MODULES)}")
    print("per-layer metrics:")
    for name, (value, unit) in metrics.items():
        _line(name, value, unit)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
