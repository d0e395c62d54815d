"""Per-layer tracing for the benchmark, applied from outside the program.

``Tracer.installed()`` replaces each traced public function with a timing
wrapper in every crowdcast module that binds it, so calls are caught where
the caller imported the name (``pipeline.build_intimacy_graph``,
``evaluate.build_database``, ...). Leaving the context puts every original
back. Each wrapper records the call's duration and its self time (duration
minus the traced calls made inside it); a per-function hook then derives
work counters from the call's arguments and result. Hook time is kept out
of the enclosing call's self time.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# traced functions: key -> (defining module, function name)
TRACED = {
    "parse_obsmat": ("crowdcast.ingest", "parse_obsmat"),
    "to_canonical": ("crowdcast.ingest", "to_canonical"),
    "read_canonical_csv": ("crowdcast.core", "read_canonical_csv"),
    "parse_scene": ("crowdcast.core", "parse_scene"),
    "build_database": ("crowdcast.core", "build_database"),
    "known_window_tracks": ("crowdcast.pipeline", "known_window_tracks"),
    "predict_at_endtime": ("crowdcast.pipeline", "predict_at_endtime"),
    "build_intimacy_graph": ("crowdcast.grouping", "build_intimacy_graph"),
    "extract_groups": ("crowdcast.grouping", "extract_groups"),
    "make_group_state": ("crowdcast.grouping", "make_group_state"),
    "candidate_destinations": ("crowdcast.retrieval", "candidate_destinations"),
    "predict_group_trajectory": ("crowdcast.dynamics", "predict_group_trajectory"),
    "reconstruct_members": ("crowdcast.dynamics", "reconstruct_members"),
    "constant_velocity_baseline": ("crowdcast.dynamics", "constant_velocity_baseline"),
    "min_over_candidates": ("crowdcast.evaluate", "min_over_candidates"),
    "run_experiment": ("crowdcast.evaluate", "run_experiment"),
}

# modules no workload runs; reported, never traced
UNUSED_MODULES = ("cli", "plotting")


def _reach_component(pos: np.ndarray, vmax: np.ndarray, reach: float,
                     horizon: float) -> int:
    """Size of node 0's connected component in the graph with an edge where
    |p_i - p_j| < reach + (vmax_i + vmax_j) * horizon."""
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    adj = d < reach + (vmax[:, None] + vmax[None, :]) * horizon
    seen = np.zeros(len(pos), dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        nxt = adj[frontier].any(axis=0) & ~seen
        seen |= nxt
        frontier = nxt
    return int(seen.sum())


class Tracer:
    """Busy time, self time, call counts and work counters per traced
    function, kept in memory for one run."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self._child = []           # child time accumulated per open span
        self._hooks = {
            "parse_obsmat": self._on_parse_obsmat,
            "to_canonical": self._on_to_canonical,
            "read_canonical_csv": self._on_read_csv,
            "build_database": self._on_build_database,
            "known_window_tracks": self._on_known_window,
            "build_intimacy_graph": self._on_graph,
            "make_group_state": self._on_group_state,
            "candidate_destinations": self._on_candidates,
            "predict_group_trajectory": self._on_rollout,
            "reconstruct_members": self._on_reconstruct,
            "run_experiment": self._on_experiment,
        }

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, key: str, fn):
        hook = self._hooks.get(key)
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = self._child.pop()
                self.busy[key] += dur
                self.self_time[key] += dur - child
                self.calls[key] += 1
            if hook is not None:
                h0 = time.perf_counter()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, out)
                dur += time.perf_counter() - h0
            if self._child:
                self._child[-1] += dur
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function in every loaded crowdcast module that
        binds it; restore the originals on exit."""
        patched = []
        try:
            for key, (mod_name, name) in TRACED.items():
                original = getattr(sys.modules[mod_name], name)
                wrapper = self._wrap(key, original)
                for mod in list(sys.modules.values()):
                    mname = getattr(mod, "__name__", "")
                    if mname != "crowdcast" and not mname.startswith("crowdcast."):
                        continue
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    # -- counters ----------------------------------------------------------

    def _on_parse_obsmat(self, a, rows):
        self.count["raw_rows"] += len(rows)

    def _on_to_canonical(self, a, out):
        self.count["tracks"] += out[1].n_tracks

    def _on_read_csv(self, a, tracks):
        self.count["csv_rows"] += sum(len(tr) for tr in tracks)

    def _on_build_database(self, a, db):
        self.count["db_samples"] += len(db)

    def _on_known_window(self, a, known):
        self.count["known_agents"] += len(known)

    def _on_graph(self, a, graph):
        n = len(graph.nodes)
        self.count["pairs"] += n * (n - 1) // 2
        self.count["edges"] += len(graph.edges)

    def _on_group_state(self, a, state):
        self.count["groups"] += 1

    def _on_candidates(self, a, cands):
        self.count["db_samples_queried"] += len(a["db"])
        self.count["retrieved"] += len(cands) - 1
        self.count["k_slots"] += a["cfg"].k_candidates

    def _on_rollout(self, a, traj):
        params, scene, others = a["params"], a["scene"], a["others"]
        groups = 1 + len(others)
        subs = a["steps"] * params.substeps
        self.count["substeps"] += subs
        self.count["body_substeps"] += groups * subs
        self.count["pair_evals"] += groups * groups * subs
        self.count["obstacle_checks"] += (groups * subs
                                          * (len(scene.segments) + len(scene.polygons)))
        if not others:
            return
        pos = np.vstack([np.asarray(a["start"], dtype=np.float64)]
                        + [np.asarray(g.pos, dtype=np.float64) for g in others])
        vmax = np.array([params.max_speed_for(a["speed"])]
                        + [params.max_speed_for(g.speed) for g in others])
        d0 = np.linalg.norm(pos[1:] - pos[0], axis=1)
        self.count["other_pairs"] += len(others)
        self.count["in_range_pairs"] += int(np.sum(d0 < params.neighborhood_range))
        horizon = a["steps"] * a["cfg"].step_duration
        self.count["reachable"] += _reach_component(
            pos, vmax, params.neighborhood_range, horizon) - 1

    def _on_reconstruct(self, a, members):
        self.count["members"] += len(members)

    def _on_experiment(self, a, report):
        self.count["agents_scored"] += sum(r.n_agents for r in report.rows)
        self.count["agents_skipped"] += sum(r.n_skipped for r in report.rows)

    # -- report ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics, name -> (value, unit)."""
        b, c, n = self.busy, self.count, self.calls

        def ratio(x, y, scale=1.0):
            return scale * x / y if y else 0.0

        graph_s = b["build_intimacy_graph"] + b["extract_groups"]
        m = {
            "ingest.parse_s": (b["parse_obsmat"], "s"),
            "ingest.canonical_s": (b["to_canonical"], "s"),
            "ingest.raw_rows": (c["raw_rows"], "count"),
            "ingest.tracks": (c["tracks"], "count"),
            "core.read_csv_s": (b["read_canonical_csv"], "s"),
            "core.scene_s": (b["parse_scene"], "s"),
            "core.csv_rows": (c["csv_rows"], "count"),
            "core.db_build_s": (b["build_database"], "s"),
            "core.db_builds": (n["build_database"], "count"),
            "core.db_samples": (c["db_samples"], "count"),
            "core.db_build_us_per_sample": (
                ratio(b["build_database"], c["db_samples"], 1e6), "us"),
            "pipeline.window_cut_s": (b["known_window_tracks"], "s"),
            "pipeline.known_agents": (c["known_agents"], "count"),
            "pipeline.self_s": (self.self_time["predict_at_endtime"], "s"),
            "grouping.graph_s": (graph_s, "s"),
            "grouping.pairs": (c["pairs"], "count"),
            "grouping.edges": (c["edges"], "count"),
            "grouping.edge_frac": (ratio(c["edges"], c["pairs"]), "frac"),
            "grouping.us_per_pair": (
                ratio(b["build_intimacy_graph"], c["pairs"], 1e6), "us"),
            "grouping.state_s": (b["make_group_state"], "s"),
            "grouping.groups": (c["groups"], "count"),
            "retrieval.query_s": (b["candidate_destinations"], "s"),
            "retrieval.queries": (n["candidate_destinations"], "count"),
            "retrieval.ms_per_query": (
                ratio(b["candidate_destinations"], n["candidate_destinations"], 1e3),
                "ms"),
            "retrieval.db_samples_per_query": (
                ratio(c["db_samples_queried"], n["candidate_destinations"]), "count"),
            "retrieval.hit_frac": (ratio(c["retrieved"], c["k_slots"]), "frac"),
            "dynamics.rollout_s": (b["predict_group_trajectory"], "s"),
            "dynamics.rollouts": (n["predict_group_trajectory"], "count"),
            "dynamics.substeps": (c["substeps"], "count"),
            "dynamics.body_substeps": (c["body_substeps"], "count"),
            "dynamics.pair_evals": (c["pair_evals"], "count"),
            "dynamics.us_per_body_substep": (
                ratio(b["predict_group_trajectory"], c["body_substeps"], 1e6), "us"),
            "dynamics.in_range_pair_frac": (
                ratio(c["in_range_pairs"], c["other_pairs"]), "frac"),
            "dynamics.reachable_frac": (
                ratio(c["reachable"], c["other_pairs"]), "frac"),
            "dynamics.obstacle_checks": (c["obstacle_checks"], "count"),
            "dynamics.reconstruct_s": (b["reconstruct_members"], "s"),
            "dynamics.members": (c["members"], "count"),
            "evaluate.score_s": (
                b["min_over_candidates"] + b["constant_velocity_baseline"], "s"),
            "evaluate.agents_scored": (c["agents_scored"], "count"),
            "evaluate.agents_skipped": (c["agents_skipped"], "count"),
            "evaluate.self_s": (self.self_time["run_experiment"], "s"),
        }
        return m

    def layer_shares(self, op_seconds: float) -> dict:
        """Share of traced operation time per layer (set-up layers excluded)."""
        b = self.busy
        layers = {
            "core.db_build": b["build_database"],
            "pipeline": b["known_window_tracks"] + self.self_time["predict_at_endtime"],
            "grouping": (b["build_intimacy_graph"] + b["extract_groups"]
                         + b["make_group_state"]),
            "retrieval": b["candidate_destinations"],
            "dynamics": b["predict_group_trajectory"] + b["reconstruct_members"],
            "evaluate": (b["min_over_candidates"] + b["constant_velocity_baseline"]
                         + self.self_time["run_experiment"]),
        }
        return {k: (v / op_seconds if op_seconds else 0.0) for k, v in layers.items()}
