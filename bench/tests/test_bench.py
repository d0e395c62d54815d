"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostclock  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    out = _bench(workload, 0)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert f"input sha256 {scenarios.GENERATORS[workload](3, tiny=True).digest()}" \
        in out.stdout


def test_traced_run_prints_every_per_layer_metric():
    out = _bench("bottleneck", 1)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert "traced result digests equal untraced: True" in out.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_input_digest(workload):
    gen = scenarios.GENERATORS[workload]
    assert gen(5, tiny=True).digest() == gen(5, tiny=True).digest()
    assert gen(5, tiny=True).digest() != gen(6, tiny=True).digest()


def _bindings() -> dict:
    """Every crowdcast module attribute that binds a traced function."""
    originals = {id(getattr(sys.modules[m], n)) for m, n in TRACED.values()}
    return {(mod.__name__, attr): val
            for mod in list(sys.modules.values())
            if getattr(mod, "__name__", "").startswith("crowdcast")
            for attr, val in vars(mod).items() if id(val) in originals}


def test_wrappers_removed_after_traced_run():
    before = _bindings()
    assert ("crowdcast.pipeline", "build_intimacy_graph") in before
    assert ("crowdcast.evaluate", "build_database") in before
    tracer = Tracer()
    with tracer.installed():
        inside = {key: getattr(sys.modules[key[0]], key[1]) for key in before}
        assert all(inside[k] is not before[k] for k in before)
        run.measure(scenarios.bottleneck(3, tiny=True), 0.0)
    assert tracer.calls["predict_group_trajectory"] > 0
    after = {key: getattr(sys.modules[key[0]], key[1]) for key in before}
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", ["concourse", "plaza-groups"])
def test_traced_results_equal_untraced(workload):
    scen = scenarios.GENERATORS[workload](4, tiny=True)
    plain = run.measure(scen, 0.0)
    with Tracer().installed():
        traced = run.measure(scen, 0.0)
    digests = {e: d for e, (_, d) in plain["first_pass"].items()}
    assert digests == {e: d for e, (_, d) in traced["first_pass"].items()}
    assert plain["failed"] == traced["failed"] == 0


def test_host_clock_scales_by_neighbouring_reference_times(monkeypatch):
    refs = iter([0.010, 0.030, 0.015])
    monkeypatch.setattr(hostclock, "reference_s", lambda: next(refs))
    clock = hostclock.HostClock()
    assert clock.scale() == pytest.approx(hostclock.REF_S / 0.020)
    assert clock.scale() == pytest.approx(hostclock.REF_S / 0.0225)
    assert clock.host_factor() == pytest.approx(0.015 / hostclock.REF_S)


def test_measure_keeps_scaled_and_wall_times():
    res = run.measure(scenarios.plaza(3, tiny=True), 0.0)
    assert len(res["op_times"]) == len(res["op_wall"]) == res["attempted"]
    assert len(res["setup_times"]) == len(res["setup_wall"]) >= run.MIN_SETUPS
    assert all(t > 0 for t in res["op_times"] + res["setup_times"])


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("concourse", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
