"""Tests of the benchmark itself, on reduced inputs.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from run import corrected_per_op
from speed import PROBE_REF_S
from tracer import COUNT_METRICS
from workloads import SLOTS, WORKLOADS, all_ops, draw

HERE = Path(__file__).resolve().parent


def worker(workload, seed, traced, limit, check=1):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--traced", str(traced), "--check", str(check), "--limit", str(limit), "--t0", "0"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digests(result):
    return {rec["id"]: rec["digest"] for rec in result["ops"]}


@pytest.fixture(scope="module")
def cold_runs():
    return [worker("certify-cold", 0, traced, limit=2) for traced in (1, 1, 0)]


def test_traced_runs_repeat_counts_and_outputs(cold_runs):
    first, second, _ = cold_runs
    for name in COUNT_METRICS:
        assert first["layers"][name] == second["layers"][name], name
    assert first["layers"]["oracle.erf_ref.calls"] == 220  # 120 + 100 fresh grid points
    assert first["layers"]["transition.reference_grid.misses"] == 2
    assert digests(first) == digests(second)


def test_tracing_changes_no_output(cold_runs):
    traced, _, plain = cold_runs
    assert plain["layers"] is None
    assert digests(traced) == digests(plain)
    assert all(rec["ok"] for run in cold_runs for rec in run["ops"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_passes_every_check(workload):
    result = worker(workload, 7, traced=0, limit=3)
    assert [rec["id"] for rec in result["ops"]] == [op["id"] for op in draw(workload, 7)[:3]]
    bad = [(rec["id"], rec["detail"]) for rec in result["ops"] if not rec["ok"]]
    assert not bad


def test_correction_divides_by_the_adjacent_probe():
    # The same operation timed in a fast and in a twice-as-slow phase.
    rounds = [{"ops": [{"id": "a", "latency_s": 1.0, "probe_s": PROBE_REF_S},
                       {"id": "a", "latency_s": 2.0, "probe_s": 2 * PROBE_REF_S},
                       {"id": "b", "latency_s": 0.5, "probe_s": 4 * PROBE_REF_S}]}]
    assert corrected_per_op(rounds, "latency_s", "probe_s") == {"a": 1.0, "b": 0.125}


def test_seeds_draw_same_slots():
    for workload in WORKLOADS:
        assert draw(workload, 3) == draw(workload, 3)
        default = [op["id"] for op in draw(workload, 0)]
        assert default == [make(band[0])["id"] for make, band, *_ in SLOTS[workload]]
        drawn = {op["id"] for op in draw(workload, 11)}
        assert drawn <= {op["id"] for op in all_ops(workload)}
        assert len(draw(workload, 11)) == len(SLOTS[workload])


def test_golden_covers_every_drawable_operation():
    golden = json.loads((HERE / "golden.json").read_text())
    for workload in WORKLOADS:
        assert set(golden[workload]) == {op["id"] for op in all_ops(workload)}


def test_run_prints_contract_line():
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "generate", "--seed", "5",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for m in bench["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "generate", "--seed", "0",
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"]
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in bench["per_layer"]}
    for m in bench["per_layer"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    # generation dominates this workload
    shares = {k: v["value"] for k, v in last["metrics"].items() if k.startswith("layer.")}
    assert max(shares, key=shares.get) == "layer.generation.self_frac"
