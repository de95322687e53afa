"""erfkit benchmark: one workload, closed loop, tracing off or on.

Usage (from the repository root):
    python3 perfbench/run.py --workload certify-cold --seed 0 --seconds 36 --trace 0

A run is a sequence of rounds. Each round starts a fresh interpreter (empty
program caches, as one ``erfkit`` invocation), sets up, runs the seeded
operations one at a time (in several passes on the workloads whose caches
allow it) and reports. Rounds repeat until the run has lasted about
``--seconds`` (at least three rounds, four when traced). With ``--trace 1``
rounds alternate untraced and traced, and the per-layer metrics come from
the traced ones.

End-to-end times are corrected for the speed of the shared host with the
probe in ``speed.py``: each sample is scaled by ``PROBE_REF_S`` over the
probe time measured next to it, and each metric is a median over its
samples. The summary also prints the uncorrected medians.

Every operation is checked: the first round runs the seed-independent checks
in ``checks.py``, every round's output digest must equal the first round's,
and outputs with a recorded golden digest must match it. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import PROBE_REF_S, probe
from tracer import COUNT_METRICS
from workloads import PASSES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4
RUN_CAP_S = 140.0  # stop starting rounds after this much wall time
ROUND_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_s_p50": "s",
    "points_per_s": "1/s",
    "coeffs_per_s": "1/s",
}


class BenchmarkError(Exception):
    pass


def environment() -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def run_round(workload, seed, traced, check):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--traced", str(int(traced)), "--check", str(int(check)),
           "--passes", str(PASSES[workload])]
    env = dict(os.environ, PYTHONHASHSEED="0")
    parent_probe, _ = probe()
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError("worker exited %d:\n%s" % (proc.returncode, proc.stderr[-4000:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("worker printed no result:\n%s" % proc.stderr[-4000:])
    result = json.loads(lines[-1])
    result["parent_probe_s"] = parent_probe
    return result


def run_rounds(workload, seed, seconds, trace):
    """Start rounds until the next one would end after ``seconds`` of run time."""
    start = time.monotonic()
    rounds, spans = [], []
    while True:
        traced = trace and len(rounds) % 2 == 1
        began = time.monotonic()
        rounds.append(run_round(workload, seed, traced, check=not rounds))
        spans.append(time.monotonic() - began)
        next_end = time.monotonic() - start + statistics.median(spans)
        if len(rounds) >= (MIN_TRACED_ROUNDS if trace else MIN_ROUNDS) and (
                next_end > seconds or next_end > RUN_CAP_S):
            return rounds


def judge(rounds, golden):
    """Mark each operation record failed or not; returns (attempted, failed, short)."""
    first = {}
    for rec in rounds[0]["ops"]:
        first.setdefault(rec["id"], rec["digest"])
    attempted = failed = short = 0
    for rnd in rounds:
        for rec in rnd["ops"]:
            attempted += 1
            if rec["ok"] and rec["digest"] != first[rec["id"]]:
                rec["ok"], rec["detail"] = False, "output differs from the first round"
            if rec["ok"] and rec["id"] in golden and rec["digest"] != golden[rec["id"]]:
                rec["ok"], rec["detail"] = False, "output differs from the golden digest"
            failed += not rec["ok"]
            short += rec["detail"] == "short-digits"
    return attempted, failed, short


def corrected_per_op(rounds, key, probe_key):
    """Each operation's median speed-corrected sample of ``key`` over a run."""
    samples = {}
    for rnd in rounds:
        for rec in rnd["ops"]:
            samples.setdefault(rec["id"], []).append(rec[key] / rec[probe_key])
    return {op: PROBE_REF_S * statistics.median(v) for op, v in samples.items()}


def end_to_end(rounds):
    med = statistics.median
    latency = corrected_per_op(rounds, "latency_s", "probe_s")
    wall = sum(latency.values())
    first = [rec for rec in rounds[0]["ops"] if rec["pass"] == 0]
    return {
        "wall_s": wall,
        "cpu_s": sum(corrected_per_op(rounds, "cpu_s", "probe_cpu_s").values()),
        # Set-up is bracketed by a probe in the parent just before the
        # worker starts and the worker's first probe just after set-up.
        "setup_s": med(PROBE_REF_S * r["setup_s"] / ((r["parent_probe_s"] + r["setup_probe_s"]) / 2)
                       for r in rounds),
        "peak_rss_mb": med(r["rss_mb"] for r in rounds),
        "op_s_p50": med(latency.values()),
        "points_per_s": sum(o["points"] for o in first) / wall,
        "coeffs_per_s": sum(o["coeffs"] for o in first) / wall,
    }


def uncorrected(rounds):
    """Medians of the measured times, for the summary only."""
    med = statistics.median
    return {
        "wall_s": med(r["wall_s"] for r in rounds),
        "setup_s": med(r["setup_s"] for r in rounds),
        "op_s_p50": med(rec["latency_s"] for r in rounds for rec in r["ops"]),
        "probe_s": med(rec["probe_s"] for r in rounds for rec in r["ops"]),
    }


def per_layer(plain, traced):
    """Per-layer metrics: counts from the first traced round, times as medians."""
    names = list(traced[0]["layers"])
    out = {}
    for name in names:
        values = [r["layers"][name] for r in traced]
        out[name] = values[0] if name in COUNT_METRICS else statistics.median(values)
    wall_plain = sum(corrected_per_op(plain, "latency_s", "probe_s").values())
    wall_traced = sum(corrected_per_op(traced, "latency_s", "probe_s").values())
    out["trace.overhead_frac"] = wall_traced / wall_plain - 1
    return out


def layer_unit(name):
    if name in COUNT_METRICS:
        return "count"
    if name.endswith("_s"):
        return "s"
    return "us" if "us_per_call" in name else "frac"


def counts_agree(traced):
    first = traced[0]["layers"]
    return all(r["layers"][n] == first[n] for r in traced for n in COUNT_METRICS)


def load_golden(workload):
    return json.loads((HERE / "golden.json").read_text())[workload]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "erfkit" / "__init__.py").is_file():
        print("error: %s/src/erfkit is missing; run from an erfkit checkout" % ROOT,
              file=sys.stderr)
        return 2
    env = environment()
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds, args.trace)
    except (BenchmarkError, subprocess.TimeoutExpired, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    attempted, failed, short = judge(rounds, load_golden(args.workload))
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]

    env["loadavg_end"] = list(os.getloadavg())
    print("environment " + json.dumps(env, sort_keys=True))
    print("workload %s seed %d: %d rounds (%d traced), %d operations"
          % (args.workload, args.seed, len(rounds), len(traced), attempted))
    for rnd in rounds:
        for rec in rnd["ops"]:
            if not rec["ok"]:
                print("FAILED %s: %s" % (rec["id"], rec["detail"].strip().splitlines()[-1:]))
    if short:
        print("known defect: %d checked operations print 34-digit values carrying 53-bit "
              "precision (CSV rows / grid coefficients formatted outside workdps)" % short)
    if args.trace:
        if not counts_agree(traced):
            print("FAILED traced rounds disagree on call counts")
            failed += 1
        values = per_layer(plain, traced)
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        for op, value in sorted(corrected_per_op(plain, "latency_s", "probe_s").items(),
                                key=lambda item: item[1]):
            print("  op %-50s %10.6f s" % (op, value))
        values = end_to_end(plain)
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    for name, m in metrics.items():
        print("  %-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-44s %14.6g (%d of %d operations)"
          % ("failed_frac", failed / attempted, failed, attempted))
    print("  samples: %d untraced rounds, %d operation samples of %d operations"
          % (len(plain), sum(len(r["ops"]) for r in plain), len({rec["id"] for rec in plain[0]["ops"]})))
    print("  uncorrected medians: " + ", ".join(
        "%s %.6g s" % item for item in uncorrected(plain).items()))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
