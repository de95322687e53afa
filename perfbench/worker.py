"""One round of a workload in a fresh interpreter; prints one JSON line.

Usage: python3 perfbench/worker.py --workload W --seed S --traced 0|1 --t0 T
       [--check 0|1] [--limit N] [--passes P]

``--t0`` is ``time.monotonic()`` read by the parent just before it started
this process, so set-up time includes interpreter start and ``import
erfkit``. The timed section runs the round's operations one at a time, in
``--passes`` passes over the list, with a speed probe (``speed.py``) before
the first operation and after each one; probes are neither timed nor
traced. The checks run after the timed section, on the first pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_erfkit():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import erfkit
    import erfkit.cli  # noqa: F401  (the CLI also imports apps, render and tables)

    if Path(erfkit.__file__).resolve().parent != src / "erfkit":
        raise ImportError("erfkit imported from %s, not from %s" % (erfkit.__file__, src))
    return erfkit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1,
                        help="run the output checks (0: digests only)")
    parser.add_argument("--limit", type=int, default=0, help="run only the first N operations")
    parser.add_argument("--passes", type=int, default=1, help="passes over the operations")
    args = parser.parse_args(argv)

    ek = import_erfkit()
    import checks
    import workloads
    from speed import probe
    from tracer import Tracer, install, layer_metrics

    ops = workloads.draw(args.workload, args.seed)
    if args.limit:
        ops = ops[: args.limit]
    tracer = Tracer()
    if args.traced:
        install(tracer, workloads.count_coeffs)
    state = workloads.setup_state(ek, args.workload, ops)

    setup_s = time.monotonic() - args.t0
    records, first_pass = [], []
    before = setup_probe = probe()
    for pass_no in range(args.passes):
        for op in ops:
            # Start each operation from a collected heap, so that a collection
            # of earlier operations' garbage is not charged to this one.
            gc.collect()
            tracer.begin()
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                out, error = workloads.run_op(ek, state, op), ""
            except Exception:
                out, error = None, traceback.format_exc(limit=4)
            latency, op_cpu = time.perf_counter() - start, time.process_time() - cpu_start
            tracer.end()
            after = probe()
            rec = {"id": op["id"], "pass": pass_no, "latency_s": latency, "cpu_s": op_cpu,
                   "probe_s": (before[0] + after[0]) / 2,
                   "probe_cpu_s": (before[1] + after[1]) / 2,
                   "ok": out is not None, "detail": error, "digest": None, "points": 0, "coeffs": 0}
            if out is not None:
                rec["digest"] = workloads.digest(out["output"])
                rec["points"] = out["points"]
            records.append(rec)
            if pass_no == 0:
                first_pass.append((rec, op, out))
            before = after
    wall = sum(rec["latency_s"] for rec in records)
    cpu = sum(rec["cpu_s"] for rec in records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    coeffs = {}
    for rec, op, out in first_pass:
        if out is None:
            continue
        try:
            coeffs[op["id"]] = workloads.op_coeffs(ek, op, out)
            if args.check:
                rec["ok"], rec["detail"] = checks.check_op(ek, op, out, args.seed)
        except Exception:
            rec["ok"], rec["detail"] = False, traceback.format_exc(limit=4)
    for rec in records:
        rec["coeffs"] = coeffs.get(rec["id"], 0)

    layers = None
    if args.traced:
        layers = layer_metrics(tracer, wall)
        cache = ek.transition._REF_GRID_CACHE
        layers["transition.ref_grid_cache.points"] = sum(len(xs) for xs, _ in cache.values())
    print(json.dumps({
        "traced": bool(args.traced),
        "setup_s": setup_s,
        "setup_probe_s": setup_probe[0],
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_mb": rss_mb,
        "ops": records,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
