"""Record golden output digests for every operation any seed can draw.

Usage (from the repository root): python3 perfbench/record_golden.py

Runs each operation once, requires its seed-independent check to pass and
writes ``perfbench/golden.json`` ({workload: {operation id: sha256}}). Run it
only on a commit whose outputs are meant to be the reference; a later change
that alters an output must explain why before re-recording.
"""

from __future__ import annotations

import json
import sys

import checks
import workloads
from worker import HERE, import_erfkit


def main() -> int:
    ek = import_erfkit()
    golden = {}
    for workload in workloads.WORKLOADS:
        ops = workloads.all_ops(workload)
        state = workloads.setup_state(ek, workload, ops)
        golden[workload] = {}
        for op in ops:
            out = workloads.run_op(ek, state, op)
            ok, detail = checks.check_op(ek, op, out, 0)
            if not ok:
                print("check failed for %s: %s" % (op["id"], detail), file=sys.stderr)
                return 1
            golden[workload][op["id"]] = workloads.digest(out["output"])
            print(workload, op["id"], flush=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
