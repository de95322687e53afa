"""Every drawable ``generate`` benchmark operation reproduces its golden digest.

The operations (``erfkit gen`` payloads and sqrt transforms up to f_{32,64})
and their sha256 digests come from ``perfbench/``; a change to any generated
coefficient shows up here without running the benchmark.
"""

import json
import sys
from pathlib import Path

import pytest

import erfkit
import erfkit.cli  # noqa: F401  (run_op reaches the CLI, render and apps through erfkit)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())["generate"]
OPS = workloads.all_ops("generate")


@pytest.fixture(scope="module")
def state():
    return workloads.setup_state(erfkit, "generate", OPS)


@pytest.mark.parametrize("op", OPS, ids=[op["id"] for op in OPS])
def test_generate_output_matches_golden(state, op):
    out = workloads.run_op(erfkit, state, op)
    assert workloads.digest(out["output"]) == GOLDEN[op["id"]]
