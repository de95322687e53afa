"""Machine-speed probe used to correct timings on a shared host.

The host this benchmark was defined on gives it 2 vCPUs shared with other
tenants, and their speed switches between two levels about 1.6x apart in
phases that last from seconds to minutes. Wall and CPU time slow alike, so
neither a median nor a minimum over one run removes a slow phase that
covers the run.

``probe`` runs a fixed piece of pure-Python work (big-integer multiply and
shift as in mpmath's python backend, ``Fraction`` sums as in exact
generation, dict and tuple traffic as in the interpreter glue) that uses
neither erfkit nor mpmath, so no change to either can change it. It is run
right before and right after each timed operation. An operation's corrected
latency is its measured latency times ``PROBE_REF_S`` over the mean of the
two probes next to it: the time it would take at the speed at which one
probe takes ``PROBE_REF_S`` seconds.
"""

from __future__ import annotations

import time
from fractions import Fraction

PROBE_REF_S = 0.006
_X = (1 << 127) + 0x9E3779B97F4A7C15


def _work() -> int:
    acc = 1
    for i in range(12000):
        acc = ((acc * _X) >> 126) + i
        if acc.bit_length() > 400:
            acc >>= 200
    total = Fraction(0)
    for i in range(1, 250):
        total += Fraction(i, i * i + 1)
    table = {}
    for i in range(9000):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + i
    return acc ^ total.denominator ^ len(table)


def probe() -> tuple:
    """Run the fixed probe work once; returns (wall seconds, CPU seconds)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    _work()
    return time.perf_counter() - wall0, time.process_time() - cpu0
