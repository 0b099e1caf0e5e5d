"""A fixed amount of work that times the host's speed, not the program's.

    python3 perfbench/reference.py

The harness runs this child next to every workload child and divides the
workload's times by its times, so that a host that runs everything slower for
a minute moves both and not their ratio.  It never imports ``saddlescape``: no
change to the program moves it.  Its work mixes the kinds the workloads do:
interpreter start and numpy import, a Python loop over 5-element arrays (like
the table's escape loops), a scalar Python loop, numpy passes over a 16 MB
working set, fresh pages touched and freed, and CSV-style text formatting.  It exits nonzero if the work's result is not the expected one.
"""

from __future__ import annotations

import math
import sys

import numpy as np

SMALL_STEPS = 30_000
LOOP_STEPS = 400_000
PASSES = 15
PAGE_ROUNDS = 2
ROWS = 60_000
EXPECTED_TEXT_BYTES = 1_474_274
EXPECTED_ESCAPES = 517


def main() -> int:
    # Momentum steps on 5 negative eigenvalues, restarted on each escape.
    values = np.array([-0.01, -0.02, -0.03, -0.04, -0.05])
    start = np.full(5, 1e-3)
    x, xp, escapes = start.copy(), start.copy(), 0
    for _ in range(SMALL_STEPS):
        d = x - xp
        y = x + 0.9 * d
        xp, x = x, x - 0.5 * (values * y) + 0.9 * d
        if math.sqrt(float(x @ x)) >= 1.0:
            x, xp, escapes = start.copy(), start.copy(), escapes + 1

    b, x, series = 0.0, 1.0, []
    for k in range(LOOP_STEPS):
        b = 0.5 * b + 0.001 * (k % 7)
        x = x * (1.0 + 1e-7) - b * 1e-9
        series.append(x)

    a = np.arange(2_000_000, dtype=np.float64)
    scratch = np.empty_like(a)
    for _ in range(PASSES):
        np.multiply(a, 1.0000001, out=scratch)
        np.add(scratch, a, out=a)

    touched = 0
    for _ in range(PAGE_ROUNDS):
        block = np.ones(12_500_000)
        block[::512] += 1.0
        touched += int(block[::512].sum())
        del block

    text = "".join(f"{k},{v!r}\n" for k, v in enumerate(series[:ROWS]))
    ok = escapes == EXPECTED_ESCAPES and len(text) == EXPECTED_TEXT_BYTES and touched == PAGE_ROUNDS * 2 * 24_415
    return 0 if ok and np.isfinite(a).all() else 1


if __name__ == "__main__":
    sys.exit(main())
