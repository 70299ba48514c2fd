"""A fixed pure-Python computation that measures the speed of the host.

The end-to-end times are divided by the time of this computation, measured
in the same batches as the ops, so that they are in units of it (``ref``)
rather than in seconds.  On a shared host the speed of the machine drifts by
up to 1.8x over minutes; a ratio of two times taken side by side drifts far
less.

It never imports the program, so no change to the program moves it.  It does
the kinds of work the program's hot loops do, in the benchmark's own code: a
Gray-code sweep over 2^12 vertices with integer row sums (``cube``),
``Fraction`` accumulation over a column (``decompose``), and a dict of
subset sums (``anticonc``).  One call takes about 7 ms on a 2-vCPU Xeon VM.
"""

from __future__ import annotations

from fractions import Fraction

EVERY = 10  # one reference call after every 10th op of a batch


def _gray_sweep() -> int:
    rows = [[(3 * i + 5 * j) % 7 - 3 for j in range(12)] for i in range(4)]
    mu = [1, -2, 3, 0]
    sums = [0, 0, 0, 0]
    bits = [0] * 12
    uncovered = 0
    for t in range(1, 1 << 12):
        j = (t & -t).bit_length() - 1
        sign = 1 - 2 * bits[j]
        bits[j] ^= 1
        for i in range(4):
            sums[i] += sign * rows[i][j]
        if all(s != m for s, m in zip(sums, mu)):
            uncovered += 1
    return uncovered


def _fraction_scan() -> tuple[Fraction, int]:
    col = [Fraction((i * 7) % 11 - 5, (i % 4) + 1) for i in range(200)]
    acc = Fraction(0)
    kept = {}
    for r in range(6):
        for i, c in enumerate(col):
            acc += c * c
            if i % 16 == 0:
                kept[(r, i)] = acc
    return acc, len(kept)


def _subset_sums() -> int:
    counts = {0: 1}
    for v in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        grown = dict(counts)
        for s, c in counts.items():
            grown[s + v] = grown.get(s + v, 0) + c
        counts = grown
    return len(counts)


def reference_work() -> tuple:
    return _gray_sweep(), _fraction_scan(), _subset_sums()
