"""Seeded op batches for the two benchmark workloads.

Every op is a CLI invocation (``argv`` plus the JSON text fed on stdin) and
an ``expect`` record the checker needs: the benchmark's own integer form of
the system and the verdict the generator has certified.  The batch layout
(which sizes appear, how often) is fixed per workload; the seed only draws
the contents, so the cost of a batch barely moves between seeds.

The generator keeps only inputs whose status it has certified itself:

* LR covers are essential covers by construction; the program's
  ``construct.lr_cover`` is compared against the benchmark's own rows.
* Random systems are kept only once the generator has found an uncovered
  vertex with its own integer evaluation.
* Disjoint-support plank systems with mu = half the row sum miss the zero
  vertex.  They are also kept only when the small-column-norm precondition
  of the plank finder holds, recomputed here with a margin, because that is
  the hypothesis under which the rounding stage applies.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

WORKLOADS = ("sweep", "refute")

# Every batch holds at least MIN_OPS distinct ops: the per-op latencies are
# each op's fastest repetition in the run, so the p90 needs 100 distinct ops
# to leave 10 beyond it.  Ops are kept short (most under 40 ms, none over
# 0.3 s) and a batch takes 1.5 to 2 s, so a run repeats each op 25 to 35
# times.  On a busy shared host the quiet stretches are short: an op finds
# one in some repetition only if it is short and repeated often.  The
# layouts sort by cost into a cheap bottom group (about 40 ops), a group of
# like cost around the p50, a group of like cost around the p90, and a few
# larger ops on top.  Comments give each group's cost and rank range.
MIN_OPS = 100

# sweep = verify on LR covers and dense systems + exact and sampled
# anti-concentration: the two 2^n enumerations, the Gray sweep in cube and
# subset_sum_counts in anticonc.
# Dense random verify systems (every row touches every column): (k, n, copies).
VERIFY_DENSE = (
    (2, 12, 4), (3, 12, 4), (4, 12, 3), (5, 12, 3), (6, 12, 3), (8, 12, 3),  # < 8 ms, bottom
    (2, 14, 2), (3, 14, 2), (4, 14, 2), (5, 14, 2), (6, 14, 1), (8, 14, 1),  # 8-18 ms
    (8, 16, 1),  # ~66 ms, top
)
# LR covers: (n, permutations), each sent plain and rescaled; n = 14 is in
# the p50 group (~9 ms, ranks 41-70), n = 16 in the p90 group (~26 ms, ranks
# 81-101).  The largest goes once, unrescaled (~0.1 s, top).
VERIFY_LR = ((14, 8), (16, 5))
VERIFY_LR_LARGE = (18,)
# (family, dimension, copies).  "ones" and "small" vectors have O(d)
# distinct subset sums (< 4 ms, bottom); "pow2" and "rand" have 2^d.
ANTICONC_SMALL = (("ones", 12, 2), ("ones", 16, 2), ("ones", 20, 2),
                  ("small", 12, 2), ("small", 16, 1), ("small", 20, 1))  # atom-prob and window each
ANTICONC_EXACT = (("pow2", 12, 8), ("rand", 12, 6),  # p50 group (~10 ms), then ~22 ms
                  ("pow2", 16, 1))  # atom-prob; ~0.15 s, top; its 2^16-entry dict sets peak memory
ANTICONC_WINDOW = (("pow2", 12),)  # ~34 ms
ANTICONC_SAMPLED = (("ones", 16, 1), ("small", 20, 1), ("pow2", 14, 1), ("rand", 12, 1),
                    ("rand", 16, 1))  # atom-prob and window each, 23-40 ms: the p90 group

# refute = refute on criterion-08-style random systems, on disjoint-support
# plank systems with a tiny W, and on LR covers, which must fail soundly.
# Random systems: (k, n, copies).  The grid starts at n = 36: at n = 30 about
# one system in six leaves |N3| <= 24, and refute then sweeps the 2^|N3|
# subcube exhaustively (seconds per op), which makes the batch cost swing by
# seed.  The LR covers exercise that sweep at bounded size.  Even at n = 36
# a (6, 36) system now and then leaves |N3| = 20..24 (2^24 vertices take 8 s),
# so the random systems are sent with --cap 16: an N3 subcube of more than 16
# columns is sampled, as it is above the default cap of 24.
REFUTE_CAP = "16"
REFUTE_DENSE = (
    (6, 36, 16),  # ~31 ms: the p90 group, ranks 99-115
    (8, 40, 1), (12, 60, 1), (24, 60, 1),  # 55-290 ms, top
)
REFUTE_DENSE_LR = ((4, 16), (8, 16), (12, 16), (16, 1))  # (n, copies); < 8 ms, bottom, but n = 16 ~36 ms
DENSITY = 0.35
# Plank systems: (k rows, support per row, copies); support < 16k keeps the
# dense-column filter from collapsing the columns into N3.
REFUTE_PLANKS = (
    (4, 16, 24),  # ~12 ms: the p50 group, ranks 49-72
    (4, 32, 26),  # ~19 ms
    (8, 24, 1), (8, 48, 1),  # 43-89 ms, top
)
PLANK_ENTRIES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
PLANK_W = "1/1000000"
PLANK_MARGIN = 0.95  # generator's precondition bound: lhs <= 0.95 < 1
SAMPLED_TRIALS = 2000


@dataclass(frozen=True)
class Op:
    """One CLI call with everything the checker needs to judge its output."""

    kind: str
    argv: tuple[str, ...]
    stdin: str
    expect: dict


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def integerize(rows: Sequence[Sequence[Fraction]], mu: Sequence[Fraction]) -> tuple[list[list[int]], list[int]]:
    """Clear denominators row by row; the integer system has the same solutions."""
    int_rows, int_mu = [], []
    for row, m in zip(rows, mu):
        mult = math.lcm(m.denominator, *(c.denominator for c in row))
        int_rows.append([int(c * mult) for c in row])
        int_mu.append(int(m * mult))
    return int_rows, int_mu


def satisfied_rows(int_rows: Sequence[Sequence[int]], int_mu: Sequence[int], bits: Sequence[int]) -> list[int]:
    """Indices of the rows whose hyperplane contains the vertex."""
    ones = [j for j, b in enumerate(bits) if b]
    return [i for i, (row, m) in enumerate(zip(int_rows, int_mu)) if sum(row[j] for j in ones) == m]


def _system_op(kind: str, argv: Sequence[str], rows, mu, **expect) -> Op:
    n = len(rows[0])
    text = json.dumps({"n": n, "rows": [[fmt(c) for c in r] for r in rows], "mu": [fmt(m) for m in mu]})
    int_rows, int_mu = integerize(rows, mu)
    return Op(kind, tuple(argv), text, dict(expect, n=n, int_rows=int_rows, int_mu=int_mu))


def _reference_lr(n: int) -> tuple[list[list[Fraction]], list[Fraction]]:
    rows = [[Fraction(1)] * n]
    mu = [Fraction(n, 2)]
    for i in range(n // 2):
        row = [Fraction(0)] * n
        row[2 * i], row[2 * i + 1] = Fraction(1), Fraction(-1)
        rows.append(row)
        mu.append(Fraction(0))
    return rows, mu


def _lr_rows(n: int, lr_cover: Callable) -> tuple[list[list[Fraction]], list[Fraction]]:
    """The program's LR cover, checked row for row against the reference."""
    system = lr_cover(n)
    rows, mu = [list(r) for r in system.rows], list(system.mu)
    if (rows, mu) != _reference_lr(n):
        raise ValueError(f"construct.lr_cover({n}) differs from the reference construction")
    return rows, mu


def _permuted(rng: random.Random, rows, mu):
    cols = list(range(len(rows[0])))
    rng.shuffle(cols)
    order = list(range(len(rows)))
    rng.shuffle(order)
    return [[rows[i][j] for j in cols] for i in order], [mu[i] for i in order]


def _certify_uncovered(rng: random.Random, rows, mu, tries: int = 400) -> list[int] | None:
    """An uncovered vertex found by the benchmark's own evaluation, or None."""
    int_rows, int_mu = integerize(rows, mu)
    n = len(rows[0])
    for _ in range(tries):
        bits = [rng.getrandbits(1) for _ in range(n)]
        if not satisfied_rows(int_rows, int_mu, bits):
            return bits
    return None


def _dense_system(rng: random.Random, k: int, n: int):
    """Random non-cover in which every row touches every column."""
    while True:
        rows = [[Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)) for _ in range(n)] for _ in range(k)]
        mu = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)]
        if _certify_uncovered(rng, rows, mu) is not None:
            return rows, mu


def _sparse_system(rng: random.Random, k: int, n: int):
    """Criterion-08 family: density 0.35, entries p/q with |p| <= 3, q <= 4."""
    while True:
        rows = []
        while len(rows) < k:
            row = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < DENSITY else Fraction(0)
                   for _ in range(n)]
            if any(row):
                rows.append(row)
        mu = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
        if _certify_uncovered(rng, rows, mu) is not None:
            return rows, mu


def _plank_system(rng: random.Random, k: int, s: int):
    """Disjoint supports of size s, entries in {1/4, 1/2, 3/4}, mu = row sum / 2.

    Columns touch one row each (alpha = 1), so the precondition reads
    2 * max_j v_ij^2 / ||v_i||^2 * log(4k) <= 1 row by row.
    """
    n = k * s
    layout = list(range(n))
    rng.shuffle(layout)
    beta_cap = PLANK_MARGIN / (2.0 * math.log(4.0 * k))
    rows, mu = [], []
    for i in range(k):
        while True:
            entries = [rng.choice(PLANK_ENTRIES) for _ in range(s)]
            if float(max(entries) ** 2 / sum(c * c for c in entries)) <= beta_cap:
                break
        row = [Fraction(0)] * n
        for j, c in zip(layout[i * s:(i + 1) * s], entries):
            row[j] = c
        rows.append(row)
        mu.append(sum(entries) / 2)
    return rows, mu


def _verify(rng: random.Random, lr_cover: Callable) -> list[Op]:
    ops: list[Op] = []
    argv = lambda: ("verify", "--input", "-", "--seed", str(rng.randrange(1 << 30)))
    for n, copies in VERIFY_LR:
        base_rows, base_mu = _lr_rows(n, lr_cover)
        for _ in range(copies):
            rows, mu = _permuted(rng, base_rows, base_mu)
            twin = len(ops)
            ops.append(_system_op("verify-lr", argv(), rows, mu, essential=True))
            factors = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in rows]
            scaled = [[f * c for c in r] for f, r in zip(factors, rows)]
            ops.append(_system_op("verify-lr-rescaled", argv(), scaled, [f * m for f, m in zip(factors, mu)],
                                  essential=True, twin=twin))
    for n in VERIFY_LR_LARGE:
        rows, mu = _permuted(rng, *_lr_rows(n, lr_cover))
        ops.append(_system_op("verify-lr", argv(), rows, mu, essential=True))
    for k, n, copies in VERIFY_DENSE:
        for _ in range(copies):
            ops.append(_system_op("verify-dense", argv(), *_dense_system(rng, k, n), essential=False))
    return ops


def _refute(rng: random.Random, lr_cover: Callable) -> list[Op]:
    ops = []
    argv = lambda: ("refute", "--input", "-", "--seed", str(rng.randrange(1 << 30)))
    for k, n, copies in REFUTE_DENSE:
        for _ in range(copies):
            ops.append(_system_op("refute-dense", argv() + ("--cap", REFUTE_CAP), *_sparse_system(rng, k, n),
                                  cover=False))
    for n, copies in REFUTE_DENSE_LR:
        rows, mu = _lr_rows(n, lr_cover)
        for _ in range(copies):
            ops.append(_system_op("refute-lr", argv(), *_permuted(rng, rows, mu), cover=True))
    for k, s, copies in REFUTE_PLANKS:
        for _ in range(copies):
            plank_argv = ("refute", "--input", "-", "--seed", str(rng.randrange(1 << 30)), "--w", PLANK_W)
            ops.append(_system_op("refute-plank", plank_argv, *_plank_system(rng, k, s), cover=False))
    return ops


def _anticonc_vector(rng: random.Random, family: str, d: int) -> list[Fraction]:
    if family == "ones":
        return [Fraction(1)] * d
    if family == "small":
        return [Fraction(rng.randint(1, 3)) for _ in range(d)]
    if family == "pow2":
        vec = [Fraction(2**i) for i in range(d)]
        rng.shuffle(vec)
        return vec
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 99)) for _ in range(d)]


def _anticonc(rng: random.Random) -> list[Op]:
    ops = []
    seed = lambda: str(rng.randrange(1 << 30))

    def atom(family, d, mode_args=()):
        vec = _anticonc_vector(rng, family, d)
        # A target that is some subset sum, so the probability is nonzero.
        a = sum((c for c in vec if rng.getrandbits(1)), Fraction(0))
        text = json.dumps({"vector": [fmt(c) for c in vec], "a": fmt(a)})
        kind = "atom-sampled" if mode_args else "atom-exact"
        argv = ("atom-prob", "--input", "-", "--seed", seed(), *mode_args)
        return Op(kind, argv, text, {"family": family, "vector": vec, "a": a})

    def window(family, d, mode_args=()):
        vec = _anticonc_vector(rng, family, d)
        text = json.dumps({"vector": [fmt(c) for c in vec]})
        kind = "window-sampled" if mode_args else "window-exact"
        argv = ("window", "--input", "-", "--seed", seed(), *mode_args)
        return Op(kind, argv, text, {"family": family, "vector": vec})

    sampled = ("--mode", "sampled", "--trials", str(SAMPLED_TRIALS))
    for family, d, copies in ANTICONC_SMALL:
        ops += [op for _ in range(copies) for op in (atom(family, d), window(family, d))]
    ops += [atom(family, d) for family, d, copies in ANTICONC_EXACT for _ in range(copies)]
    ops += [window(family, d) for family, d in ANTICONC_WINDOW]
    for family, d, copies in ANTICONC_SAMPLED:
        ops += [op for _ in range(copies) for op in (atom(family, d, sampled), window(family, d, sampled))]
    return ops


_GENERATORS = {
    "sweep": lambda rng, lr_cover: _verify(rng, lr_cover) + _anticonc(rng),
    "refute": _refute,
}


def generate(workload: str, seed: int, lr_cover: Callable) -> list[Op]:
    """The workload's op batch for this seed."""
    ops = _GENERATORS[workload](random.Random(f"{workload}/{seed}"), lr_cover)
    if len(ops) < MIN_OPS:
        raise ValueError(f"{workload}: {len(ops)} ops in a batch, fewer than {MIN_OPS}")
    return ops
