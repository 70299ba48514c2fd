"""Exhaustive and sampled evaluation of hyperplane membership over {0,1}^n.

Both engines read ``CoveringSystem.cleared_rows`` (each row and its mu_i
scaled by one positive D, so membership is unchanged) and run on plain
Python integers from there: the whole sweep is exact.

A reported vertex is checked again by ``rows_through``, independently of
both engines: it reads the rational ``system.rows`` and ``system.mu``, never
the cleared rows, and makes one exact pass per row over a whole batch of
vertices (each row scaled by its own least common denominator, then one
integer subset sum per vertex).  ``essential`` passes all of a sweep's
witnesses in one batch; the sampler and ``refute`` pass one vertex.

Coordinate j of a vertex is stored at bit (n-1-j) of its integer code, which
makes numeric order on codes equal to lexicographic order on bit tuples; the
reported witness is therefore the lexicographically smallest uncovered vertex.

The exhaustive engine splits a code into a high part y (the first n - l
coordinates) and a low part x (the last l), code = (y << l) | x.  For each
row it tabulates, per low partial sum s, the 2^l-bit mask of low codes whose
sum is s.  A high code y then puts the row's vertices of block y in the mask
stored under mu - (high partial sum of y), so one dict lookup per row decides
a block of 2^l vertices.  OR-ing the masks of a block gives its covered
vertices, and tracking the bits hit at least twice gives the vertices on
exactly one row (the exclusive witnesses of the essential-cover axiom E3);
both run in C builtins (``accumulate``, ``reduce``) over the block's masks.

The split l is chosen per system (``_split_further``): the tables grow one
low coordinate at a time, all rows together, for as long as the entries one
more coordinate would double, weighted by mask width past 2^10 bits, cost no
more than the k * 2^(n-l-1) block lookups it saves.  Rows with few distinct
low sums take l far past n/2 (l = 12, 14, 16 on the LR covers with n = 16,
20, 24); rows whose subset sums are all distinct stay near it (l = 6 to 9
on dense systems with n = 12 to 16).  Codes keep the order above at every l,
so the smallest-code witnesses do not depend on it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, compress, islice, repeat
from operator import and_, or_
from typing import Sequence

from .core import CapExceededError, CoveringSystem, Params, DEFAULT_PARAMS, Vertex


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of an uncovered-vertex search.

    In exhaustive mode ``uncovered_count`` is exact and ``witness`` (when
    present) is the lexicographically smallest uncovered vertex.  In sampled
    mode the draws stop at the witness, so the count is 1 with a witness and
    0 without.
    """

    total_vertices: int
    uncovered_count: int
    witness: Vertex | None
    mode: str  # "exhaustive" | "sampled"
    samples: int | None = None


def evaluate_row(system: CoveringSystem, i: int, x: Vertex) -> bool:
    """Exact test of sum_{j: x_j = 1} v_ij == mu_i."""
    if not 0 <= i < system.k:
        raise IndexError(f"row index {i} out of range for k={system.k}")
    if len(x) != system.n:
        raise ValueError(f"vertex has {len(x)} bits, expected {system.n}")
    row = system.rows[i]
    total = sum((row[j] for j, b in enumerate(x.bits) if b and row[j]), Fraction(0))
    return total == system.mu[i]


def rows_through(system: CoveringSystem, vertices: Sequence[Vertex]) -> list[list[int]]:
    """For each vertex, the ascending rows whose hyperplane holds it, exactly.

    This is the independent re-check of a reported vertex: it reads the
    rational ``system.rows`` and ``system.mu`` only, never ``cleared_rows``.
    Each row is taken on the columns set in at least one vertex and scaled,
    with mu_i, by the least common denominator of its nonzero entries there
    and mu_i; each vertex then costs one integer subset sum per row.
    """
    n = system.n
    for x in vertices:
        if len(x) != n:
            raise ValueError(f"vertex has {len(x)} bits, expected {n}")
    cols = list(compress(range(n), map(any, zip(*[x.bits for x in vertices]))))
    # Each vertex's set columns, as positions in cols.
    sets = [list(compress(range(len(cols)), [x.bits[j] for j in cols])) for x in vertices]
    hits: list[list[int]] = [[] for _ in vertices]
    for i, (row, mu) in enumerate(zip(system.rows, system.mu)):
        # (numerator, denominator) in one call per entry; zeros skip the scaling.
        pairs = [row[j].as_integer_ratio() for j in cols]
        top, bottom = mu.as_integer_ratio()
        d = math.lcm(bottom, *[q for p, q in pairs if p])
        ints = [p * (d // q) if p else 0 for p, q in pairs]
        target = top * (d // bottom)
        for hit, on in zip(hits, sets):
            if sum([ints[t] for t in on]) == target:
                hit.append(i)
    return hits


def _split_further(entries: int, low: int, n: int, k: int) -> bool:
    """Whether the sweep should tabulate one more low coordinate.

    One more coordinate at most doubles the ``entries`` that all row tables
    hold at ``low`` coordinates, and halves the 2^(n-low) blocks, which saves
    k * 2^(n-low-1) lookups.  It is taken while the entries, weighted by the
    width of their masks past 2^10 bits, cost no more than those lookups.
    """
    return entries << max(0, low - 10) <= k << (n - low - 1)


def _coverage_sweep(
    system: CoveringSystem,
    collect_exclusive: bool = False,
) -> tuple[int, int | None, list[int | None] | None]:
    """Classify every vertex code, 2^l of them per step.

    Returns (uncovered_count, min uncovered code or None, per-row minimal
    exclusive codes when requested).
    """
    n, k = system.n, system.k
    rows = [dict(zip(support, ints)) for support, ints, _, _ in system.cleared_rows]
    # tables[i][s]: the low codes x (as bits of a 2^low-bit mask) whose low
    # coordinates sum to s in row i; bit b of x is coordinate n-1-b.
    tables: list[dict[int, int]] = [{0: 1} for _ in rows]
    low = 0
    while low < n and _split_further(sum(map(len, tables)), low, n, k):
        shift = 1 << low
        for i, row in enumerate(rows):
            table, c = tables[i], row.get(n - 1 - low, 0)
            nxt = dict(table)
            for s, m in table.items():
                nxt[s + c] = nxt.get(s + c, 0) | (m << shift)
            tables[i] = nxt
        low += 1

    # cols[i][y]: row i's mask for block y, the one stored under the low sum
    # that puts high code y on the hyperplane; bit b of y is coordinate
    # n-1-low-b.
    cols: list[list[int]] = []
    for row, table, (_, _, mu, _) in zip(rows, tables, system.cleared_rows):
        need = [mu]
        for b in range(n - low):
            need += list(map(row.get(n - 1 - low - b, 0).__rsub__, need))
        cols.append(list(map(table.get, need, repeat(0))))

    uncovered = 0
    min_code: int | None = None
    excl: list[int | None] | None = [None] * k if collect_exclusive else None
    open_rows = list(range(k)) if collect_exclusive else []
    full = (1 << (1 << low)) - 1
    for y, masks in enumerate(zip(*cols)):
        base = y << low
        if open_rows:
            prefix = list(accumulate(masks, or_))
            ones = prefix[-1]
            # Bits set in some mask and in an earlier one: on two rows or more.
            alone = full ^ reduce(or_, map(and_, islice(masks, 1, None), prefix), 0)
            for i in open_rows:
                m = masks[i] & alone
                if m:
                    excl[i] = base + (m & -m).bit_length() - 1
            open_rows = [i for i in open_rows if excl[i] is None]
        else:
            ones = reduce(or_, masks)
        free = full ^ ones
        if free:
            uncovered += free.bit_count()
            if min_code is None:
                min_code = base + (free & -free).bit_length() - 1
    return uncovered, min_code, excl


def enumerate_uncovered(
    system: CoveringSystem,
    params: Params = DEFAULT_PARAMS,
) -> CoverageReport:
    """Exhaustively count uncovered vertices; n must be within the enumeration cap."""
    n = system.n
    if n > params.enumeration_cap:
        raise CapExceededError(
            f"n={n} exceeds enumeration cap {params.enumeration_cap}; use sample_uncovered"
        )
    uncovered, min_code, _ = _coverage_sweep(system)
    witness = Vertex.from_code(min_code, n) if min_code is not None else None
    return CoverageReport(
        total_vertices=1 << n,
        uncovered_count=uncovered,
        witness=witness,
        mode="exhaustive",
    )


def sample_uncovered(system: CoveringSystem, trials: int, seed: int) -> CoverageReport:
    """Draw uniform vertices until the first uncovered one, at most ``trials``.

    ``samples`` counts the draws made: all ``trials`` when none is
    uncovered.  The witness is re-verified exactly against the rational
    rows.  Identical (system, trials, seed) yields identical reports.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = system.n
    # Per row, (bit position, coefficient) over the support: coordinate j
    # sits at bit n-1-j of the drawn word, as in Vertex.from_code.
    sparse = [
        ([(n - 1 - j, c) for j, c in zip(support, ints)], mu)
        for support, ints, mu, _ in system.cleared_rows
    ]
    rng = random.Random(seed)
    witness: Vertex | None = None
    for drawn in range(1, trials + 1):
        word = rng.getrandbits(n)
        for terms, mu in sparse:
            total = 0
            for b, c in terms:
                if (word >> b) & 1:
                    total += c
            if total == mu:
                break
        else:
            witness = Vertex.from_code(word, n)
            hit = rows_through(system, [witness])[0]
            if hit:
                raise RuntimeError(
                    f"sampled witness {witness.bits} lies on rows {hit} in exact arithmetic"
                )
            break
    return CoverageReport(
        total_vertices=1 << n,
        uncovered_count=int(witness is not None),
        witness=witness,
        mode="sampled",
        samples=drawn,
    )
