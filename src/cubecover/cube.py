"""Exhaustive and sampled evaluation of hyperplane membership over {0,1}^n.

Both engines read ``CoveringSystem.cleared_rows`` (each row and its mu_i
scaled by one positive D, so membership is unchanged) and run on plain
Python integers from there: the whole sweep is exact.

A reported vertex is checked again by ``rows_through``, the package's one
exact membership test, independently of both engines: it reads the rational
``system.sparse_rows`` and ``system.mu``, never the cleared rows, and makes
one exact pass per row over a whole batch of vertices (each row's nonzero
entries scaled by their own least common denominator, then one integer
subset sum per vertex).  ``essential`` passes all of a sweep's witnesses in
one batch; the sampler and ``refute`` pass one vertex.

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

Codes are classified in increasing order, so the first uncovered code and
each row's first exclusive code are the smallest.  Only ``enumerate_uncovered``
sweeps every code and counts the uncovered ones exactly.  Verify mode (the
sweep ``essential.verify_essential`` makes) reports no count and returns at
its last witness: as soon as the smallest uncovered code and every row's
smallest exclusive code are known.  It also classifies block 0 (the codes
below 2^l) at a few small l while the tables grow, so a non-cover whose
witnesses come early never builds the larger tables.

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
from functools import reduce
from itertools import accumulate, compress, islice, repeat
from operator import and_, itemgetter, or_
from typing import Sequence

from .core import ENUMERATION_CAP, CapExceededError, CoveringSystem, Vertex


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


def rows_through(system: CoveringSystem, vertices: Sequence[Vertex]) -> list[list[int]]:
    """For each vertex, the ascending rows whose hyperplane holds it, exactly.

    This is the independent re-check of a reported vertex: it reads the
    rational ``system.sparse_rows`` and ``system.mu`` only, never
    ``cleared_rows``.  Each row is taken on its nonzero columns that are set
    in at least one vertex and scaled, with mu_i, by the least common
    denominator of its entries there and mu_i; each vertex then costs one
    integer subset sum per row, ``sum(compress(ints, bits))`` over its bits
    on those columns, picked by one ``itemgetter``.  No zero entry is read.
    """
    n = system.n
    for x in vertices:
        if len(x) != n:
            raise ValueError(f"vertex has {len(x)} bits, expected {n}")
    used = set().union(*[compress(range(n), x.bits) for x in vertices])  # columns some vertex sets
    # Each vertex's bits and a 0 at index n, which every itemgetter picks
    # twice, so that it returns a tuple however few columns it picks.
    padded = [x.bits + (0,) for x in vertices]
    hits: list[list[int]] = [[] for _ in vertices]
    for i, ((support, values), mu) in enumerate(zip(system.sparse_rows, system.mu)):
        keep = list(map(used.__contains__, support))
        pick = itemgetter(*compress(support, keep), n, n)
        pairs = [c.as_integer_ratio() for c in compress(values, keep)]
        top, bottom = mu.as_integer_ratio()
        d = math.lcm(bottom, *[q for _, q in pairs])
        ints = [p * (d // q) for p, q in pairs]
        target = top * (d // bottom)
        for hit, bits in zip(hits, padded):
            if sum(compress(ints, pick(bits))) == target:
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


# The low levels at which verify mode classifies block 0 while the tables
# grow.  Each level's tables cost up to twice the last's, so a non-cover whose
# witnesses lie below 2^4 or 2^7 skips most of the growth.
_SCAN_LEVELS = (4, 7)


def _classify(
    masks: Sequence[int], base: int, full: int, open_rows: list[int], excl: list[int | None]
) -> tuple[int, list[int]]:
    """Classify one block of codes: bit b of ``masks[i]`` says whether code
    base + b lies on row i, and ``full`` sets every bit of the block.  Sets
    ``excl[i]`` to the row's smallest code on it alone, for each row of
    ``open_rows`` that has one here.  Returns the block's uncovered bits and
    the rows of ``open_rows`` still without an exclusive code."""
    prefix = list(accumulate(masks, or_))
    # Bits set in some mask and in an earlier one: on two rows or more.
    alone = full ^ reduce(or_, map(and_, islice(masks, 1, None), prefix), 0)
    still = []
    for i in open_rows:
        m = masks[i] & alone
        if m:
            excl[i] = base + (m & -m).bit_length() - 1
        else:
            still.append(i)
    return full ^ prefix[-1], still


def _coverage_sweep(
    system: CoveringSystem,
    collect_exclusive: bool = False,
) -> tuple[int | None, int | None, list[int | None] | None]:
    """Classify the vertex codes in increasing order, 2^l of them per step.

    Returns (uncovered_count, min uncovered code or None, per-row minimal
    exclusive codes).  Without ``collect_exclusive`` every code is
    classified and the count is exact; the third value is None.  With it
    (verify mode), the sweep returns as soon as the smallest uncovered code
    and every row's smallest exclusive code are known, and the count is
    None: a non-cover whose rows all own a vertex stops at its last witness,
    and a cover, or a row with no exclusive code, takes the whole sweep.  So
    that witnesses early in code order cost little, verify mode also
    classifies block 0 (the codes below 2^low) at the levels of
    ``_SCAN_LEVELS`` while the tables grow, and at the final level before
    the high codes' masks are built.
    """
    n, k = system.n, system.k
    cleared = system.cleared_rows
    rows = [dict(zip(support, ints)) for support, ints, _, _ in cleared]
    mus = [mu for _, _, mu, _ in cleared]
    min_code: int | None = None
    excl: list[int | None] | None = [None] * k if collect_exclusive else None
    open_rows = list(range(k)) if collect_exclusive else []
    # tables[i][s]: the low codes x (as bits of a 2^low-bit mask) whose low
    # coordinates sum to s in row i; bit b of x is coordinate n-1-b.
    tables: list[dict[int, int]] = [{0: 1} for _ in rows]
    low = 0
    while True:
        entries = sum(map(len, tables))
        further = low < n and _split_further(entries, low, n, k)
        # A scan costs about k lookups, and the growth it can save about the
        # table entries: none is made on sparse tables (at most 4 entries a
        # row, as on the LR covers), where it would cost a cover more than
        # it could save a non-cover.
        if collect_exclusive and (not further or low in _SCAN_LEVELS and entries > k << 2):
            # Block 0 at this level: each row's mask is stored under mu.
            full = (1 << (1 << low)) - 1
            free, open_rows = _classify(list(map(dict.get, tables, mus, repeat(0))), 0, full, open_rows, excl)
            if free and min_code is None:
                min_code = (free & -free).bit_length() - 1
            if min_code is not None and not open_rows:
                return None, min_code, excl
        if not further:
            break
        shift, j = 1 << low, n - 1 - low
        for i, row in enumerate(rows):
            table, c = tables[i], row.get(j, 0)
            nxt = dict(table)
            for s, m in table.items():
                s += c
                nxt[s] = nxt.get(s, 0) | (m << shift)
            tables[i] = nxt
        low += 1

    # cols[i][y]: row i's mask for block y, the one stored under the low sum
    # that puts high code y on the hyperplane; bit b of y is coordinate
    # n-1-low-b.
    cols: list[list[int]] = []
    for row, table, mu in zip(rows, tables, mus):
        need = [mu]
        for b in range(n - low):
            need += list(map(row.get(n - 1 - low - b, 0).__rsub__, need))
        cols.append(list(map(table.get, need, repeat(0))))

    uncovered = 0
    full = (1 << (1 << low)) - 1
    first = int(collect_exclusive)  # verify mode has classified block 0
    for y, masks in enumerate(islice(zip(*cols), first, None), first):
        base = y << low
        if open_rows:
            free, open_rows = _classify(masks, base, full, open_rows, excl)
        else:
            free = full ^ reduce(or_, masks)
        if free:
            uncovered += free.bit_count()
            if min_code is None:
                min_code = base + (free & -free).bit_length() - 1
        if collect_exclusive and min_code is not None and not open_rows:
            return None, min_code, excl
    return (None if collect_exclusive else uncovered), min_code, excl


def enumerate_uncovered(system: CoveringSystem, cap: int = ENUMERATION_CAP) -> CoverageReport:
    """Exhaustively count uncovered vertices; n must be at most ``cap``."""
    n = system.n
    if n > cap:
        raise CapExceededError(f"n={n} exceeds enumeration cap {cap}; use sample_uncovered")
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
