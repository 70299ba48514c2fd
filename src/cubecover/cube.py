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

The exhaustive engine splits a code into a high part y (the first h = n//2
coordinates) and a low part x (the last l = n - h), code = (y << l) | x.  For
each row it tabulates, per low partial sum s, the 2^l-bit mask of low codes
whose sum is s; at most 2^l keys of 2^l bits each per row.  A high code y then
puts the row's vertices of block y in the mask stored under mu - (high
partial sum of y), so one dict lookup per row decides a block of 2^l
vertices.  OR-ing the masks of a block gives its covered vertices, and
tracking the bits hit at least twice gives the vertices on exactly one row
(the exclusive witnesses of the essential-cover axiom E3).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import CapExceededError, CoveringSystem, Params, DEFAULT_PARAMS, Vertex


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of an uncovered-vertex search.

    In exhaustive mode ``uncovered_count`` is exact and ``witness`` (when
    present) is the lexicographically smallest uncovered vertex.  In sampled
    mode the count refers to the drawn sample only.
    """

    total_vertices: int
    uncovered_count: int
    witness: Vertex | None
    mode: str  # "exhaustive" | "sampled"
    samples: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "total_vertices": self.total_vertices,
            "uncovered_count": self.uncovered_count,
            "witness": self.witness.to_json() if self.witness is not None else None,
            "mode": self.mode,
            "samples": self.samples,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CoverageReport":
        witness = doc.get("witness")
        return cls(
            total_vertices=doc["total_vertices"],
            uncovered_count=doc["uncovered_count"],
            witness=Vertex(tuple(witness)) if witness is not None else None,
            mode=doc["mode"],
            samples=doc.get("samples"),
        )


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
    cols = [j for j in range(n) if any(x.bits[j] for x in vertices)]
    # Each vertex's set columns, as positions in cols.
    sets = [[t for t, j in enumerate(cols) if x.bits[j]] for x in vertices]
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


def _coverage_sweep(
    system: CoveringSystem,
    collect_exclusive: bool = False,
) -> tuple[int, int | None, list[int | None] | None]:
    """Classify every vertex code, 2^l of them per step.

    Returns (uncovered_count, min uncovered code or None, per-row minimal
    exclusive codes when requested).
    """
    n, k = system.n, system.k
    low = (n + 1) // 2
    width = 1 << low

    tables: list[dict[int, int]] = []
    needs: list[list[int]] = []
    for support, ints, mu, _ in system.cleared_rows:
        row = dict(zip(support, ints))
        # table[s]: the low codes x (as bits of a 2^l-bit mask) whose low
        # coordinates sum to s; bit b of x is coordinate n-1-b.
        table = {0: 1}
        for b in range(low):
            c, shift = row.get(n - 1 - b, 0), 1 << b
            nxt = dict(table)
            for s, m in table.items():
                nxt[s + c] = nxt.get(s + c, 0) | (m << shift)
            table = nxt
        # need[y]: the low sum that puts high code y on the hyperplane; bit
        # b of y is coordinate n-1-low-b.
        need = [mu]
        for b in range(n - low):
            c = row.get(n - 1 - low - b, 0)
            need += [t - c for t in need]
        tables.append(table)
        needs.append(need)

    uncovered = 0
    min_code: int | None = None
    excl: list[int | None] | None = [None] * k if collect_exclusive else None
    open_rows = list(range(k)) if collect_exclusive else []
    full = (1 << width) - 1
    for y in range(1 << (n - low)):
        base = y << low
        ones = twos = 0
        masks = [t.get(d[y], 0) for t, d in zip(tables, needs)]
        for m in masks:
            twos |= ones & m
            ones |= m
        free = full & ~ones
        if free:
            uncovered += free.bit_count()
            if min_code is None:
                min_code = base + (free & -free).bit_length() - 1
        if open_rows:
            alone = full & ~twos
            for i in open_rows:
                m = masks[i] & alone
                if m:
                    excl[i] = base + (m & -m).bit_length() - 1
            open_rows = [i for i in open_rows if excl[i] is None]
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


def sample_uncovered(
    system: CoveringSystem,
    trials: int,
    seed: int,
    *,
    stop_at_witness: bool = False,
) -> CoverageReport:
    """Draw ``trials`` uniform vertices; report the first uncovered one found.

    With ``stop_at_witness`` the draws stop at the first uncovered vertex:
    the RNG sequence and hence the witness are the same, and ``samples`` and
    ``uncovered_count`` count only the draws made (all ``trials`` when no
    vertex is uncovered).  The witness is re-verified exactly against the
    rational rows.  Identical (system, trials, seed, stop_at_witness) yields
    identical reports.
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
    uncovered = 0
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
            uncovered += 1
            if witness is None:
                witness = Vertex.from_code(word, n)
                hit = rows_through(system, [witness])[0]
                if hit:
                    raise RuntimeError(
                        f"sampled witness {witness.bits} lies on rows {hit} in exact arithmetic"
                    )
                if stop_at_witness:
                    break
    return CoverageReport(
        total_vertices=1 << n,
        uncovered_count=uncovered,
        witness=witness,
        mode="sampled",
        samples=drawn,
    )
