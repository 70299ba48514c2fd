"""Exhaustive and sampled evaluation of hyperplane membership over {0,1}^n.

The exhaustive engine walks the reflected Gray code over vertex codes, so each
step flips one coordinate and updates only the running inner products of the
rows whose coefficient there is nonzero.  Denominators are cleared row-wise up
front (a positive row rescaling, so membership is unchanged) and the walk runs
on plain Python integers: the whole sweep is exact.

Coordinate j of a vertex is stored at bit (n-1-j) of its integer code, which
makes numeric order on codes equal to lexicographic order on bit tuples; the
reported witness is therefore the lexicographically smallest uncovered vertex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import CapExceededError, CoveringSystem, Params, DEFAULT_PARAMS, Vertex, clear_denominators


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


def _integerized(system: CoveringSystem) -> tuple[list[list[int]], list[int]]:
    """Clear denominators row-wise; membership-equivalent integer system."""
    int_rows: list[list[int]] = []
    int_mu: list[int] = []
    for row, mu in zip(system.rows, system.mu):
        scaled, _ = clear_denominators((*row, mu))
        int_rows.append(scaled[:-1])
        int_mu.append(scaled[-1])
    return int_rows, int_mu


def _gray(t: int) -> int:
    return t ^ (t >> 1)


def _coverage_sweep(
    system: CoveringSystem,
    t_lo: int = 0,
    t_hi: int | None = None,
    collect_exclusive: bool = False,
) -> tuple[int, int | None, list[int | None] | None]:
    """Walk Gray-code steps t in [t_lo, t_hi) and classify every visited vertex.

    Returns (uncovered_count, min uncovered code or None, per-row minimal
    exclusive codes when requested).  Ranges of t partition the vertex space,
    so results from disjoint ranges merge by summing counts and taking
    minima.
    """
    n, k = system.n, system.k
    if t_hi is None:
        t_hi = 1 << n
    int_rows, int_mu = _integerized(system)

    # cols[b]: (row, coefficient) pairs for the coordinate stored at bit b.
    cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, row in enumerate(int_rows):
        for j, c in enumerate(row):
            if c:
                cols[n - 1 - j].append((i, c))

    code = _gray(t_lo)
    sums = [0] * k
    for b in range(n):
        if (code >> b) & 1:
            for i, c in cols[b]:
                sums[i] += c
    sat = 0
    sat_sum = 0
    for i in range(k):
        if sums[i] == int_mu[i]:
            sat += 1
            sat_sum += i

    uncovered = 0
    min_code: int | None = None
    excl: list[int | None] | None = [None] * k if collect_exclusive else None

    if sat == 0:
        uncovered = 1
        min_code = code
    elif collect_exclusive and sat == 1:
        excl[sat_sum] = code

    mu = int_mu
    for t in range(t_lo + 1, t_hi):
        b = (t & -t).bit_length() - 1
        mask = 1 << b
        code ^= mask
        if code & mask:
            for i, c in cols[b]:
                s = sums[i]
                m = mu[i]
                was = s == m
                s += c
                sums[i] = s
                if (s == m) != was:
                    if was:
                        sat -= 1
                        sat_sum -= i
                    else:
                        sat += 1
                        sat_sum += i
        else:
            for i, c in cols[b]:
                s = sums[i]
                m = mu[i]
                was = s == m
                s -= c
                sums[i] = s
                if (s == m) != was:
                    if was:
                        sat -= 1
                        sat_sum -= i
                    else:
                        sat += 1
                        sat_sum += i
        if sat == 0:
            uncovered += 1
            if min_code is None or code < min_code:
                min_code = code
        elif sat == 1 and collect_exclusive:
            r = sat_sum
            prev = excl[r]
            if prev is None or code < prev:
                excl[r] = code

    return uncovered, min_code, excl


def enumerate_uncovered(
    system: CoveringSystem,
    params: Params = DEFAULT_PARAMS,
    chunks: int = 1,
) -> CoverageReport:
    """Exhaustively count uncovered vertices; n must be within the enumeration cap.

    ``chunks`` splits the walk into contiguous sub-ranges processed
    independently and merged deterministically (sum of counts, minimum
    witness); the result is identical for any chunking.
    """
    n = system.n
    if n > params.enumeration_cap:
        raise CapExceededError(
            f"n={n} exceeds enumeration cap {params.enumeration_cap}; use sample_uncovered"
        )
    total = 1 << n
    chunks = max(1, min(chunks, total))
    bounds = [total * c // chunks for c in range(chunks + 1)]
    uncovered = 0
    min_code: int | None = None
    for lo, hi in zip(bounds, bounds[1:]):
        u, mc, _ = _coverage_sweep(system, lo, hi)
        uncovered += u
        if mc is not None and (min_code is None or mc < min_code):
            min_code = mc
    witness = Vertex.from_code(min_code, n) if min_code is not None else None
    return CoverageReport(
        total_vertices=total,
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
    int_rows, int_mu = _integerized(system)
    # Per row, (bit position, coefficient) over the support: coordinate j
    # sits at bit n-1-j of the drawn word, as in Vertex.from_code.
    sparse = [
        ([(n - 1 - j, c) for j, c in enumerate(row) if c], mu)
        for row, mu in zip(int_rows, int_mu)
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
                hit = [i for i in range(system.k) if evaluate_row(system, i, witness)]
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
