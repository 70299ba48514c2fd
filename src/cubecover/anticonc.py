"""Anti-concentration estimators: atom probabilities, the 1/sqrt(supp) bound,
scale partitions with geometric norm decay, and the concentration-window check.

A vector has S scales (with respect to the paper's constant C1, ``core.C1``)
when its coordinates split into ordered parts P_1..P_S whose l2-norms decay
by a factor >= C1 between consecutive parts.  All decay comparisons here are
exact: they are performed on squared norms with the rational C1.

Probabilities over uniform x in {0,1}^dim are taken on the vector scaled by
the least common denominator D of its entries and of the target: the subset
sums (exact mode) and drawn sums (sampled mode) are then integers, and every
window is a union of half-open integer intervals of them, derived once (with
integer square roots where the window is quadratic).  Exact mode meets in the
middle (Horowitz and Sahni, 1974): it tabulates the subset sums of each half
of the coordinates, 2^(dim/2) terms each, and counts the pairs that land in a
window by bisection.  Sampled mode packs each trial's draws into bytes and
sums one 256-entry subset-sum table lookup per group of 8 coordinates; a
vector wider than 256 coordinates sums its selected entries one by one.  A
sampled trial lands in a window by a bisection and a parity, and in an atom
(a window of one integer) by one equality: through byte tables, the sum of
all groups but the last against the atom minus the last group's subset sum.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import add, eq, mul
from typing import Sequence

from .core import (
    C0 as WINDOW_C0,
    C1,
    ENUMERATION_CAP,
    CapExceededError,
    as_fractions,
    clear_denominators,
)


# Sampled draws per getrandbits call (or one trial's, if more), the widest
# vector whose sampled sums go through byte tables, and the map from a byte
# to its top bit.
_CHUNK_DRAWS = 1 << 14
_TABLE_DIM = 256
_TOP_BIT = bytes(b >> 7 for b in range(256))


class ScalePartitionError(ValueError):
    """The greedy partitioner could not reach the requested number of scales."""


def subset_sum_counts(v: Sequence[Fraction | int]) -> dict[Fraction | int, int]:
    """Multiset of subset sums of v as {sum: count}; 2^len(v) total mass.

    Integer entries give int keys (equal, and hashing equal, to the Fraction
    keys the same values would give); anything else is read as Fractions.
    """
    if all(isinstance(c, int) for c in v):
        vec, zero = v, 0
    else:
        vec, zero = as_fractions(v), Fraction(0)
    counts = {zero: 1}
    for c in vec:
        if c == 0:
            counts = {s: 2 * m for s, m in counts.items()}
            continue
        nxt = dict(counts)
        for s, m in counts.items():
            key = s + c
            nxt[key] = nxt.get(key, 0) + m
        counts = nxt
    return counts


def _integer_form(
    v: Sequence[Fraction | int | str], *extra: Fraction
) -> tuple[list[int], list[int], int]:
    """(D * v, D * extra, D) for the least D that makes all of them integers.

    Scaling by D > 0 is a bijection on subset sums that keeps their order.
    """
    vec = as_fractions(v)
    scaled, mult = clear_denominators((*vec, *extra))
    return scaled[: len(vec)], scaled[len(vec) :], mult


def _byte_tables(ints: Sequence[int]) -> list[list[int]]:
    """Per group of 8 coordinates, the subset sums indexed by a byte whose
    bit k selects coordinate 8g + k.  A short last group's table repeats up
    to 256 entries: the high bits of its byte belong to the next trial."""
    tables = []
    for g in range(0, len(ints), 8):
        table = [0]
        for c in ints[g : g + 8]:
            table += [s + c for s in table]
        tables.append(table * (256 // len(table)))
    return tables


def _shell_edges(total: int, qn4: int, p_sq: int, r_sq: int) -> tuple[int, ...]:
    """Edges of {s : (2s - total)^2 p_sq >= qn4 r_sq and (2s - total)^2 r_sq <= qn4 p_sq}
    for qn4, p_sq, r_sq >= 1: the s with a <= |2s - total| <= b."""
    a = math.isqrt(-(-qn4 * r_sq // p_sq) - 1) + 1
    b = math.isqrt(qn4 * p_sq // r_sq)
    lo, hi = (total + a + 1) // 2, (total + b) // 2 + 1  # 2s - total in [a, b]
    if lo >= hi:
        return ()
    # s -> total - s maps it onto 2s - total in [-b, -a]; the two meet when a <= 1.
    mirror_lo, mirror_hi = total + 1 - hi, total + 1 - lo
    return (mirror_lo, hi) if mirror_hi >= lo else (mirror_lo, mirror_hi, lo, hi)


def _window_mass(
    ints: Sequence[int],
    edges: tuple[int, ...],
    mode: str,
    trials: int,
    seed: int,
    cap: int,
    cap_message: str,
) -> Fraction:
    """P(<x, ints> in the window) for x uniform on {0,1}^dim.

    The window is the union of the disjoint half-open intervals
    [edges[0], edges[1]), [edges[2], edges[3]), ...: s lies in it iff
    bisect_right(edges, s) is odd.  Exact mode (dim at most ``cap``, else
    CapExceededError(cap_message)) meets in the middle: it takes the subset-sum
    counts of each half of ints, sorts the larger table's sums with prefix
    counts, and for each sum s of the smaller table adds its count times the
    number of sums in every interval shifted by -s, two bisections each.
    Sampled mode returns the hit frequency over ``trials`` draws: the same
    coordinate draws as one ``getrandbits(1)`` each, taken from one
    ``getrandbits`` call per ``_CHUNK_DRAWS`` draws (at least one trial).
    Up to ``_TABLE_DIM`` coordinates, a trial's sum is one lookup per group
    of 8 coordinates, in a 256-entry table of the group's subset sums, by
    the byte of its 8 draws; wider vectors, on which the tables measured
    slower, sum the selected entries through ``compress``.  A trial is in the
    window when bisect_right(edges, sum) is odd, and in a window of one
    integer t (an atom) when its sum equals t: one equality per trial, which
    through byte tables compares the sum of every group but the last with
    t - (the last group's subset sum).  The sums are integers, so both count
    the same hits.
    """
    dim = len(ints)
    if mode == "exact":
        if dim > cap:
            raise CapExceededError(cap_message)
        small, large = sorted((subset_sum_counts(ints[: dim // 2]), subset_sum_counts(ints[dim // 2 :])), key=len)
        keys = sorted(large)
        pre = [0, *accumulate(map(large.__getitem__, keys))]
        windows = tuple(zip(edges[::2], edges[1::2]))
        hits = 0
        for s, m in small.items():
            for lo, hi in windows:
                hits += m * (pre[bisect_left(keys, hi - s)] - pre[bisect_left(keys, lo - s)])
        return Fraction(hits, 1 << dim)
    if mode != "sampled":
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    draw = random.Random(seed).getrandbits
    tables = _byte_tables(ints) if 0 < dim <= _TABLE_DIM else None
    # An atom t, and through byte tables need[b] = t - (the last group's
    # subset sum at byte b), which the other groups' sum must equal.
    atom = edges[0] if len(edges) == 2 and edges[1] == edges[0] + 1 else None
    if atom is not None and tables is not None:
        need = [atom - s for s in tables.pop()]
    per_call = max(1, _CHUNK_DRAWS // max(dim, 1))
    hits = 0
    for done in range(0, trials, per_call):
        chunk = min(per_call, trials - done)
        n = chunk * dim
        # getrandbits(1) is the top bit of one 32-bit output, getrandbits(32 m)
        # packs m outputs least significant first, and consecutive calls
        # continue one stream: byte 3 of each 4-byte word, translated to its
        # top bit, is the same draw.
        bits = draw(32 * n).to_bytes(4 * n, "little")[3::4].translate(_TOP_BIT)
        if tables is None:
            # compress reads one selector per entry of ints, so each trial
            # takes the next dim bits from the shared iterator.
            sums = map(sum, map(compress, repeat(ints, chunk), repeat(iter(bits))))
            targets = repeat(atom)
        else:
            # Bit 8p of y is draw p; after the shift-ORs, byte p of y holds
            # draws p..p+7, so byte t*dim + 8g selects trial t's group g.
            y = int.from_bytes(bits, "little")
            y |= y >> 7
            y |= y >> 14
            y |= y >> 28
            packed = y.to_bytes(n, "little")
            sums = map(tables[0].__getitem__, packed[::dim]) if tables else repeat(0, chunk)
            for g in range(1, len(tables)):
                sums = map(add, sums, map(tables[g].__getitem__, packed[8 * g :: dim]))
            if atom is not None:
                targets = map(need.__getitem__, packed[8 * len(tables) :: dim])
        if atom is None:
            hits += sum(map((1).__and__, map(bisect_right, repeat(edges), sums)))
        else:
            hits += sum(map(eq, sums, targets))
    return Fraction(hits, trials)


def atom_probability(
    v: Sequence[Fraction | int | str],
    a: Fraction | int | str,
    mode: str = "exact",
    trials: int = 10000,
    seed: int = 0,
    cap: int = ENUMERATION_CAP,
) -> Fraction:
    """P(<x, v> = a) for x uniform on {0,1}^dim.

    Exact mode enumerates all subsets (dim must be at most ``cap``) and
    returns a reduced rational; sampled mode returns the empirical
    frequency over ``trials`` draws from ``seed``, one equality per trial.
    """
    ints, (target,), _ = _integer_form(v, as_fractions([a])[0])
    return _window_mass(
        ints, (target, target + 1), mode, trials, seed, cap,
        f"dim={len(ints)} exceeds enumeration cap {cap}",
    )


def max_atom_probability(
    v: Sequence[Fraction | int], cap: int = ENUMERATION_CAP
) -> tuple[Fraction, Fraction]:
    """(max_a P(<x,v> = a), an argmax a), exactly by enumeration; dim <= ``cap``."""
    ints, _, mult = _integer_form(v)
    if len(ints) > cap:
        raise CapExceededError(f"dim={len(ints)} exceeds enumeration cap")
    counts = subset_sum_counts(ints)
    best_s, best_m = max(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return Fraction(best_m, 1 << len(ints)), Fraction(best_s, mult)


def littlewood_offord_bound(v: Sequence[Fraction | int]) -> float:
    """The atom-probability bound 1/sqrt(|supp(v)|)."""
    vec = as_fractions(v)
    supp = sum(1 for c in vec if c != 0)
    if supp == 0:
        raise ValueError("zero vector has no Littlewood-Offord bound")
    return 1.0 / math.sqrt(supp)


@dataclass(frozen=True)
class ScalePartition:
    """Ordered parts P_1..P_S of a vector's coordinates with geometric decay.

    Valid when ||v|P_s||^2 >= C1^2 * ||v|P_{s+1}||^2 for all s < S; the last
    part is the smallest scale and its squared norm is delta^2.
    """

    parts: tuple[tuple[int, ...], ...]
    C1: Fraction
    squared_norms: tuple[Fraction, ...]
    smallest_scale_sq: Fraction

    @property
    def S(self) -> int:
        return len(self.parts)

    @classmethod
    def build(
        cls,
        v: Sequence[Fraction | int],
        parts: Sequence[Sequence[int]],
    ) -> "ScalePartition":
        vec = as_fractions(v)
        tup_parts = tuple(tuple(sorted(p)) for p in parts)
        norms = tuple(
            sum((vec[j] * vec[j] for j in p), Fraction(0)) for p in tup_parts
        )
        return cls(
            parts=tup_parts,
            C1=C1,
            squared_norms=norms,
            smallest_scale_sq=norms[-1] if norms else Fraction(0),
        )


def scale_partition(
    v: Sequence[Fraction | int | str],
    target_S: int | None = None,
) -> ScalePartition:
    """Greedy scale partition: a lower bound on the achievable number of scales.

    Coordinates are taken in decreasing |v_j| order and a part is closed as
    soon as its squared norm reaches C1^2 times the squared norm of the whole
    remaining suffix, which makes every later part (a subset of that suffix)
    satisfy the decay condition.  This is a heuristic, not a maximizer.  When
    target_S is given, surplus trailing parts are merged into the last one
    (still valid, since parts were closed against whole suffixes); if fewer
    scales are found, ScalePartitionError is raised.
    """
    vec = as_fractions(v)
    if all(c == 0 for c in vec):
        raise ValueError("zero vector has no scale partition")
    c1_sq = C1 * C1
    order = sorted(range(len(vec)), key=lambda j: (-(vec[j] * vec[j]), j))
    suffix_sq = [Fraction(0)] * (len(order) + 1)
    for pos in range(len(order) - 1, -1, -1):
        j = order[pos]
        suffix_sq[pos] = suffix_sq[pos + 1] + vec[j] * vec[j]
    parts: list[list[int]] = []
    current: list[int] = []
    cur_sq = Fraction(0)
    for pos, j in enumerate(order):
        current.append(j)
        cur_sq += vec[j] * vec[j]
        rem = suffix_sq[pos + 1]
        if rem > 0 and cur_sq >= c1_sq * rem:
            parts.append(current)
            current = []
            cur_sq = Fraction(0)
    if current:
        parts.append(current)
    if target_S is not None:
        if target_S < 1:
            raise ValueError("target_S must be >= 1")
        if len(parts) < target_S:
            raise ScalePartitionError(
                f"greedy heuristic reached {len(parts)} scales, target was {target_S}"
            )
        if len(parts) > target_S:
            merged = [c for p in parts[target_S - 1 :] for c in p]
            parts = parts[: target_S - 1] + [merged]
    return ScalePartition.build(vec, parts)


def validate_scales(
    v: Sequence[Fraction | int],
    partition: ScalePartition,
    coords: Sequence[int] | None = None,
) -> bool:
    """Exact check of all ScalePartition invariants against the vector.

    Structural defects (parts not partitioning the coordinate set, stored
    norms disagreeing with the vector) raise; decay-condition failures return
    False.  ``coords`` restricts the coordinate set the parts must cover
    (defaults to all of v's coordinates).
    """
    vec = as_fractions(v)
    universe = set(range(len(vec))) if coords is None else set(coords)
    if not partition.parts:
        raise ValueError("partition has no parts")
    seen: set[int] = set()
    for p in partition.parts:
        if not p:
            raise ValueError("empty part in partition")
        for j in p:
            if j not in universe:
                raise ValueError(f"part index {j} outside the coordinate set")
            if j in seen:
                raise ValueError(f"index {j} appears in two parts")
            seen.add(j)
    if seen != universe:
        raise ValueError("parts do not cover the coordinate set")
    norms = tuple(
        sum((vec[j] * vec[j] for j in p), Fraction(0)) for p in partition.parts
    )
    if norms != partition.squared_norms or partition.smallest_scale_sq != norms[-1]:
        raise ValueError("stored squared norms disagree with the vector")
    c1_sq = partition.C1 * partition.C1
    return all(norms[s] >= c1_sq * norms[s + 1] for s in range(len(norms) - 1))


def concentration_window_prob(
    row: Sequence[Fraction | int | str],
    C0: Fraction | float | None = None,
    mode: str = "exact",
    trials: int = 10000,
    seed: int = 0,
    cap: int = ENUMERATION_CAP,
) -> tuple[Fraction, bool]:
    """P(1/C0 <= |<x,v> - (1/2) sum v| <= C0) for the row read as a unit
    vector, v = row / ||row||, so that scaling the row changes nothing.

    With q = ||row||^2 and z = <x,row> - (1/2) sum row the window membership
    is decided exactly via z^2 * C0^2 >= q and z^2 <= C0^2 * q.  ok is the
    claim probability >= 1/C0, also exact.  A zero row is a ValueError.
    Exact mode needs dim <= ``cap``; sampled mode draws ``trials`` from ``seed``.
    """
    ints = _integer_form(row)[0]
    if not any(ints):
        raise ValueError("cannot unit-normalize a zero row")
    if C0 is None:
        c0 = WINDOW_C0
    elif isinstance(C0, float):
        # Read floats as their decimal literal so that C0=4.706 means exactly
        # 4706/1000 and not the slightly larger binary neighbour.
        c0 = Fraction(str(C0))
    else:
        c0 = Fraction(C0)
    if c0 < WINDOW_C0:
        raise ValueError(f"C0 must be >= 4.706, got {float(c0)}")
    # On the row scaled by D, 2 D z = 2S - T with T = D sum(row), and
    # D^2 q = sum(ints^2).  For c0 = p/r, z^2 c0^2 >= q and z^2 <= c0^2 q read
    # (2S - T)^2 p^2 >= 4 sum(ints^2) r^2 and (2S - T)^2 r^2 <= 4 sum(ints^2) p^2.
    edges = _shell_edges(sum(ints), 4 * sum(map(mul, ints, ints)), c0.numerator ** 2, c0.denominator ** 2)
    prob = _window_mass(ints, edges, mode, trials, seed, cap,
                        f"dim={len(ints)} exceeds enumeration cap")
    return prob, prob * c0 >= 1
