"""Greedy structural decompositions of rational matrices.

Two algorithms:

* first_decomposition repeatedly moves heavy columns out of the working
  block, renormalizing rows whose residual mass drops below tau; a row
  renormalized S times has acquired S scales and is moved aside.  Each row
  is tracked in cleared form (integer row, integer squared norm q) with its
  residual squared norm and the column masses updated incrementally as
  columns leave, so the whole run is exact: the entries never change, only
  q does.  A renormalization records only the length of M2 at that moment;
  a departed row's scale parts are the slices of M2 between those cut
  points, and their squared norms are read off its cleared row.  When
  tau/W exceeds the row count no column can be heavy, and the run returns
  at once, building none of this: it reads each row's squared norm and
  returns every row in L1 and every column in M1.  It reads a
  ``core.ClearedBlock``: a system's rows cut by ``CoveringSystem.block``,
  or a rational matrix cleared by ``core.cleared_block``.
* second_decomposition iterates the first decomposition, absorbing
  zero-residual rows and their columns, until the leftover zero rows are few
  and all have large support on the final moved columns.  It clears nothing:
  each round hands the first decomposition ``CoveringSystem.block`` of the
  working rows and columns.  Each row's support is the ascending list that
  ``CoveringSystem.supports`` returns, with no set per row: the column sets
  test it with ``issuperset`` and ``intersection``.  When every column is
  below the dense size ceil(16 k^2 / n) the dense-column filter makes no
  pass over the columns.

Row blocks are named L1/L2 (first stage) and K1..K4 (second stage); column
blocks M1/M2 and N1..N3.  tau, C1 and C3 are the paper's constants
(``core.TAU``, ``core.C1``, ``core.C3``).

Ties go by index: the first decomposition moves the smallest heavy column
first and scans rows in index order, the second absorbs the first qualifying
Z row.  Permuting rows or columns can change the blocks and the verdict.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from decimal import Context
from fractions import Fraction
from operator import mul
from typing import Mapping, Sequence

from .anticonc import ScalePartition, validate_scales
from .core import C1, C3, TAU, ClearedBlock, CoveringSystem, as_fractions

Matrix = Sequence[Sequence[Fraction | int]]

# Scale of the row-count hypothesis k^5 (S*W)^2 <= C4^5 n^3: a documented
# choice, not a claim.
C4 = Fraction(1)


@dataclass(frozen=True)
class Decomposition1:
    """Output of first_decomposition on an l x m matrix.

    ``row_norm_sq`` holds the final normalizer q_i per row: the effective row
    is the input row divided by sqrt(q_i).  Rows in L2 carry a scale
    partition with S parts whose last part contains the final M1 columns.
    """

    S: int
    W: Fraction
    L1: tuple[int, ...]
    L2: tuple[int, ...]
    M1: tuple[int, ...]
    M2: tuple[int, ...]
    row_norm_sq: tuple[Fraction, ...]
    renorm_counts: tuple[int, ...]
    scale_partitions: Mapping[int, ScalePartition]


def first_decomposition(
    block: ClearedBlock,
    S: int,
    W: Fraction | int | float,
) -> Decomposition1:
    """Move heavy columns to M2 until all remaining column masses are below tau/W.

    Rows are unit-normalized internally (q_i starts at the full squared norm)
    and renormalized to unit residual norm whenever their M1 mass falls into
    (0, tau]; the S-th renormalization moves the row to L2 together with its
    remaining support.  Terminates in at most m iterations since every
    iteration removes one column.

    ``block`` holds each row a_i as b_i = D_i a_i; the outputs do not
    depend on the D_i.  Residual squared norms over M1 are kept per row and
    lose b_ij^2 as column j leaves M1; column masses sum_i b_ij^2 / Q_i (the
    D_i^2 cancel) change only when a row is renormalized, which only makes
    them grow, so the set of heavy columns only gains members while in M1.
    The move picks the smallest heavy column, as a rescan of M1 in column
    order would.  ``row_norm_sq`` is reported in the original units,
    Q_i / D_i^2 (1 for a zero row).
    Under the initial normalizers b_ij^2 <= Q_i, so each of the l rows adds
    at most 1 to a column's mass, which is then at most l: when tau/W > l
    no column is heavy and nothing moves.  That path returns at once,
    building no per-entry tables, masses, column sets or cut lists: it
    reads each row's squared norm, ``sum(map(mul, ints, ints))``, and
    reports every row in L1 and ``tuple(range(m))`` as M1.

    M1 is always the complement of M2, so a renormalization records only
    t_s = |M2| at that moment: M1 was then [m] - M2[:t_s].  A row in L2 has
    the parts M2[:t_2], M2[t_2:t_3], ..., M2[t_{S-1}:t_S] and the complement
    of M2[:t_S] (one part of all m columns when S = 1): between consecutive
    renormalizations the mass outside the later M1 is at least 1 - tau and
    the mass inside at most tau, which is the C1^2 squared-norm decay.  Each
    part's squared norm is sum b_ij^2 over it, divided by D_i^2.
    """
    if S < 1:
        raise ValueError(f"S must be >= 1, got {S}")
    w = Fraction(W)
    if w <= 0:
        raise ValueError(f"W must be positive, got {W}")
    ell, m = len(block.rows), block.m
    tau_num, tau_den = TAU.numerator, TAU.denominator
    threshold = TAU / w

    scales = [row.D for row in block.rows]
    resid = [sum(map(mul, row.ints, row.ints)) for row in block.rows]  # sum over M1 of b_ij^2
    q = [r if r > 0 else d * d for r, d in zip(resid, scales)]  # a zero row keeps norm 1
    t_num, t_den = threshold.numerator, threshold.denominator
    if t_num > ell * t_den:  # above ell no initial mass is heavy, and nothing moves
        return Decomposition1(
            S=S,
            W=w,
            L1=tuple(range(ell)),
            L2=(),
            M1=tuple(range(m)),
            M2=(),
            row_norm_sq=tuple(Fraction(qi, d * d) for qi, d in zip(q, scales)),
            renorm_counts=(0,) * ell,
            scale_partitions={},
        )
    col_sq: list[list[tuple[int, int]]] = [[] for _ in range(m)]  # (row, b_ij^2), b_ij != 0
    row_sq: list[list[tuple[int, int]]] = []  # per row, (column, b_ij^2), b_ij != 0
    for i, (cols, ints, _, _) in enumerate(block.rows):
        entries = [(j, b * b) for j, b in zip(cols, ints)]
        row_sq.append(entries)
        for j, sq in entries:
            col_sq[j].append((i, sq))
    # Initial column masses sum_i b_ij^2 / q_i, as integers over the common
    # L = lcm(q): column j's mass is col_num[j] / L.  It becomes a Fraction
    # in ``mass`` when a renormalization first changes it.
    common = math.lcm(*q)
    col_num = [0] * m
    for entries, qi in zip(row_sq, q):
        weight = common // qi
        for j, sq in entries:
            col_num[j] += sq * weight
    mass: dict[int, Fraction] = {}
    # A heap of the heavy columns; a column leaving M1 is dropped when it
    # surfaces.  Masses only grow, so each column crosses the threshold once.
    heavy = [j for j, num in enumerate(col_num) if num * t_den >= t_num * common]

    l1 = list(range(ell))
    l2: list[int] = []
    m1 = set(range(m))
    m2: list[int] = []
    renorms = [0] * ell
    cuts: list[list[int]] = [[] for _ in range(ell)]  # len(M2) at each renormalization

    def leave_m1(j: int) -> None:
        m1.remove(j)
        m2.append(j)
        for i, sq in col_sq[j]:
            resid[i] -= sq

    while heavy:
        pick = heapq.heappop(heavy)
        if pick not in m1:
            continue
        leave_m1(pick)
        departures: list[int] = []
        for i in l1:
            r = resid[i]
            if r > 0 and r * tau_den <= tau_num * q[i]:
                old = q[i]
                q[i] = r
                renorms[i] += 1
                cuts[i].append(len(m2))
                if renorms[i] == S:
                    departures.append(i)
                    continue  # its whole support leaves M1 below
                for j, sq in row_sq[i]:
                    if j in m1:
                        before = mass[j] if j in mass else Fraction(col_num[j], common)
                        mass[j] = before + Fraction(sq * (old - r), old * r)
                        if before < threshold <= mass[j]:
                            heapq.heappush(heavy, j)
        for i in departures:
            l1.remove(i)
            l2.append(i)
            for j, _ in row_sq[i]:
                if j in m1:
                    leave_m1(j)

    # Parts between the cut points t_2..t_S, in departure order, which the
    # output lists them in.
    partitions: dict[int, ScalePartition] = {}
    for i in l2:
        bounds = [0, *cuts[i][1:]]
        parts = [m2[a:b] for a, b in zip(bounds, bounds[1:])]
        parts.append(m1.union(m2[bounds[-1]:]))
        sq = dict(row_sq[i])
        norms = tuple(Fraction(sum(sq.get(j, 0) for j in p), scales[i] ** 2) for p in parts)
        partitions[i] = ScalePartition(
            parts=tuple(tuple(sorted(p)) for p in parts), C1=C1, squared_norms=norms, smallest_scale_sq=norms[-1]
        )

    # Final renormalization to unit residual norm; not a scale boundary.
    for i in l1:
        if resid[i] > 0:
            q[i] = resid[i]

    return Decomposition1(
        S=S,
        W=w,
        L1=tuple(l1),
        L2=tuple(sorted(l2)),
        M1=tuple(sorted(m1)),
        M2=tuple(m2),
        row_norm_sq=tuple(Fraction(qi, d * d) for qi, d in zip(q, scales)),
        renorm_counts=tuple(renorms),
        scale_partitions=partitions,
    )


def check_decomposition1(matrix: Matrix, d: Decomposition1) -> bool:
    """Exact verification of every Decomposition1 invariant.

    Shape mismatches raise; invariant failures return False.
    """
    rows = [as_fractions(row) for row in matrix]
    ell = len(rows)
    m = len(rows[0]) if rows else 0
    if len(d.row_norm_sq) != ell or len(d.renorm_counts) != ell:
        raise ValueError("decomposition row metadata does not match the matrix")
    if sorted(d.L1 + d.L2) != list(range(ell)):
        raise ValueError("L1, L2 do not partition the row set")
    if sorted(d.M1 + d.M2) != list(range(m)):
        raise ValueError("M1, M2 do not partition the column set")
    if any(q <= 0 for q in d.row_norm_sq):
        return False
    # Rows of the effective block have residual norm exactly 0 or 1.
    for i in d.L1:
        residual = sum((rows[i][j] * rows[i][j] for j in d.M1), Fraction(0))
        if residual != 0 and residual != d.row_norm_sq[i]:
            return False
    # Columns of the effective block are strictly below W^{-1/2}.
    inv_w = 1 / d.W
    for j in d.M1:
        col_sq = sum(
            (rows[i][j] * rows[i][j] / d.row_norm_sq[i] for i in d.L1), Fraction(0)
        )
        if col_sq >= inv_w:
            return False
    if Fraction(len(d.M2)) > C3 * ell * d.S * d.W:
        return False
    m1_set = set(d.M1)
    for i in d.L2:
        part = d.scale_partitions.get(i)
        if part is None or part.S != d.S:
            return False
        if not validate_scales(rows[i], part):
            return False
        if not m1_set <= set(part.parts[-1]):
            return False
    return True


@dataclass(frozen=True)
class Decomposition2:
    """Output of second_decomposition on a k x n covering system.

    Row blocks: K1 is zero on N1 u N2, K2 is zero on N1 with large support
    on N2, K3 has unit rows and small column norms on N1, K4 rows have S
    scales on N1 u N2 with the smallest scale containing N1.  ``trace``
    records each absorption round.  The guarantee hypotheses are evaluated
    exactly and reported as flags; |N1| >= n/2 is only asserted when all of
    them held.
    """

    K1: tuple[int, ...]
    K2: tuple[int, ...]
    K3: tuple[int, ...]
    K4: tuple[int, ...]
    N1: tuple[int, ...]
    N2: tuple[int, ...]
    N3: tuple[int, ...]
    row_norm_sq: tuple[Fraction, ...]
    scale_partitions: Mapping[int, ScalePartition]
    S: int
    W: Fraction
    gamma: Fraction
    hyp_product_ok: bool
    hyp_product_lhs: Fraction
    hyp_product_rhs: Fraction
    hyp_rowcount_ok: bool
    hyp_support_ok: bool
    # All guarantees require an essential-shaped input: the per-row support
    # bound 2k caps the dense-column absorption at n/8, which the two numeric
    # hypotheses alone do not.  Derived from the three flags, never passed.
    hypotheses_ok: bool = field(init=False)
    trace: tuple[dict, ...]

    def __post_init__(self) -> None:
        hypotheses_ok = self.hyp_product_ok and self.hyp_rowcount_ok and self.hyp_support_ok
        object.__setattr__(self, "hypotheses_ok", hypotheses_ok)


def _iroot(x: int, p: int) -> int:
    """floor(x ** (1/p)) for integers x >= 1 and p >= 1 (Newton's method from
    above)."""
    if x.bit_length() <= p:  # x < 2**p
        return 1
    t = 1 << -(-x.bit_length() // p)
    while True:
        u = ((p - 1) * t + x // t ** (p - 1)) // p
        if u >= t:
            return t
        t = u


def _gamma_exceeds(count: int, base: int, gamma: Fraction) -> bool:
    """Exact test of count > base**gamma for ints count, base >= 0 and
    rational gamma = p/q in (0, 1], with no power larger than twice the
    size of count or base, however large p and q are.

    Bit lengths settle most cases, with 2**(a-1) <= count < 2**a and
    2**((b-1) gamma) <= base**gamma < 2**(b gamma); every gamma below
    1/b decides count >= 2 so.  Where those bounds overlap, count**q equals
    base**p only when count = t**p and base = t**q for an integer t (gamma
    is reduced); otherwise the sign of q ln count - p ln base is read with
    ``decimal`` at growing precision, with ten times its rounding error to
    spare.
    """
    p, q = gamma.numerator, gamma.denominator
    if count == 0 or base == 0:  # 0**gamma = 0
        return count > base
    a, b = count.bit_length(), base.bit_length()
    if q * (a - 1) >= p * b:
        return True
    if q * a <= p * (b - 1):
        return False
    t = _iroot(count, p)
    # t >= 2 with q (bit_length(t) - 1) >= b has t**q >= 2**b > base.
    if t**p == count and (t == 1 or q * (t.bit_length() - 1) < b) and t**q == base:
        return False
    prec = 32
    while True:
        ctx = Context(prec=prec)
        x, y = ctx.multiply(q, ctx.ln(count)), ctx.multiply(p, ctx.ln(base))
        diff = ctx.subtract(x, y)
        if abs(diff) > ctx.scaleb(ctx.add(x, y), 2 - prec):
            return diff > 0
        prec *= 2


def hypothesis_sides(n: int, k: int, S: int, W: Fraction) -> tuple[tuple[Fraction, Fraction], ...]:
    """(lhs, rhs) of the two hypotheses of the second decomposition:
    C3*k*S*W <= n/8 and k^5 (S*W)^2 <= C4^5 n^3.  Each side is one Fraction,
    built from integers."""
    w_num, w_den = W.numerator, W.denominator
    return (
        (Fraction(C3.numerator * k * S * w_num, C3.denominator * w_den), Fraction(n, 8)),
        (Fraction(k**5 * (S * w_num) ** 2, w_den**2), Fraction(C4.numerator**5 * n**3, C4.denominator**5)),
    )


def second_decomposition(
    system: CoveringSystem,
    S: int,
    W: Fraction | int | float,
    gamma: Fraction = Fraction(1, 3),
) -> Decomposition2:
    """Iterate the first decomposition, absorbing zero rows, until stable.

    Round structure: decompose the working submatrix; let Z be the working
    rows that are zero on the residual columns M1.  If Z is larger than
    |M2|^gamma, absorb Z and M2 wholesale; otherwise absorb a single Z row
    whose support on M2 is at most 4|Z|^2, if one exists; otherwise stop and
    name the blocks: K2 = Z, K3 = the unit-norm rows, K4 = the rows that
    acquired S scales in the final round, N1/N2 = the final M1/M2.

    The two hypotheses (C3*k*S*W <= n/8 and k^5 (SW)^2 <= C4^5 n^3) are
    evaluated and reported; the algorithm runs either way, but |N1| >= n/2 is
    only guaranteed when they hold.
    """
    if S < 1:
        raise ValueError(f"S must be >= 1, got {S}")
    w = Fraction(W)
    if w <= 0:
        raise ValueError(f"W must be positive, got {W}")
    k, n = system.k, system.n
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    cleared = system.cleared_rows
    supports, column_sizes = system.supports()

    # Dense columns: support size >= 16 k^2 / n, that is >= ceil(16 k^2 / n).
    dense = -(-16 * k * k // n)
    if max(column_sizes) >= dense:
        n3 = {j for j, size in enumerate(column_sizes) if size >= dense}
        work_cols = [j for j in range(n) if j not in n3]
    else:
        n3, work_cols = set(), list(range(n))
    k1 = {i for i in range(k) if n3.issuperset(supports[i])}
    work_rows = [i for i in range(k) if i not in k1]
    # Rows the filter absorbs keep their full squared norm; every other row
    # is in the first round's working block and takes its normalizer there.
    q_final: dict[int, Fraction] = {}
    for i in k1:
        _, ints, _, mult = cleared[i]
        q_final[i] = Fraction(sum(map(mul, ints, ints)), mult * mult)
    trace: list[dict] = []
    if n3 or k1:
        trace.append(
            {"round": 0, "action": "dense-column-filter", "absorbed_rows": sorted(k1), "absorbed_cols": sorted(n3)}
        )

    round_no = 0
    while True:
        round_no += 1
        if not work_rows:
            # Nothing left to decompose; the remaining columns are all N1.
            trace.append({"round": round_no, "rows": 0, "cols": len(work_cols), "action": "stop"})
            k2, k3, k4 = [], [], []
            n1, n2 = list(work_cols), []
            partitions = {}
            break
        block = system.block(work_rows, work_cols)
        # The call looks up the public name, so a wrapper bound to it sees it.
        d1 = first_decomposition(block, S, w)
        l1g = [work_rows[i] for i in d1.L1]
        l2g = [work_rows[i] for i in d1.L2]
        m2g = [work_cols[j] for j in d1.M2]
        for local, i in enumerate(work_rows):
            q_final[i] = d1.row_norm_sq[local]
        # The working columns are M1 and M2, so a row misses M1 exactly when
        # its support on them (its row of the block) lies in M2.
        m2_local = set(d1.M2)
        z = [work_rows[i] for i in d1.L1 if m2_local.issuperset(block.rows[i].support)]
        record = {
            "round": round_no,
            "rows": len(work_rows),
            "cols": len(work_cols),
            "L1": l1g,
            "L2": l2g,
            "M1_size": len(d1.M1),
            "M2": m2g,
            "Z": z,
        }
        if z and _gamma_exceeds(len(z), len(m2g), gamma):
            record["action"] = "absorb-zero-rows"
            trace.append(record)
            k1.update(z)
            n3.update(m2g)
            work_rows = [i for i in work_rows if i not in k1]
            work_cols = [j for j in work_cols if j not in n3]
            continue
        m2g_set = set(m2g)
        star = None
        limit = 4 * len(z) * len(z)
        for i in z:
            if len(m2g_set.intersection(supports[i])) <= limit:
                star = i
                break
        if star is not None:
            absorbed_cols = [j for j in supports[star] if j not in n3]
            record["action"] = "absorb-sparse-row"
            record["row"] = star
            record["absorbed_cols"] = absorbed_cols
            trace.append(record)
            k1.add(star)
            n3.update(absorbed_cols)
            work_rows = [i for i in work_rows if i not in k1]
            work_cols = [j for j in work_cols if j not in n3]
            continue
        record["action"] = "stop"
        trace.append(record)
        k2 = sorted(z)
        k3 = sorted(set(l1g) - set(z))
        k4 = sorted(l2g)
        n1 = [work_cols[j] for j in d1.M1]  # ascending, as M1 and work_cols are
        n2 = sorted(m2g)
        # work_cols is ascending, so each renumbered part stays sorted.
        partitions = {
            work_rows[local]: replace(part, parts=tuple(tuple(work_cols[j] for j in p) for p in part.parts))
            for local, part in d1.scale_partitions.items()
        }
        break

    (h1_lhs, h1_rhs), (h2_lhs, h2_rhs) = hypothesis_sides(n, k, S, w)
    h1 = h1_lhs <= h1_rhs
    h2 = h2_lhs <= h2_rhs
    h3 = max(map(len, supports)) <= 2 * k
    return Decomposition2(
        K1=tuple(sorted(k1)),
        K2=tuple(k2),
        K3=tuple(k3),
        K4=tuple(k4),
        N1=tuple(n1),
        N2=tuple(n2),
        N3=tuple(sorted(n3)),
        row_norm_sq=tuple(q_final[i] for i in range(k)),
        scale_partitions=partitions,
        S=S,
        W=w,
        gamma=gamma,
        hyp_product_ok=h1,
        hyp_product_lhs=h1_lhs,
        hyp_product_rhs=h1_rhs,
        hyp_rowcount_ok=h2,
        hyp_support_ok=h3,
        trace=tuple(trace),
    )


def check_decomposition2(system: CoveringSystem, d: Decomposition2) -> bool:
    """Exact verification of every Decomposition2 invariant.

    Shape mismatches raise; invariant failures return False.  The column
    l1-mass display sum_{i in K3} |v'_ij| < sqrt(16 k^2 / (n W)) is certified
    through its Cauchy-Schwarz majorant support_j * colnorm_j^2, keeping the
    check rational.
    """
    k, n = system.k, system.n
    if sorted(d.K1 + d.K2 + d.K3 + d.K4) != list(range(k)):
        raise ValueError("K1..K4 do not partition the row set")
    if sorted(d.N1 + d.N2 + d.N3) != list(range(n)):
        raise ValueError("N1..N3 do not partition the column set")
    if len(d.row_norm_sq) != k:
        raise ValueError("row_norm_sq length mismatch")
    rows = [dict(zip(*row)) for row in system.sparse_rows]  # each row's nonzero entries by column
    n12 = d.N1 + d.N2
    thresh16 = Fraction(16 * k * k, n)
    column_sizes = system.supports()[1]
    for j in n12:
        if column_sizes[j] > thresh16:
            return False
    for i in d.K1:
        if any(j in rows[i] for j in n12):
            return False
    for i in d.K2:
        if any(j in rows[i] for j in d.N1):
            return False
        if sum(1 for j in d.N2 if j in rows[i]) < 4 * len(d.K2) ** 2:
            return False
    inv_w = 1 / d.W
    for i in d.K3:
        residual = sum((rows[i][j] * rows[i][j] for j in d.N1 if j in rows[i]), Fraction(0))
        if residual != d.row_norm_sq[i]:
            return False
    linf_rhs = Fraction(16 * k * k, n) / d.W
    for j in d.N1:
        col = [rows[i][j] * rows[i][j] / d.row_norm_sq[i] for i in d.K3 if j in rows[i]]
        col_sq = sum(col, Fraction(0))
        if col_sq > inv_w:
            return False
        if col_sq > 0 and len(col) * col_sq >= linf_rhs:
            return False
    n1_set = set(d.N1)
    coords = set(n12)
    for i in d.K4:
        part = d.scale_partitions.get(i)
        if part is None or part.S != d.S:
            return False
        if not validate_scales(system.sparse_rows[i].dense(n), part, coords=coords):
            return False
        if part.smallest_scale_sq <= 0:
            return False
        if not n1_set <= set(part.parts[-1]):
            return False
    if d.hypotheses_ok and 2 * len(d.N1) < n:
        return False
    return True
