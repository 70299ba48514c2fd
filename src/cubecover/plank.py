"""Sign-vector separation and the uncovered-vertex finder for small column norms.

For a symmetric matrix M with nonnegative diagonal, some sign vector eps makes
every |(M(theta*eps))_t - zeta_t| at least M_tt * theta_t.  A sign vector that
is merely single-flip optimal for the quadratic objective
<M(theta*eps), theta*eps> - 2<theta*eps, zeta> already satisfies the
inequality, so the search here is strict steepest-ascent coordinate flipping
from a seeded random start rather than exhaustive maximization.

Both stages read a ``core.ClearedBlock`` and each row b = D a as the unit
vector a / ||a||, with ||a||^2 = sq / D^2 read off the cleared row
(``ClearedRow.sq``, the sum of b^2): the refute pipeline hands over the K3
rows of ``CoveringSystem.block``, other callers a matrix cleared by
``core.cleared_block``.  Any positive D works,
as both stages are invariant under it.  The small-norm precondition is
exact: column norms are integer sums over one common denominator.  The finder
turns the separated point into a randomized rounding distribution over the
cube, building the Gram matrix and the projection over the nonzero
coefficients, read as b / D (zero terms cannot change a float sum, so the
floats are those of the dense sums).  Each row is a plain list of floats
beside its support; two rows whose supports do not meet get 0.0 in the Gram
matrix with no sum, as on a plank system, whose rows have disjoint supports.
Every candidate vertex is tested with one integer subset sum per row, the
cleared row's value at it (``core._evaluator``, shared with the refute
samplers), exactly against the integer t * D of its rational target t; a
row whose t * D is no integer can never be hit and is not tested.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress
from operator import add, mul
from typing import Iterable, Sequence

from .core import ClearedBlock, Vertex, _evaluator

# Slack of the float checks: M's symmetry and diagonal in bang_signs, and
# ||y'||_inf <= 1 in the finder.
FLOAT_TOL = 1e-9


def _float_sum(values: Iterable[float]) -> float:
    """The plain left-to-right sum of ``values``, as ``sum`` gives it through
    Python 3.11.  From 3.12 on ``sum`` compensates the rounding of float
    terms, which moves the last bits of some sums and, through the sign
    search and the rounding draws, the vertex returned; every float sum of
    this module goes through here, so outputs are equal on every version."""
    return reduce(add, values, 0)


class PlankPreconditionError(ValueError):
    """The small-column-norm precondition 2*alpha*beta*log(4l) <= 1 fails."""

    def __init__(self, message: str, check: "SmallNormCheck"):
        super().__init__(message)
        self.check = check


class SampleCapError(RuntimeError):
    """Rejection sampling exhausted its cap (signals a bug or tolerance issue)."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


@dataclass(frozen=True)
class SignVector:
    """eps in {-1,+1}^k with flip-ascent bookkeeping."""

    signs: tuple[int, ...]
    flips: int = 0
    objective: float = 0.0

    def __post_init__(self) -> None:
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("sign entries must be +1 or -1")


@dataclass(frozen=True)
class SmallNormCheck:
    """alpha = max column support, beta = max column squared norm (exact),
    lhs = 2*alpha*beta*log(4*ell); ok iff lhs <= 1."""

    alpha: int
    beta: Fraction
    ell: int
    lhs: float
    ok: bool


def bang_signs(
    M: Sequence[Sequence[float]],
    zeta: Sequence[float],
    theta: Sequence[float],
    seed: int = 0,
) -> SignVector:
    """Find eps with |(M(theta*eps))_t - zeta_t| >= M_tt*theta_t for all t.

    M must be symmetric within tolerance with nonnegative diagonal, theta
    nonnegative.  Strict ascent: a flip is accepted only if it strictly
    increases the objective, so the search terminates; the accepted-flip
    count is reported on the result.
    """
    k = len(M)
    if k < 1:
        raise ValueError("M must be at least 1x1")
    rows = [list(map(float, r)) for r in M]
    if any(len(r) != k for r in rows):
        raise ValueError("M must be square")
    scale = 1.0 + max(abs(c) for r in rows for c in r)
    for s in range(k):
        for t in range(s + 1, k):
            if abs(rows[s][t] - rows[t][s]) > FLOAT_TOL * scale:
                raise ValueError(f"M is asymmetric at ({s},{t}) beyond tolerance")
        if rows[s][s] < -FLOAT_TOL * scale:
            raise ValueError(f"negative diagonal entry M[{s}][{s}] = {rows[s][s]}")
    zeta = [float(z) for z in zeta]
    theta = [float(t) for t in theta]
    if len(zeta) != k or len(theta) != k:
        raise ValueError("zeta and theta must have length k")
    if any(t < 0 for t in theta):
        raise ValueError("theta entries must be nonnegative")

    rng = random.Random(seed)
    eps = [1 if rng.getrandbits(1) else -1 for _ in range(k)]
    u = [theta[t] * eps[t] for t in range(k)]
    Mu = [_float_sum(map(mul, rows[t], u)) for t in range(k)]
    flips = 0
    while True:
        best_t = -1
        best_gain = 0.0
        for t in range(k):
            ut = u[t]
            gain = -4.0 * ut * (Mu[t] - zeta[t]) + 4.0 * rows[t][t] * ut * ut
            if gain > best_gain:
                best_gain = gain
                best_t = t
        if best_t < 0:  # no strictly improving flip; zero-gain ties are rejected
            break
        delta = -2.0 * u[best_t]
        u[best_t] += delta
        eps[best_t] = -eps[best_t]
        for t in range(k):
            Mu[t] += rows[t][best_t] * delta
        flips += 1
    objective = _float_sum(map(mul, Mu, u)) - 2.0 * _float_sum(map(mul, u, zeta))
    return SignVector(signs=tuple(eps), flips=flips, objective=objective)


def check_small_norm_precondition(block: ClearedBlock) -> SmallNormCheck:
    """Compute alpha, beta, ell and the product 2*alpha*beta*log(4*ell).

    Column norms are those of the rows read as unit vectors: column j
    contributes sum_i a_ij^2 / ||a_i||^2, exactly.  With each row's cleared
    form b_ij = D_i a_ij and P_i = sum_j b_ij^2 = D_i^2 ||a_i||^2 (the cleared
    row's ``sq``), the sum is sum_i b_ij^2 (L / P_i) over the common
    L = lcm(P_i): integers, with beta = max_j (that sum) / L.
    """
    ell = len(block.rows)
    if ell == 0:
        return SmallNormCheck(alpha=0, beta=Fraction(0), ell=0, lhs=0.0, ok=True)
    norms = [row.sq for row in block.rows]  # P_i
    if not all(norms):
        raise ValueError("zero row")
    common = math.lcm(*norms)
    supp = [0] * block.m
    col_sq = [0] * block.m
    for (support, ints, _, _, _), p in zip(block.rows, norms):
        weight = common // p
        for j, b in zip(support, ints):
            supp[j] += 1
            col_sq[j] += b * b * weight
    alpha = max(supp)
    beta = Fraction(max(col_sq), common)
    lhs = 2.0 * alpha * float(beta) * math.log(4.0 * ell)
    return SmallNormCheck(alpha=alpha, beta=beta, ell=ell, lhs=lhs, ok=lhs <= 1.0)


def find_uncovered_small_norm(
    block: ClearedBlock,
    targets: Sequence[Fraction | int],
    trials: int = 1000,
    seed: int = 0,
    check: SmallNormCheck | None = None,
) -> tuple[Vertex, int]:
    """Return a vertex off every hyperplane <a_i, x> = targets_i, plus
    attempts, for the rows b_i = D_i a_i of ``block``.

    Requires the small-norm precondition; ``check`` is its result on these
    rows when the caller has computed it already.  Pipeline: theta = sqrt(2 log 4l),
    zeta = 2*mu - V*1, eps from the sign search on V V^T, y' = theta V^T eps
    (guaranteed ||y'||_inf <= 1), y = (y'+1)/2, then per-coordinate rounding
    P(w_j = 1) = y_j, at most ``trials`` draws from ``seed``, until all
    separations hold.  A candidate's inner product with row i is the subset
    sum s of the cleared row over D_i: a target t, which must be rational (a
    Fraction or an int, on the scale of a_i), is hit iff s == t * D_i,
    exactly, so a row whose t * D_i is no integer is not tested.  A target
    beyond the float range is the infinity of its sign in the floats: the
    sign search's limit as t grows.
    """
    ell = len(block.rows)
    if ell == 0:
        raise ValueError("need at least one row")
    if len(targets) != ell:
        raise ValueError(f"expected {ell} targets, got {len(targets)}")
    for i, t in enumerate(targets):
        if not isinstance(t, (Fraction, int)):
            raise ValueError(f"targets[{i}] = {t!r} is not rational (a Fraction or an int)")
    if check is None:
        check = check_small_norm_precondition(block)
    if not check.ok:
        raise PlankPreconditionError(
            f"precondition 2*alpha*beta*log(4*ell) = {check.lhs:.6f} > 1", check
        )

    # Each row as the floats a_j / sqrt(q) of its nonzero entries, a list
    # beside its support (in column order), with q = ||a||^2.  A zero term
    # leaves a float sum unchanged, so every sum below equals its dense form
    # bit for bit.  ``tests`` holds the evaluators of the rows that the
    # rounding can hit: the cleared row with rhs t * D.
    m = block.m
    vf, mu_f, tests = [], [], []
    for (support, ints, _, mult, sq), t in zip(block.rows, targets):
        # The coefficients and the target are read scaled by 2^-e and q by
        # 4^-e, with 4^e near q, so that rows far from unit scale neither
        # underflow nor overflow a float.  A power of two changes no rounding:
        # while the unscaled values are in range, every float here is theirs.
        # Each is an int true division of shifted integers, correctly rounded
        # as float() of a Fraction is.
        q = Fraction(sq, mult * mult)
        e = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
        up, down = max(-e, 0), max(e, 0)
        root = math.sqrt((q.numerator << 2 * up) / (q.denominator << 2 * down))
        den = mult << down
        vf.append([(b << up) / den / root for b in ints])
        try:
            mu_f.append((t.numerator << up) / (t.denominator << down) / root)
        except OverflowError:  # not copysign(inf, t), which calls float(t)
            mu_f.append(math.inf if t > 0 else -math.inf)
        rhs, rest = divmod(t.numerator * mult, t.denominator)
        if not rest:  # else t * D is no integer, which no subset sum is
            tests.append(_evaluator((support, ints, rhs)))
    supports = [row.support for row in block.rows]
    theta = math.sqrt(2.0 * math.log(4.0 * ell))
    zeta = [2.0 * mu - _float_sum(v) for mu, v in zip(mu_f, vf)]
    # Rows whose supports do not meet have inner product 0.  Entry (i, i2),
    # i < i2, sums over row i's columns in order, looked up in row i2, which
    # is read into a dict once if it meets any earlier row.
    gram = [[0.0] * ell for _ in range(ell)]
    earlier: list[set[int]] = []
    for i2, (support, v) in enumerate(zip(supports, vf)):
        gram[i2][i2] = _float_sum(map(mul, v, v))
        other = None
        for i, columns in enumerate(earlier):
            if not columns.isdisjoint(support):
                if other is None:
                    other = dict(zip(support, v))
                gram[i][i2] = gram[i2][i] = _float_sum(x * other[j] for j, x in zip(supports[i], vf[i]) if j in other)
        earlier.append(set(support))
    rng = random.Random(seed)
    sv = bang_signs(gram, zeta, [theta] * ell, seed=rng.getrandbits(63))
    column_sums = [0.0] * m
    for support, v, sign in zip(supports, vf, sv.signs):
        for j, x in zip(support, v):
            column_sums[j] += x * sign
    y_prime = [theta * c for c in column_sums]
    overflow = max(map(abs, y_prime))
    if overflow > 1.0 + FLOAT_TOL:
        raise RuntimeError(
            f"||y'||_inf = {overflow} exceeds 1; the precondition should forbid this"
        )
    # y_j = min(1, max(0, (c_j + 1) / 2)).  The check above leaves each
    # (c_j + 1) / 2 within FLOAT_TOL / 2 of [0, 1], and a value inside [0, 1]
    # (never -0.0) is its own clip, so the clip runs only when one is outside.
    y = [(c + 1.0) / 2.0 for c in y_prime]
    if min(y) < 0.0 or max(y) > 1.0:
        y = [min(1.0, max(0.0, v)) for v in y]

    for attempt in range(1, trials + 1):
        w = [1 if rng.random() < y_j else 0 for y_j in y]
        for pick, ints, rhs in tests:
            if sum(compress(ints, pick(w))) == rhs:
                break
        else:
            return Vertex(tuple(w)), attempt
    raise SampleCapError(f"no separated vertex within {trials} rounding samples", trials)
