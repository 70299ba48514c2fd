"""Sign-vector separation and the uncovered-vertex finder for small column norms.

For a symmetric matrix M with nonnegative diagonal, some sign vector eps makes
every |(M(theta*eps))_t - zeta_t| at least M_tt * theta_t.  A sign vector that
is merely single-flip optimal for the quadratic objective
<M(theta*eps), theta*eps> - 2<theta*eps, zeta> already satisfies the
inequality, so the search here is strict steepest-ascent coordinate flipping
from a seeded random start rather than exhaustive maximization.

Both stages read each row's cleared form ``UnitRow.cleared``: the refute
pipeline hands over rows that carry it (``UnitRow.with_cleared``), other
callers' rows clear themselves on first use.  Any positive D works, as
both stages are invariant under it.  The small-norm precondition is exact:
column norms are integer sums over one common denominator.  The finder
turns the separated point into a randomized rounding distribution over the
cube, building the Gram matrix and the projection over the nonzero
coefficients, read as b / D (zero terms cannot change a float sum, so the
floats are those of the dense sums), and tests every candidate vertex with
one integer subset sum per row, exactly against a rational target.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Params, DEFAULT_PARAMS, UnitRow, Vertex

# Slack of the float checks: M's symmetry and diagonal in bang_signs, and
# ||y'||_inf <= 1 in the finder.
FLOAT_TOL = 1e-9


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
    Mu = [sum(rows[t][j] * u[j] for j in range(k)) for t in range(k)]
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
    objective = sum(Mu[t] * u[t] for t in range(k)) - 2.0 * sum(
        u[t] * zeta[t] for t in range(k)
    )
    return SignVector(signs=tuple(eps), flips=flips, objective=objective)


def check_small_norm_precondition(rows: Sequence[UnitRow]) -> SmallNormCheck:
    """Compute alpha, beta, ell and the product 2*alpha*beta*log(4*ell).

    Column norms are those of the unit-normalized rows: column j contributes
    sum_i c_ij^2 / q_i, exactly.  With each row's cleared form b_ij = D_i c_ij
    and D_i^2 q_i = P_i / R_i in lowest terms, the sum is
    sum_i b_ij^2 R_i (L / P_i) over the common L = lcm(P_i): integers, with
    beta = max_j (that sum) / L.
    """
    ell = len(rows)
    if ell == 0:
        return SmallNormCheck(alpha=0, beta=Fraction(0), ell=0, lhs=0.0, ok=True)
    m = len(rows[0])
    cleared = []  # per row: (support, cleared coefficients, P_i, R_i)
    for r in rows:
        if len(r) != m:
            raise ValueError("rows have inconsistent lengths")
        support, ints, _, mult = r.cleared
        if not support:
            raise ValueError("zero row")
        q = r.norm_sq * (mult * mult)
        cleared.append((support, ints, q.numerator, q.denominator))
    common = math.lcm(*[p for _, _, p, _ in cleared])
    supp = [0] * m
    col_sq = [0] * m
    for support, ints, p, rr in cleared:
        weight = rr * (common // p)
        for j, b in zip(support, ints):
            supp[j] += 1
            col_sq[j] += b * b * weight
    alpha = max(supp)
    beta = Fraction(max(col_sq), common)
    lhs = 2.0 * alpha * float(beta) * math.log(4.0 * ell)
    return SmallNormCheck(alpha=alpha, beta=beta, ell=ell, lhs=lhs, ok=lhs <= 1.0)


def find_uncovered_small_norm(
    rows: Sequence[UnitRow],
    targets: Sequence[Fraction | int],
    params: Params = DEFAULT_PARAMS,
    seed: int | None = None,
    check: SmallNormCheck | None = None,
) -> tuple[Vertex, int]:
    """Return a vertex off every hyperplane <coeffs_i, x> = targets_i, plus attempts.

    Requires the small-norm precondition; ``check`` is its result on these
    rows when the caller has computed it already.  Pipeline: theta = sqrt(2 log 4l),
    zeta = 2*mu - V*1, eps from the sign search on V V^T, y' = theta V^T eps
    (guaranteed ||y'||_inf <= 1), y = (y'+1)/2, then per-coordinate rounding
    P(w_j = 1) = y_j until all separations hold.  A candidate's inner product
    with row i is the subset sum s of the cleared row over D_i: a target t,
    which must be rational (a Fraction or an int, on the scale of coeffs), is
    hit iff s * den(t) == num(t) * D_i, exactly.
    """
    ell = len(rows)
    if ell == 0:
        raise ValueError("need at least one row")
    if len(targets) != ell:
        raise ValueError(f"expected {ell} targets, got {len(targets)}")
    for i, t in enumerate(targets):
        if not isinstance(t, (Fraction, int)):
            raise ValueError(f"targets[{i}] = {t!r} is not rational (a Fraction or an int)")
    m = len(rows[0])
    if check is None:
        check = check_small_norm_precondition(rows)
    if not check.ok:
        raise PlankPreconditionError(
            f"precondition 2*alpha*beta*log(4*ell) = {check.lhs:.6f} > 1", check
        )

    # Each row as its nonzero (column, coefficient / sqrt(q)) pairs in column
    # order.  A zero term leaves a float sum unchanged, so every sum below
    # equals its dense form bit for bit.  ``checks`` holds, per row, what the
    # rounding tests: the cleared (column, b_j) pairs, D and the target.
    vf, mu_f, checks = [], [], []
    for r, t in zip(rows, targets):
        support, ints, _, mult = r.cleared
        root = math.sqrt(float(r.norm_sq))
        # b / D is the coefficient's float: int true division is correctly
        # rounded, as float() of the Fraction is.
        vf.append([(j, b / mult / root) for j, b in zip(support, ints)])
        mu_f.append(float(t) / root)
        checks.append((list(zip(support, ints)), mult, t))
    theta = math.sqrt(2.0 * math.log(4.0 * ell))
    zeta = [2.0 * mu_f[i] - sum(v for _, v in vf[i]) for i in range(ell)]
    lookup = [dict(entries) for entries in vf]
    gram = [[0.0] * ell for _ in range(ell)]
    for i in range(ell):
        for i2 in range(i, ell):
            other = lookup[i2]
            gram[i][i2] = gram[i2][i] = sum(v * other[j] for j, v in vf[i] if j in other)
    seed = params.seed if seed is None else seed
    rng = random.Random(seed)
    sv = bang_signs(gram, zeta, [theta] * ell, seed=rng.getrandbits(63))
    column_sums = [0.0] * m
    for entries, sign in zip(vf, sv.signs):
        for j, v in entries:
            column_sums[j] += v * sign
    y_prime = [theta * c for c in column_sums]
    overflow = max(abs(c) for c in y_prime)
    if overflow > 1.0 + FLOAT_TOL:
        raise RuntimeError(
            f"||y'||_inf = {overflow} exceeds 1; the precondition should forbid this"
        )
    y = [min(1.0, max(0.0, (c + 1.0) / 2.0)) for c in y_prime]

    for attempt in range(1, params.sample_cap + 1):
        w = [1 if rng.random() < y_j else 0 for y_j in y]
        for terms, mult, t in checks:
            if sum(b for j, b in terms if w[j]) * t.denominator == t.numerator * mult:
                break
        else:
            return Vertex(tuple(w)), attempt
    raise SampleCapError(
        f"no separated vertex within {params.sample_cap} rounding samples", params.sample_cap
    )
