"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are pinned here; exact-arithmetic criteria use zero
tolerance by construction.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from cubecover import (
    CoveringSystem,
    Params,
    apply_rescaling,
    attempt_refutation,
    bang_signs,
    check_decomposition1,
    check_decomposition2,
    check_small_norm_precondition,
    cleared_block,
    concentration_window_prob,
    enumerate_uncovered,
    evaluate_row,
    find_uncovered_small_norm,
    first_decomposition,
    lr_cover,
    max_atom_probability,
    second_decomposition,
    verify_essential,
)
from cubecover.core import C0, C1


def report(criterion, ok, note=""):
    line = f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'}"
    if note:
        line += f"  ({note})"
    print(line)
    assert ok, line


def test_criterion_01_construction_conformance():
    """Every even n in 2..20: the reference cover is essential with n/2+1 rows."""
    t0 = time.perf_counter()
    ok = True
    t20 = None
    for n in range(2, 21, 2):
        system = lr_cover(n)
        start = time.perf_counter()
        rep = verify_essential(system)
        elapsed = time.perf_counter() - start
        if n == 20:
            t20 = elapsed
        ok = ok and rep.is_essential and system.k == n // 2 + 1
    ok = ok and t20 <= 10.0
    report(1, ok, f"n=20 sweep {t20:.2f}s, total {time.perf_counter()-t0:.2f}s")


def test_criterion_02_support_bound_theorem():
    """Essential-certified systems (and 50 rescaled variants) obey max supp <= 2k."""
    rng = random.Random(22002)
    ok = True
    variants = 0
    for n in range(2, 21, 2):
        system = lr_cover(n)
        assert verify_essential(system).is_essential
        sizes = [len(s) for s in system.supports()[0]]
        ok = ok and max(sizes) <= 2 * system.k
        for _ in range(5):
            factors = [Fraction(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(system.k)]
            scaled = apply_rescaling(system, factors)
            sizes = [len(s) for s in scaled.supports()[0]]
            ok = ok and max(sizes) <= 2 * scaled.k
            variants += 1
    report(2, ok and variants == 50, f"{variants} rescaled variants")


def test_criterion_03_littlewood_offord_conformance():
    """500 random integer vectors: exact max atom probability <= 1/sqrt(supp)."""
    rng = random.Random(33003)
    ok = True
    for _ in range(500):
        dim = rng.randint(1, 14)
        v = [rng.randint(-3, 3) for _ in range(dim)]
        if all(c == 0 for c in v):
            v[rng.randrange(dim)] = rng.choice([-3, -2, -1, 1, 2, 3])
        supp = sum(1 for c in v if c != 0)
        prob, _ = max_atom_probability(v)
        # p <= 1/sqrt(supp) iff p^2 * supp <= 1, exactly.
        ok = ok and prob * prob * supp <= 1
    report(3, ok)


def test_criterion_04_geometric_sharpness():
    """v = (1, 2, ..., 2^(n-1)): the largest atom probability is exactly 2^-n."""
    ok = True
    for n in range(1, 21):
        prob, _ = max_atom_probability([2**i for i in range(n)])
        ok = ok and prob == Fraction(1, 2**n)
    report(4, ok)


def test_criterion_05_concentration_window():
    """100 random unit rows (dim <= 12): window probability >= 1/C0, exactly."""
    rng = random.Random(55005)
    ok = True
    for _ in range(100):
        dim = rng.randint(1, 12)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(dim)]
        if all(c == 0 for c in coeffs):
            coeffs[rng.randrange(dim)] = Fraction(1)
        prob, window_ok = concentration_window_prob(coeffs)
        ok = ok and window_ok and prob * C0 >= 1
    report(5, ok)


def test_criterion_06_bang_inequality():
    """1000 random symmetric 8x8 instances: separation inequality plus
    single-flip optimality, cross-checked exhaustively over all 2^8 signs."""
    rng = random.Random(66006)
    k = 8
    all_signs = np.array(
        [[1 if (mask >> t) & 1 else -1 for t in range(k)] for mask in range(1 << k)],
        dtype=float,
    )
    t0 = time.perf_counter()
    ok = True
    for trial in range(1000):
        A = np.array([[rng.uniform(-1, 1) for _ in range(k)] for _ in range(k)])
        M = (A + A.T) / 2
        np.fill_diagonal(M, np.abs(np.diag(M)))
        zeta = np.array([rng.uniform(0, 2) for _ in range(k)])
        theta = np.array([rng.uniform(0, 2) for _ in range(k)])
        sv = bang_signs(M.tolist(), zeta.tolist(), theta.tolist(), seed=trial)
        eps = np.array(sv.signs, dtype=float)
        tol = 1e-9 * (1 + np.max(np.abs(M)))
        lhs = np.abs(M @ (theta * eps) - zeta)
        if not np.all(lhs >= np.diag(M) * theta - tol):
            ok = False
            break
        # Exhaustive objective table; the returned signs must beat all
        # single-flip neighbours.
        U = all_signs * theta
        objectives = np.einsum("ij,jk,ik->i", U, M, U) - 2 * U @ zeta
        mask = sum((1 << t) for t in range(k) if sv.signs[t] == 1)
        base = objectives[mask]
        for t in range(k):
            if objectives[mask ^ (1 << t)] > base + 1e-7:
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    report(6, ok and elapsed <= 30.0, f"{elapsed:.1f}s for 1000 instances")


def test_criterion_07_uncovered_vertex_finder():
    """100 seeded disjoint-support instances: a verified vertex within 20
    rounding samples each, mean attempts <= 4."""
    rng = random.Random(77007)
    attempts_seen = []
    ok = True
    for trial in range(100):
        layout = list(range(64))
        rng.shuffle(layout)
        rows, targets = [], []
        for i in range(4):
            coeffs = [Fraction(0)] * 64
            for j in layout[16 * i : 16 * i + 16]:
                coeffs[j] = Fraction(1, 4)
            rows.append(coeffs)
            targets.append(Fraction(2))  # the center value of each row
        check = check_small_norm_precondition(cleared_block(rows))
        ok = ok and check.ok and abs(check.lhs - 2 * (1 / 16) * math.log(16)) < 1e-12
        vertex, attempts = find_uncovered_small_norm(cleared_block(rows), targets, seed=trial)
        ok = ok and attempts <= 20
        attempts_seen.append(attempts)
        for r, t in zip(rows, targets):
            dot = sum((c for c, b in zip(r, vertex.bits) if b), Fraction(0))
            ok = ok and dot != t
    mean = sum(attempts_seen) / len(attempts_seen)
    report(7, ok and mean <= 4.0, f"mean attempts {mean:.2f}, max {max(attempts_seen)}")


def _random_rational_system(rng, max_k=10, max_n=40):
    k = rng.randint(1, max_k)
    n = rng.randint(max(2, k), max_n)
    rows = []
    while len(rows) < k:
        row = [
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.35 else Fraction(0)
            for _ in range(n)
        ]
        if any(row):
            rows.append(row)
    mu = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
    return CoveringSystem.from_rows(rows, mu)


def test_criterion_08_decomposition_postconditions():
    """200 random rational matrices plus all even lr covers to n=16: both
    checkers accept, |M2| respects its exact budget, and the hypotheses imply
    |N1| >= n/2."""
    rng = random.Random(88008)
    ok = True
    cases = []
    for _ in range(200):
        cases.append((_random_rational_system(rng), rng.randint(1, 3), Fraction(rng.choice([1, 2, 4]))))
    for n in range(2, 17, 2):
        cases.append((lr_cover(n), 1, Fraction(1)))
        cases.append((lr_cover(n), 2, Fraction(2)))
    # Hypothesis-satisfying corners: sparse essential-shaped systems with
    # budgets small enough that C3*k*S*W <= n/8 holds exactly.
    cases.append((CoveringSystem.from_rows([[1, -1] + [0] * 38], [0]), 1, Fraction(1, 10**6)))
    cases.append((lr_cover(4), 1, Fraction(1, 10**6)))
    cases.append(
        (
            CoveringSystem.from_rows(
                [[1, 1, 0, 0] + [0] * 28, [0, 0, 1, -1] + [0] * 28], [1, 0]
            ),
            2,
            Fraction(1, 10**7),
        )
    )
    hypothesis_hits = 0
    for system, s, w in cases:
        d1 = first_decomposition(cleared_block(system.rows), s, w)
        ok = ok and check_decomposition1(system.rows, d1)
        ok = ok and Fraction(len(d1.M2)) <= (1 + C1 * C1) * system.k * s * w
        d2 = second_decomposition(system, s, w)
        ok = ok and check_decomposition2(system, d2)
        if d2.hypotheses_ok:
            hypothesis_hits += 1
            ok = ok and 2 * len(d2.N1) >= system.n
        if not ok:
            break
    report(8, ok and hypothesis_hits > 0, f"{len(cases)} cases, {hypothesis_hits} with hypotheses holding")


def test_criterion_09_pipeline_soundness():
    """No false positives on true covers; verified vertices on 50 non-covers."""
    ok = True
    for n in range(2, 17, 2):
        out = attempt_refutation(lr_cover(n), Params(seed=n))
        ok = ok and out.status == "failed" and out.vertex is None
    rng = random.Random(99009)
    found = 0
    for trial in range(25):
        layout = list(range(64))
        rng.shuffle(layout)
        rows, mu = [], []
        for i in range(4):
            row = [Fraction(0)] * 64
            for j in layout[16 * i : 16 * i + 16]:
                row[j] = Fraction(1, 4)
            rows.append(row)
            mu.append(Fraction(2))
        system = CoveringSystem.from_rows(rows, mu)
        out = attempt_refutation(system, Params(seed=trial))
        ok = ok and out.status == "uncovered"
        if out.vertex is not None:
            ok = ok and not any(evaluate_row(system, i, out.vertex) for i in range(system.k))
            found += 1
    for trial in range(25):
        n = rng.randint(2, 40)
        coord = rng.randrange(n)
        bit = rng.randint(0, 1)
        row = [Fraction(0)] * n
        row[coord] = Fraction(1)
        system = CoveringSystem.from_rows([row], [bit])
        out = attempt_refutation(system, Params(seed=1000 + trial))
        ok = ok and out.status == "uncovered"
        if out.vertex is not None:
            ok = ok and not any(evaluate_row(system, i, out.vertex) for i in range(system.k))
            found += 1
    report(9, ok and found == 50, f"{found}/50 non-covers refuted with verified vertices")


def test_criterion_10_oracle_equivalence():
    """Exhaustive sweep vs naive per-vertex reference on 100 systems, bit for bit."""
    rng = random.Random(101010)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 12)
        k = rng.randint(1, 4)
        rows = []
        while len(rows) < k:
            row = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
            if any(row):
                rows.append(row)
        system = CoveringSystem.from_rows(rows, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)])
        uncovered = []
        for bits in itertools.product((0, 1), repeat=n):
            from cubecover import Vertex

            x = Vertex(bits)
            if not any(evaluate_row(system, i, x) for i in range(k)):
                uncovered.append(x)
        rng.choice([1, 2, 4])  # unused: drawn so that the seeded systems after it stay the same
        rep = enumerate_uncovered(system)
        ok = ok and rep.uncovered_count == len(uncovered)
        ok = ok and rep.witness == (min(uncovered) if uncovered else None)
        if not ok:
            break
    report(10, ok)
