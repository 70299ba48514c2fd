"""End-to-end fuzz of the no-false-positive guarantee.

For random small systems the ground truth is computable by exhaustive
enumeration; whatever the refutation pipeline returns must be consistent
with it: an uncovered verdict needs a vertex that exact row-by-row
verification confirms, and a true cover must never yield a vertex.
"""

import random
from fractions import Fraction

from cubecover import (
    CoveringSystem,
    attempt_refutation,
    enumerate_uncovered,
    lr_cover,
)
from _oracle import rows_on


def random_system(rng):
    n = rng.randint(2, 12)
    k = rng.randint(1, 5)
    rows = []
    while len(rows) < k:
        density = rng.choice([0.3, 0.6, 1.0])
        row = [
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < density else Fraction(0)
            for _ in range(n)
        ]
        if any(row):
            rows.append(row)
    mu = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)]
    return CoveringSystem.from_rows(rows, mu)


def test_refutation_consistent_with_ground_truth():
    rng = random.Random(424242)
    refuted = 0
    for trial in range(60):
        system = random_system(rng)
        truth = enumerate_uncovered(system)
        out = attempt_refutation(system, seed=trial)
        if out.status == "uncovered":
            assert truth.uncovered_count > 0
            assert not rows_on(system, out.vertex)
            refuted += 1
        else:
            assert out.vertex is None
    # The pipeline is not complete on arbitrary systems, but it should
    # succeed on a healthy share of these loose random instances.
    assert refuted >= 10, refuted


def test_covers_with_redundant_rows_never_refuted():
    rng = random.Random(777)
    for n in (4, 6, 8):
        base = lr_cover(n)
        extra_rows = base.rows + (base.rows[1],) + (base.rows[0],)
        extra_mu = base.mu + (base.mu[1],) + (base.mu[0],)
        system = CoveringSystem.from_rows(extra_rows, extra_mu)
        assert enumerate_uncovered(system).uncovered_count == 0
        for seed in (0, 1, rng.randint(2, 10**6)):
            out = attempt_refutation(system, seed=seed)
            assert out.status == "failed"
            assert out.vertex is None


def test_permuted_covers_never_refuted():
    rng = random.Random(555)
    for n in (6, 8, 10):
        base = lr_cover(n)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [tuple(row[perm[j]] for j in range(n)) for row in base.rows]
        system = CoveringSystem.from_rows(rows, base.mu)
        assert enumerate_uncovered(system).uncovered_count == 0
        out = attempt_refutation(system, seed=n)
        assert out.status == "failed"
        assert out.vertex is None
