import dataclasses
import heapq
import math
import random
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from cubecover import (
    CoveringSystem,
    Decomposition1,
    ScalePartition,
    check_decomposition1,
    check_decomposition2,
    first_decomposition,
    lr_cover,
    second_decomposition,
    validate_scales,
)
from cubecover import decompose
from cubecover.core import C1, C3, TAU, ClearedBlock, cleared_block
from cubecover.refute import derived_column_budget, derived_scale_count


def random_rational_system(rng, max_k=10, max_n=40):
    k = rng.randint(1, max_k)
    n = rng.randint(max(1, k // 2), max_n)
    rows = []
    while len(rows) < k:
        row = [
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.4 else Fraction(0)
            for _ in range(n)
        ]
        if any(row):
            rows.append(row)
    mu = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
    return CoveringSystem.from_rows(rows, mu)


# --------------------------------------------------------- first decomposition


def test_first_identity_tiny_w_keeps_everything():
    # tau/W > 1 >= every column mass, so no column moves.
    d = first_decomposition(cleared_block([[1, 0], [0, 1]]), S=1, W=Fraction(1, 10000))
    assert Fraction(1, 10000) < TAU
    assert d.M2 == ()
    assert d.L1 == (0, 1)
    assert d.row_norm_sq == (Fraction(1), Fraction(1))
    assert check_decomposition1([[1, 0], [0, 1]], d)


def test_first_identity_w4_moves_all_columns():
    d = first_decomposition(cleared_block([[1, 0], [0, 1]]), S=1, W=4)
    assert sorted(d.M2) == [0, 1]
    assert d.M1 == ()
    assert d.L1 == (0, 1)  # rows end with zero residual norm, never renormalized
    assert len(d.M2) <= (1 + C1**2) * 2 * 1 * 4
    assert check_decomposition1([[1, 0], [0, 1]], d)


def test_first_single_entry():
    d = first_decomposition(cleared_block([[1]]), S=1, W=1)
    assert d.M2 == (0,)
    assert d.M1 == ()
    assert check_decomposition1([[1]], d)


def test_first_decay_row_acquires_scales():
    # Column masses force removals, each renormalization registers a scale.
    matrix = [[10000, 100, 1]]
    d = first_decomposition(cleared_block(matrix), S=2, W=1)
    assert d.L2 == (0,)
    assert d.renorm_counts == (2,)
    part = d.scale_partitions[0]
    assert part.S == 2
    assert validate_scales(matrix[0], part)
    assert set(d.M1) <= set(part.parts[-1])
    assert check_decomposition1(matrix, d)


def test_first_decomposition_terminates_within_column_count():
    rng = random.Random(9)
    for _ in range(20):
        sys_ = random_rational_system(rng, max_k=5, max_n=12)
        d = first_decomposition(cleared_block(sys_.rows), S=2, W=1)
        assert len(d.M2) <= sys_.n


def test_first_mass_accounting():
    # |M2| * tau / W <= k * S on sane budgets.
    rng = random.Random(10)
    for _ in range(40):
        sys_ = random_rational_system(rng, max_k=6, max_n=20)
        w = Fraction(rng.choice([1, 2, 4]))
        s = rng.randint(1, 3)
        d = first_decomposition(cleared_block(sys_.rows), S=s, W=w)
        assert Fraction(len(d.M2)) * TAU / w <= sys_.k * s


def test_check_decomposition1_accepts_outputs():
    rng = random.Random(11)
    for _ in range(60):
        sys_ = random_rational_system(rng, max_k=6, max_n=20)
        s = rng.randint(1, 3)
        w = Fraction(rng.choice([1, 2, 4, Fraction(1, 2)]))
        d = first_decomposition(cleared_block(sys_.rows), S=s, W=w)
        assert check_decomposition1(sys_.rows, d)


def test_check_decomposition1_detects_moved_column():
    matrix = [[1, 0], [0, 1]]
    d = first_decomposition(cleared_block(matrix), S=1, W=4)
    # Moving one M2 column back to M1 plants a column of effective norm 1 >= W^{-1/2}.
    j = d.M2[0]
    bad = dataclasses.replace(d, M1=(j,), M2=tuple(c for c in d.M2 if c != j))
    assert check_decomposition1(matrix, bad) is False


def test_check_decomposition1_shape_mismatch():
    d = first_decomposition(cleared_block([[1, 0], [0, 1]]), S=1, W=4)
    with pytest.raises(ValueError):
        check_decomposition1([[1, 0, 0], [0, 1, 0]], d)


# -------------------------------------------------------- second decomposition


def test_second_lr4_all_unit_block():
    d = second_decomposition(lr_cover(4), S=1, W=Fraction(1, 10000))
    assert d.K1 == d.K2 == d.K4 == ()
    assert d.K3 == (0, 1, 2)
    assert d.N1 == (0, 1, 2, 3)
    assert d.N3 == ()
    assert check_decomposition2(lr_cover(4), d)


def test_second_identity_trivial_partition():
    identity = CoveringSystem.from_rows(
        [[1 if i == j else 0 for j in range(4)] for i in range(4)], [0] * 4
    )
    d = second_decomposition(identity, S=1, W=Fraction(1, 10000))
    assert d.K1 == d.K2 == d.K4 == ()
    assert d.K3 == (0, 1, 2, 3)
    assert d.N2 == d.N3 == ()
    assert check_decomposition2(identity, d)


def test_second_dense_columns_land_in_n3():
    # k=2, n=64: the support threshold 16k^2/n = 1, so every used column is dense.
    rows = [[0] * 64 for _ in range(2)]
    rows[0][0] = rows[0][1] = 1
    rows[1][2] = rows[1][3] = 1
    sys_ = CoveringSystem.from_rows(rows, [1, 1])
    d = second_decomposition(sys_, S=1, W=1)
    assert Fraction(16 * 4, 64) == 1
    assert set(d.N3) >= {0, 1, 2, 3}
    assert d.K1 == (0, 1)
    assert check_decomposition2(sys_, d)


def test_second_absorbs_sparse_zero_row():
    sys_ = CoveringSystem.from_rows([[1] + [0] * 7], [0])
    d = second_decomposition(sys_, S=1, W=Fraction(26, 100))
    assert d.K1 == (0,)
    assert d.N3 == (0,)
    assert len(d.N1) == 7
    assert check_decomposition2(sys_, d)
    actions = [t["action"] for t in d.trace]
    assert "absorb-sparse-row" in actions


def test_second_decomposition_property_random():
    rng = random.Random(12)
    for _ in range(60):
        sys_ = random_rational_system(rng, max_k=6, max_n=24)
        s = rng.randint(1, 3)
        w = Fraction(rng.choice([1, 2, 4]))
        d = second_decomposition(sys_, S=s, W=w)
        assert check_decomposition2(sys_, d), (sys_, d)


def test_second_decomposition_lr_covers():
    for n in range(4, 17, 2):
        sys_ = lr_cover(n)
        for s, w in ((1, Fraction(1)), (2, Fraction(2))):
            d = second_decomposition(sys_, S=s, W=w)
            assert check_decomposition2(sys_, d)


def test_second_hypotheses_hold_implies_large_n1():
    # Tiny W with a sparse system: all three hypotheses hold exactly.
    sys_ = CoveringSystem.from_rows([[1, -1] + [0] * 38], [0])
    d = second_decomposition(sys_, S=1, W=Fraction(1, 10**6))
    assert d.hyp_product_ok and d.hyp_rowcount_ok and d.hyp_support_ok
    assert 2 * len(d.N1) >= sys_.n
    assert check_decomposition2(sys_, d)


def test_second_hypotheses_fail_is_reported_not_fatal():
    d = second_decomposition(lr_cover(8), S=5, W=10)
    assert not d.hyp_product_ok
    assert isinstance(d.trace, tuple) and d.trace
    assert check_decomposition2(lr_cover(8), d)


def test_check_decomposition2_detects_small_support_violation():
    sys_ = CoveringSystem.from_rows([[1] + [0] * 7], [0])
    d = second_decomposition(sys_, S=1, W=Fraction(26, 100))
    # Pretend the absorbed row is a K2 row: its N2 support (empty) is < 4|K2|^2.
    bad = dataclasses.replace(d, K1=(), K2=(0,))
    assert check_decomposition2(sys_, bad) is False


def test_check_decomposition2_shape_mismatch():
    d = second_decomposition(lr_cover(4), S=1, W=1)
    with pytest.raises(ValueError):
        check_decomposition2(lr_cover(6), d)


def test_second_outer_loop_bounded():
    rng = random.Random(13)
    for _ in range(20):
        sys_ = random_rational_system(rng, max_k=8, max_n=20)
        d = second_decomposition(sys_, S=1, W=1)
        absorb_rounds = [t for t in d.trace if t.get("action", "").startswith("absorb")]
        assert len(absorb_rounds) <= sys_.k + sys_.n


def test_scale_registration_in_second_decomposition():
    # A steep gap-2 decay row is renormalized at every column removal and
    # departs with S = 2 scales; a wide flat row keeps per-column mass 1/10
    # below the move threshold tau/W ~ 0.127, anchoring M1 so the loop stops
    # with the decay row in K4.
    n = 14
    decay = [Fraction(0)] * n
    for j, e in enumerate((8, 6, 4, 2)):
        decay[j] = Fraction(10) ** e
    wide = [Fraction(0)] * n
    for j in range(4, 14):
        wide[j] = Fraction(1)
    sys_ = CoveringSystem.from_rows([decay, wide], [0, 5])
    d = second_decomposition(sys_, S=2, W=Fraction(1, 1000))
    assert d.K4 == (0,)
    assert d.K3 == (1,)
    assert d.N1 == tuple(range(4, 14))
    part = d.scale_partitions[0]
    assert part.S == 2
    assert part.smallest_scale_sq > 0
    assert set(d.N1) <= set(part.parts[-1])
    assert validate_scales(sys_.rows[0], part, coords=set(d.N1) | set(d.N2))
    assert check_decomposition2(sys_, d)


# ------------------------------------- oracle for the incremental first stage


def _partition_from_snapshots(
    row: Sequence[Fraction],
    snapshots: Sequence[frozenset[int]],
    m: int,
) -> ScalePartition:
    """Scale parts from the M1 snapshots taken at each renormalization.

    With snapshots A_1 .. A_S (M1 at the moment of each renormalization),
    the parts are P_1 = [m] - A_2, P_s = A_s - A_{s+1}, P_S = A_S: between
    consecutive renormalizations the mass outside the next snapshot is at
    least (1 - tau) while the mass inside is at most tau, which is exactly
    the C1^2 squared-norm decay.
    """
    S = len(snapshots)
    everything = frozenset(range(m))
    if S == 1:
        parts: list[list[int]] = [sorted(everything)]
    else:
        parts = [sorted(everything - snapshots[1])]
        parts.extend(
            sorted(snapshots[s] - snapshots[s + 1]) for s in range(1, S - 1)
        )
        parts.append(sorted(snapshots[S - 1]))
    return ScalePartition.build(row, parts)


def reference_first_decomposition(matrix, S, W):
    """The exact-Fraction first decomposition kept as the oracle.

    It rescans M1 in column order for the first heavy column and recomputes
    every row's residual from scratch after each move; the library version
    must return an equal Decomposition1 on every input.
    """
    if S < 1:
        raise ValueError(f"S must be >= 1, got {S}")
    w = Fraction(W)
    if w <= 0:
        raise ValueError(f"W must be positive, got {W}")
    rows = [tuple(Fraction(c) for c in row) for row in matrix]
    ell = len(rows)
    m = len(rows[0]) if rows else 0
    tau = TAU
    threshold = tau / w

    supports = [frozenset(j for j, c in enumerate(row) if c != 0) for row in rows]
    q: list[Fraction] = []
    for row in rows:
        full = sum((c * c for c in row), Fraction(0))
        q.append(full if full > 0 else Fraction(1))
    l1 = set(range(ell))
    l2: list[int] = []
    m1 = set(range(m))
    m2: list[int] = []
    renorms = [0] * ell
    snapshots: list[list[frozenset[int]]] = [[] for _ in range(ell)]
    partitions: dict = {}

    while True:
        pick = None
        for j in sorted(m1):
            mass = sum((rows[i][j] * rows[i][j] / q[i] for i in l1), Fraction(0))
            if mass >= threshold:
                pick = j
                break
        if pick is None:
            break
        m1.remove(pick)
        m2.append(pick)
        departures: list[int] = []
        for i in sorted(l1):
            residual = sum((rows[i][j] * rows[i][j] for j in m1), Fraction(0))
            p = residual / q[i]
            if 0 < p <= tau:
                q[i] = residual
                renorms[i] += 1
                snapshots[i].append(frozenset(m1))
                if renorms[i] == S:
                    departures.append(i)
        for i in departures:
            l1.remove(i)
            l2.append(i)
            partitions[i] = _partition_from_snapshots(rows[i], snapshots[i], m)
            moved = sorted(supports[i] & m1)
            m1 -= supports[i]
            m2.extend(moved)

    for i in sorted(l1):
        residual = sum((rows[i][j] * rows[i][j] for j in m1), Fraction(0))
        if residual > 0:
            q[i] = residual

    return Decomposition1(
        L1=tuple(sorted(l1)),
        L2=tuple(sorted(l2)),
        M1=tuple(sorted(m1)),
        M2=tuple(m2),
        row_norm_sq=tuple(q),
        scale_partitions=partitions,
        renorm_counts=tuple(renorms),
        S=S,
        W=w,
    )


def _decay_row(rng, n):
    """A few entries falling by about 1000x each: every move of the largest
    entry leaves a residual below tau, so the row renormalizes and departs."""
    row = [Fraction(0)] * n
    for t, j in enumerate(rng.sample(range(n), min(n, rng.randint(2, 5)))):
        row[j] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), 1000**t * rng.randint(1, 4))
    return row


def _oracle_matrix(rng, k, n):
    """Criterion-08 rows (density 0.35), a quarter of them replaced by decay
    rows, and one all-zero row, as absorption rounds can hand the first stage."""
    rows = []
    for i in range(k):
        if i == 0:
            rows.append([Fraction(0)] * n)
        elif i % 4 == 1:
            rows.append(_decay_row(rng, n))
        else:
            rows.append([Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.35 else Fraction(0)
                         for _ in range(n)])
    return rows


def _oracle_grid():
    """(label, matrix, S, W): a Latin square over (k, n), so every S and every
    W meets every k and every n, plus LR covers under each W."""
    rng = random.Random(2209)
    ks, ns, ss = (5, 20, 40), (30, 100, 200), (1, 2, 3)
    for a, k in enumerate(ks):
        for b, n in enumerate(ns):
            ws = (("tiny", Fraction(1, 10**6)), ("1", Fraction(1)), ("derived", derived_column_budget(n, k)))
            s, (w_name, w) = ss[(a + b) % 3], ws[(a + 2 * b) % 3]
            yield f"random-k{k}-n{n}-S{s}-W{w_name}", _oracle_matrix(rng, k, n), s, w
    # Moving column 0 leaves row 0 with p = 1 / (1 + C1^2) = tau exactly: the
    # renormalization test is inclusive at the boundary.
    for s in (1, 2):
        yield f"boundary-p-equals-tau-S{s}", [[C1, 1, 0], [1, C1, 1]], s, Fraction(1)
    for n in (6, 12, 20):
        ws = (("tiny", Fraction(1, 10**6)), ("1", Fraction(1)), ("derived", derived_column_budget(n, n // 2 + 1)))
        for s, (w_name, w) in zip(ss, ws):
            yield f"lr-n{n}-S{s}-W{w_name}", lr_cover(n).rows, s, w
    # Every column's mass is exactly tau / W = 1/4: the heavy test is inclusive.
    yield "boundary-mass-equals-threshold", [[1, 1, 1, 1]], 1, 4 * TAU
    # Under W = 1/10000 some column turns heavy only once two renormalizations
    # have both added to its mass.
    for seed in (28, 150):
        rng = random.Random(seed)
        k, n = rng.choice((4, 6, 8)), rng.choice((6, 8, 12))
        rows = [_decay_row(rng, n) if rng.random() < 0.7 else
                [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.5 else Fraction(0)
                 for _ in range(n)] for _ in range(k)]
        yield f"mass-from-two-renorms-{seed}", rows, rng.choice((2, 3, 4)), Fraction(1, 10000)
    # Two rows of S + 1 entries falling by at least 1000/3 each, on disjoint
    # columns, and a flat row: each move of a decay row's largest entry
    # renormalizes it, so it departs with S parts, S - 2 of them in the middle.
    rng = random.Random(2212)
    for s, w_name, w in ((3, "1", Fraction(1)), (4, "1over10", Fraction(1, 10)), (5, "1over1000", Fraction(1, 1000))):
        n = 2 * (s + 1) + 6
        cols = rng.sample(range(n), n)
        rows = [[Fraction(0)] * n for _ in range(3)]
        for i in range(2):
            for t, j in enumerate(cols[i * (s + 1):(i + 1) * (s + 1)]):
                rows[i][j] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), 1000**t)
        for j in cols[2 * (s + 1):]:
            rows[2][j] = Fraction(rng.randint(1, 3), rng.randint(1, 4))
        yield f"decay-rows-n{n}-S{s}-W{w_name}", rows, s, w


ORACLE_GRID = list(_oracle_grid())


@pytest.mark.parametrize("label, matrix, s, w", ORACLE_GRID, ids=[case[0] for case in ORACLE_GRID])
def test_first_decomposition_matches_reference(label, matrix, s, w):
    assert first_decomposition(cleared_block(matrix), s, w) == reference_first_decomposition(matrix, s, w)


def test_oracle_grid_reaches_departures_and_moves():
    # The grid is only an oracle if it exercises each branch of the kernel.
    results = [first_decomposition(cleared_block(m), s, w) for _, m, s, w in ORACLE_GRID]
    assert any(d.L2 for d in results)
    assert any(d.M2 and d.M1 for d in results)
    assert any(not d.M2 for d in results)
    assert any(d.renorm_counts and 0 < max(d.renorm_counts) < d.S for d in results)
    assert any(part.S >= 3 for d in results for part in d.scale_partitions.values())


def _dense(block):
    """The rational matrix a ClearedBlock stands for: b_j / D on each row's support."""
    rows = []
    for row in block.rows:
        dense = [Fraction(0)] * block.m
        for j, b in zip(row.support, row.ints):
            dense[j] = Fraction(b, row.D)
        rows.append(dense)
    return rows


def _restricted_block_cases():
    """(full rows, columns kept, S, W): rows with denominators 1-7 over n
    columns, some decay rows, zero columns, and a kept column subset that
    drops some rows' only large denominators, or all of a row's support."""
    rng = random.Random(2211)
    for _ in range(150):
        k, n = rng.randint(1, 10), rng.randint(2, 40)
        density = rng.uniform(0.1, 0.8)
        zero_cols = set(rng.sample(range(n), rng.randint(0, n // 3)))
        rows = []
        for _ in range(k):
            if rng.random() < 0.2:
                rows.append(_decay_row(rng, n))
                continue
            rows.append([Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                         if j not in zero_cols and rng.random() < density else Fraction(0) for j in range(n)])
        kept = sorted(rng.sample(range(n), rng.randint(1, n)))
        s = rng.randint(1, 3)
        w = rng.choice((Fraction(1, 10**6), Fraction(1, 10), Fraction(1), Fraction(4), derived_column_budget(n, k)))
        yield rows, kept, s, w


def test_cleared_block_entry_matches_dense_and_reference():
    seen = {"larger D": 0, "zero row": 0, "L2": 0}
    for rows, kept, s, w in _restricted_block_cases():
        index = {j: t for t, j in enumerate(kept)}
        block = ClearedBlock([row.restricted(index) for row in cleared_block(rows).rows], len(kept))
        dense = [[row[j] for j in kept] for row in rows]
        assert _dense(block) == dense
        ours = first_decomposition(block, s, w)
        for other in (first_decomposition(cleared_block(dense), s, w), reference_first_decomposition(dense, s, w)):
            for field in dataclasses.fields(Decomposition1):
                assert getattr(ours, field.name) == getattr(other, field.name), field.name
        for full, restricted in zip(block.rows, cleared_block(dense).rows):
            seen["larger D"] += full.D != restricted.D
            seen["zero row"] += not full.support
        seen["L2"] += bool(ours.L2)
    assert all(count >= 5 for count in seen.values()), seen


def test_second_decomposition_matches_reference_first_stage(monkeypatch):
    import cubecover.decompose as decompose_mod

    rng = random.Random(2210)
    cases = [(random_rational_system(rng, max_k=12, max_n=60), rng.randint(1, 3), Fraction(rng.choice([1, 2, 4])))
             for _ in range(12)]
    cases.append((CoveringSystem.from_rows([_decay_row(rng, 40) for _ in range(6)], [0] * 6), 2, Fraction(1)))
    ours = [second_decomposition(system, s, w) for system, s, w in cases]
    calls = []

    def reference_on_dense_block(block, S, W):
        # The second decomposition hands over each round's cleared block;
        # the reference runs on the rational matrix it stands for.
        calls.append(block)
        return reference_first_decomposition(_dense(block), S, W)

    monkeypatch.setattr(decompose_mod, "first_decomposition", reference_on_dense_block)
    assert [second_decomposition(system, s, w) for system, s, w in cases] == ours
    assert len(calls) >= len(cases)


def test_second_decomposition_k60_n400_under_a_second():
    import time

    rng = random.Random(60400)
    rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.35 else Fraction(0)
             for _ in range(400)] for _ in range(60)]
    system = CoveringSystem.from_rows(rows, [0] * 60)
    start = time.perf_counter()
    d = second_decomposition(system, derived_scale_count(400), derived_column_budget(400, 60))
    # The all-Fraction rescan took about 16-20 s on a 2-vCPU Xeon; the
    # incremental kernel takes about 0.1 s there.
    assert time.perf_counter() - start < 1.0
    assert check_decomposition2(system, d)


# ------------------------------- oracle for the threshold test of the first stage


def _first_decomposition_building_every_mass(matrix, S, W):
    """``first_decomposition`` as it stood before it skipped the column masses
    when tau/W exceeds the row count, kept verbatim (docstring aside) as the
    oracle of that skip: it always builds the masses and scans them for
    heavy columns."""
    if S < 1:
        raise ValueError(f"S must be >= 1, got {S}")
    w = Fraction(W)
    if w <= 0:
        raise ValueError(f"W must be positive, got {W}")
    if not isinstance(matrix, ClearedBlock):
        matrix = cleared_block(matrix)
    ell, m = len(matrix.rows), matrix.m
    tau = TAU
    tau_num, tau_den = tau.numerator, tau.denominator
    threshold = tau / w

    scales: list[int] = []
    col_sq: list[list[tuple[int, int]]] = [[] for _ in range(m)]  # (row, b_ij^2), b_ij != 0
    row_sq: list[list[tuple[int, int]]] = []  # per row, (column, b_ij^2), b_ij != 0
    for i, (cols, ints, _, mult, _) in enumerate(matrix.rows):
        scales.append(mult)
        entries = [(j, b * b) for j, b in zip(cols, ints)]
        row_sq.append(entries)
        for j, sq in entries:
            col_sq[j].append((i, sq))
    resid = [sum(sq for _, sq in entries) for entries in row_sq]  # sum over M1 of b_ij^2
    q = [r if r > 0 else d * d for r, d in zip(resid, scales)]  # a zero row keeps norm 1
    # Initial column masses sum_i b_ij^2 / q_i, as integers over the common
    # L = lcm(q): column j's mass is col_num[j] / L.  It becomes a Fraction in
    # ``mass`` when a renormalization first changes it.
    common = math.lcm(*q)
    col_num = [0] * m
    for entries, qi in zip(row_sq, q):
        weight = common // qi
        for j, sq in entries:
            col_num[j] += sq * weight
    mass: dict[int, Fraction] = {}
    # A heap of the heavy columns; a column leaving M1 is dropped when it
    # surfaces.  Masses only grow, so each column crosses the threshold once.
    heavy = [j for j, num in enumerate(col_num) if num * threshold.denominator >= threshold.numerator * common]

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


_entries = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 7, 1000, 10**6)))


@st.composite
def _threshold_blocks(draw):
    """(rows, S, tau/W): 1-6 rows over 1-8 columns, each a sparse random row,
    a decay row or a single entry in the shared column 0 (so a column of mass
    exactly l is common), with tau/W in {l - 1, l, just above l, 2l}."""
    ell, m = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rows = []
    for _ in range(ell):
        kind = draw(st.sampled_from(("sparse", "decay", "shared")))
        row = [Fraction(0)] * m
        if kind == "shared":
            row[0] = draw(_entries.filter(bool))
        elif kind == "decay":
            for t, j in enumerate(draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4, unique=True))):
                row[j] = Fraction(draw(st.sampled_from((-3, -1, 1, 2))), 1000**t)
        else:
            row = [draw(_entries) if draw(st.booleans()) else Fraction(0) for _ in range(m)]
        rows.append(row)
    threshold = draw(st.sampled_from((ell - 1, ell, ell + Fraction(1, 10**6), 2 * ell)))
    return rows, draw(st.integers(1, 3)), max(threshold, Fraction(1, 2))


@settings(max_examples=300, deadline=None)
@given(_threshold_blocks())
def test_first_decomposition_matches_the_mass_building_oracle_around_the_row_count(case):
    # Above tau/W = l the first decomposition returns before it builds any
    # mass; at l and below it takes the general path.  Either way each field
    # equals the mass-building oracle's.
    rows, s, threshold = case
    w = TAU / threshold
    ours, general = first_decomposition(cleared_block(rows), s, w), _first_decomposition_building_every_mass(rows, s, w)
    for field in dataclasses.fields(Decomposition1):
        assert getattr(ours, field.name) == getattr(general, field.name), field.name
    ell = len(rows)
    if threshold > ell:
        assert (ours.L1, ours.M1, ours.M2, ours.renorm_counts) == (
            tuple(range(ell)), tuple(range(len(rows[0]))), (), (0,) * ell)


# hypothesis_sides as it was before it built each side from integers, kept
# verbatim as the oracle (C3 and C4 are the modules' constants).
def _hypothesis_sides_oracle(n, k, S, W):
    C4 = decompose.C4
    return (C3 * k * S * W, Fraction(n, 8)), (k**5 * (S * W) ** 2, C4**5 * n**3)


@settings(max_examples=300)
@given(st.one_of(st.integers(1, 200), st.integers(1, 10**30)), st.integers(1, 10**5), st.integers(1, 300),
       st.one_of(st.fractions(min_value=Fraction(1, 10**12), max_value=10**6, max_denominator=10**12),
                 st.builds(lambda n, k: derived_column_budget(n, k), st.integers(1, 10**9), st.integers(1, 10**4))))
def test_hypothesis_sides_match_the_oracle(n, k, s, w):
    got = decompose.hypothesis_sides(n, k, s, w)
    assert got == _hypothesis_sides_oracle(n, k, s, w)
    assert all(type(side) is Fraction for pair in got for side in pair)


@given(st.one_of(st.integers(0, 70), st.integers(0, 10**7)), st.one_of(st.integers(0, 70), st.integers(0, 10**7)),
       st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=400)
def test_gamma_exceeds_matches_the_power_test(count, base, p, q):
    gamma = Fraction(min(p, q), max(p, q))
    assert decompose._gamma_exceeds(count, base, gamma) == (count**gamma.denominator > base**gamma.numerator)


@pytest.mark.parametrize("t", [1, 2, 3, 10, 10**6 + 3])
@pytest.mark.parametrize("gamma", [Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(5, 7)])
def test_gamma_exceeds_at_and_next_to_equality(t, gamma):
    # count**q == base**p exactly when count = t**p and base = t**q.
    p, q = gamma.numerator, gamma.denominator
    count, base = t**p, t**q
    for c, b in ((count, base), (count + 1, base), (count, base + 1), (count - 1, base), (count, base - 1)):
        assert decompose._gamma_exceeds(c, b, gamma) == (c**q > b**p)


@pytest.mark.parametrize("count, base, gamma, exceeds", [
    (2, 3, Fraction(1, 10**23), True),  # 3^(1/10^23) is just above 1
    (1, 3, Fraction(1, 10**23), False),
    (1, 0, Fraction(1, 10**40), True),
    (5, 5, Fraction(10**23 - 1, 10**23), True),
    (5, 5, Fraction(1), False),
    (3, 10**9, Fraction(1, 18), False),  # 10^(1/2) > 3
    (10**40 + 1, 10**60, Fraction(2, 3), True),  # a relative gap of 3/10^40
    (10**40 - 1, 10**60, Fraction(2, 3), False),
])
def test_gamma_exceeds_with_huge_terms(count, base, gamma, exceeds):
    assert decompose._gamma_exceeds(count, base, gamma) is exceeds
