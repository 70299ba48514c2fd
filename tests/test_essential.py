import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cubecover import (
    CapExceededError,
    CoveringSystem,
    Vertex,
    lr_cover,
    verify_essential,
)
from _oracle import apply_rescaling, rows_on


# E1 is decided by verify_essential, the one entry point for E1-E3 and the support bound.
def test_check_cover_lr6():
    report = verify_essential(lr_cover(6))
    assert report.e1 and report.e1_witness is None


def test_check_cover_single_hyperplane():
    report = verify_essential(CoveringSystem.from_rows([[1, 0, 0]], [0]))
    assert not report.e1
    assert report.e1_witness == Vertex((1, 0, 0))


def test_check_cover_lr4_missing_pair_row():
    base = lr_cover(4)
    sys_ = CoveringSystem.from_rows(
        (base.rows[0], base.rows[2]), (base.mu[0], base.mu[2])
    )
    report = verify_essential(sys_)
    assert not report.e1
    witness = report.e1_witness
    # Off the sum hyperplane and with x3 != x4.
    assert sum(witness.bits) != 2
    assert witness.bits[2] != witness.bits[3]


def test_check_cover_refuses_above_cap():
    with pytest.raises(CapExceededError, match="n=10 exceeds enumeration cap 8"):
        verify_essential(lr_cover(10), 8)


# E2 and the support bound are read off the verify_essential report.
def _variable_usage(system):
    report = verify_essential(system)
    return report.e2, report.unused_columns


def test_variable_usage():
    assert _variable_usage(lr_cover(4)) == (True, ())
    assert _variable_usage(CoveringSystem.from_rows([[1, 0]], [0])) == (False, (1,))
    identity = CoveringSystem.from_rows([[1, 0], [0, 1]], [0, 0])
    assert _variable_usage(identity) == (True, ())


def test_minimality_lr4():
    report = verify_essential(lr_cover(4))
    assert report.e3
    sys_ = lr_cover(4)
    for i, w in enumerate(report.e3_witnesses):
        assert rows_on(sys_, w) == [i]


def test_minimality_duplicated_row():
    base = lr_cover(4)
    sys_ = CoveringSystem.from_rows(base.rows + (base.rows[1],), base.mu + (base.mu[1],))
    report = verify_essential(sys_)
    witnesses = report.e3_witnesses
    assert not report.e3
    assert witnesses[1] is None and witnesses[3] is None  # the duplicated pair
    assert witnesses[0] is not None and witnesses[2] is not None


def test_minimality_trivial_single_row():
    report = verify_essential(CoveringSystem.from_rows([[1]], [0]))
    assert report.e3
    assert report.e3_witnesses == (Vertex((0,)),)


def _support_bound(system):
    report = verify_essential(system)
    return report.support_bound_ok, report.support_sizes


def test_support_bound_examples():
    ok, sizes = _support_bound(lr_cover(10))
    assert ok
    assert sizes == (10, 2, 2, 2, 2, 2)
    not_essential = CoveringSystem.from_rows([[1, 1, 1, 1]], [10])
    ok, sizes = _support_bound(not_essential)
    assert not ok  # 4 > 2k = 2; such a system is never an essential cover
    assert _support_bound(lr_cover(4)) == (True, (4, 2, 2))


def test_verify_essential_lr8():
    report = verify_essential(lr_cover(8))
    assert report.is_essential
    assert lr_cover(8).k == 5
    assert report.support_bound_ok


def test_verify_essential_with_redundant_row():
    base = lr_cover(8)
    sys_ = CoveringSystem.from_rows(base.rows + (base.rows[2],), base.mu + (base.mu[2],))
    report = verify_essential(sys_)
    assert report.e1 and report.e2
    assert not report.e3
    assert not report.is_essential


def test_verify_essential_uncovered_pair():
    report = verify_essential(CoveringSystem.from_rows([[1, 0], [0, 1]], [0, 0]))
    assert not report.e1
    assert report.e1_witness == Vertex((1, 1))
    assert not report.is_essential


def test_witness_soundness():
    rng = random.Random(99)
    for _ in range(20):
        n, k = rng.randint(2, 7), rng.randint(1, 4)
        rows = []
        while len(rows) < k:
            row = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            if any(row):
                rows.append(row)
        sys_ = CoveringSystem.from_rows(rows, [rng.randint(-2, 2) for _ in range(k)])
        report = verify_essential(sys_)
        if report.e1_witness is not None:
            assert not rows_on(sys_, report.e1_witness)
        for i, w in enumerate(report.e3_witnesses):
            if w is not None:
                assert rows_on(sys_, w) == [i]


def test_verdicts_invariant_under_rescaling():
    rng = random.Random(4)
    for n in (4, 6):
        sys_ = lr_cover(n)
        factors = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(sys_.k)]
        scaled = apply_rescaling(sys_, factors)
        a, b = verify_essential(sys_), verify_essential(scaled)
        assert (a.e1, a.e2, a.e3, a.is_essential) == (b.e1, b.e2, b.e3, b.is_essential)
        assert a.support_sizes == b.support_sizes


def test_essential_implies_support_bound():
    # The 2k bound is a theorem for essential systems; spot-check it.
    for n in range(2, 11, 2):
        report = verify_essential(lr_cover(n))
        assert report.is_essential
        assert report.support_bound_ok


def test_sweep_witnesses_are_rechecked(monkeypatch):
    import cubecover.essential as essential_mod

    # x0 = 0 and x0 = 1: the zero vertex lies on row 0 alone, (1, 0) on row 1 alone.
    sys_ = CoveringSystem.from_rows([[1, 0], [1, 0]], [0, 1])
    monkeypatch.setattr(essential_mod, "_coverage_sweep", lambda system, **kw: (None, 0, [None, None]))
    with pytest.raises(RuntimeError, match="not on no row"):
        verify_essential(sys_)
    monkeypatch.setattr(essential_mod, "_coverage_sweep", lambda system, **kw: (None, None, [0, 2]))
    report = verify_essential(sys_)
    assert (report.e1, report.e3) == (True, True)
    assert report.e3_witnesses == (Vertex((0, 0)), Vertex((1, 0)))
    monkeypatch.setattr(essential_mod, "_coverage_sweep", lambda system, **kw: (None, None, [2, 2]))
    with pytest.raises(RuntimeError, match="not on row 0 alone"):
        verify_essential(sys_)


def test_verify_rechecks_against_the_rational_rows(monkeypatch):
    import cubecover.core as core_mod

    # The sweep runs on cleared rows; one that reads row 0 of the LR cover as
    # sum = 4 instead of 3 calls the vertices with sum 3 and every pair split
    # uncovered.  The re-check reads the rational rows and finds them on row 0.
    honest, row0 = core_mod.clear_row, lr_cover(6).sparse_rows[0]

    def shifted(row, rhs=0):
        cleared = honest(row, rhs)
        return cleared._replace(rhs=cleared.rhs + cleared.D) if row == row0 else cleared

    monkeypatch.setattr(core_mod, "clear_row", shifted)
    with pytest.raises(RuntimeError, match=r"sweep witness \(0, 1, 0, 1, 0, 1\) lies on rows \[0\], not on no row"):
        verify_essential(lr_cover(6))


def _brute_force(system):
    """(e1, smallest uncovered vertex, each row's smallest vertex on it alone)
    from ``rows_on`` at every vertex, in code order."""
    uncovered, alone = None, [None] * system.k
    for code in range(1 << system.n):
        x = Vertex.from_code(code, system.n)
        hit = rows_on(system, x)
        if not hit and uncovered is None:
            uncovered = x
        elif len(hit) == 1 and alone[hit[0]] is None:
            alone[hit[0]] = x
    return uncovered is None, uncovered, tuple(alone)


@st.composite
def small_systems(draw):
    """Systems with k <= 8 rows on n <= 12 columns: random rows (on a subset
    sum of their own, or on any target), covers (x_j = 0 and x_j = 1 among
    the rows, or a rescaled LR cover with its columns permuted) and systems
    that fail E3 (a repeated row, or a row on no vertex)."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "random", "cover", "lr", "repeated", "empty row"]))
    if kind == "lr":
        n += n % 2
        base = lr_cover(n)
        cols = draw(st.permutations(range(n)))
        rows = [[row[j] for j in cols] for row in base.rows]
        return apply_rescaling(CoveringSystem.from_rows(rows, base.mu),
                               draw(st.lists(st.integers(1, 9), min_size=len(rows), max_size=len(rows))))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    rows, mu = [], []
    for _ in range(draw(st.integers(1, 6))):
        row = draw(st.lists(entry, min_size=n, max_size=n).filter(any))
        bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        rows.append(row)
        own = draw(st.sampled_from([True, True, True, False]))  # mostly a target the row reaches
        mu.append(sum(c for c, b in zip(row, bits) if b) if own else draw(st.integers(-4, 4)))
    if kind == "cover":
        j = draw(st.integers(0, n - 1))
        unit = [int(t == j) for t in range(n)]
        rows[:0], mu[:0] = [unit, unit], [0, 1]
    elif kind == "repeated":
        i = draw(st.integers(0, len(rows) - 1))
        rows.append(rows[i])
        mu.append(mu[i])
    elif kind == "empty row":
        rows.append([2] * n)
        mu.append(1)  # an even sum is never 1
    return CoveringSystem.from_rows(rows, mu)


@settings(max_examples=80, deadline=None)
@given(small_systems())
def test_verify_equals_brute_force(system):
    # verify stops at its last witness; what it reports must be what the
    # whole cube says, vertex by vertex.
    report = verify_essential(system)
    assert (report.e1, report.e1_witness, report.e3_witnesses) == _brute_force(system)
    assert report.e3 == all(w is not None for w in report.e3_witnesses)
