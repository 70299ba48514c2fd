import random
from fractions import Fraction

import pytest

from cubecover import (
    CapExceededError,
    CoveringSystem,
    Params,
    Vertex,
    apply_rescaling,
    check_support_bound,
    check_variable_usage,
    evaluate_row,
    lr_cover,
    verify_essential,
)


# E1 is decided by verify_essential, the one entry point for E1 and E3.
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
        verify_essential(lr_cover(10), Params(enumeration_cap=8))


def test_variable_usage():
    assert check_variable_usage(lr_cover(4)) == (True, ())
    assert check_variable_usage(CoveringSystem.from_rows([[1, 0]], [0])) == (False, (1,))
    identity = CoveringSystem.from_rows([[1, 0], [0, 1]], [0, 0])
    assert check_variable_usage(identity) == (True, ())


def test_minimality_lr4():
    report = verify_essential(lr_cover(4))
    assert report.e3
    sys_ = lr_cover(4)
    for i, w in enumerate(report.e3_witnesses):
        assert evaluate_row(sys_, i, w)
        assert not any(evaluate_row(sys_, j, w) for j in range(sys_.k) if j != i)


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


def test_support_bound_examples():
    ok, sizes = check_support_bound(lr_cover(10))
    assert ok
    assert sizes == (10, 2, 2, 2, 2, 2)
    not_essential = CoveringSystem.from_rows([[1, 1, 1, 1]], [10])
    ok, sizes = check_support_bound(not_essential)
    assert not ok  # 4 > 2k = 2; such a system is never an essential cover
    assert check_support_bound(lr_cover(4)) == (True, (4, 2, 2))


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
            assert not any(evaluate_row(sys_, i, report.e1_witness) for i in range(k))
        for i, w in enumerate(report.e3_witnesses):
            if w is not None:
                assert evaluate_row(sys_, i, w)
                assert not any(evaluate_row(sys_, j, w) for j in range(k) if j != i)


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
    monkeypatch.setattr(essential_mod, "_coverage_sweep", lambda system, **kw: (1, 0, [None, None]))
    with pytest.raises(RuntimeError, match="not on no row"):
        verify_essential(sys_)
    monkeypatch.setattr(essential_mod, "_coverage_sweep", lambda system, **kw: (0, None, [0, 2]))
    report = verify_essential(sys_)
    assert (report.e1, report.e3) == (True, True)
    assert report.e3_witnesses == (Vertex((0, 0)), Vertex((1, 0)))
    monkeypatch.setattr(essential_mod, "_coverage_sweep", lambda system, **kw: (0, None, [2, 2]))
    with pytest.raises(RuntimeError, match="not on row 0 alone"):
        verify_essential(sys_)


def test_verify_rechecks_against_the_rational_rows(monkeypatch):
    import cubecover.core as core_mod

    # The sweep runs on cleared rows; one that reads row 0 of the LR cover as
    # sum = 4 instead of 3 calls the vertices with sum 3 and every pair split
    # uncovered.  The re-check reads the rational rows and finds them on row 0.
    honest, row0 = core_mod.clear_row, lr_cover(6).rows[0]

    def shifted(row, rhs=0):
        cleared = honest(row, rhs)
        return cleared._replace(rhs=cleared.rhs + cleared.D) if tuple(row) == row0 else cleared

    monkeypatch.setattr(core_mod, "clear_row", shifted)
    with pytest.raises(RuntimeError, match=r"sweep witness \(0, 1, 0, 1, 0, 1\) lies on rows \[0\], not on no row"):
        verify_essential(lr_cover(6))
