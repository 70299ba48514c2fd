from fractions import Fraction

import pytest

from cubecover import lr_cover, verify_essential


def test_n2_matrix():
    sys_ = lr_cover(2)
    assert sys_.k == 2
    assert sys_.rows == ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1)))
    assert sys_.mu == (Fraction(1), Fraction(0))


def test_n4_matrix():
    sys_ = lr_cover(4)
    assert sys_.k == 3
    assert sys_.rows[0] == (Fraction(1),) * 4
    assert sys_.rows[1] == (Fraction(1), Fraction(-1), Fraction(0), Fraction(0))
    assert sys_.rows[2] == (Fraction(0), Fraction(0), Fraction(1), Fraction(-1))
    assert sys_.mu == (Fraction(2), Fraction(0), Fraction(0))


@pytest.mark.parametrize("bad", [3, 0, -2, 1])
def test_rejects_odd_or_nonpositive(bad):
    with pytest.raises(ValueError):
        lr_cover(bad)


@pytest.mark.parametrize("n", range(2, 13, 2))
def test_essential_with_expected_size(n):
    sys_ = lr_cover(n)
    assert sys_.k == n // 2 + 1
    report = verify_essential(sys_)
    assert report.is_essential


@pytest.mark.parametrize("n", range(2, 13, 2))
def test_support_profile(n):
    sys_ = lr_cover(n)
    sizes = [len(s) for s in sys_.supports()[0]]
    assert sizes == [n] + [2] * (n // 2)
    assert max(sizes) <= 2 * sys_.k
