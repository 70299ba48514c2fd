"""Reference essential covers."""

from __future__ import annotations

from fractions import Fraction

from .core import CoveringSystem, SparseRow


def lr_cover(n: int) -> CoveringSystem:
    """The n/2 + 1 hyperplane cover of {0,1}^n for even n.

    Row 0 is x_1 + ... + x_n = n/2; row i (1 <= i <= n/2) is
    x_{2i-1} - x_{2i} = 0.  Odd n is rejected: the even construction does not
    carry over verbatim and no guessed variant is shipped.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be an even integer >= 2, got {n}")
    one = Fraction(1)
    rows = [SparseRow(list(range(n)), [one] * n)]
    rows += [SparseRow([2 * i, 2 * i + 1], [one, Fraction(-1)]) for i in range(n // 2)]
    mu = (Fraction(n, 2),) + (Fraction(0),) * (n // 2)
    return CoveringSystem(n=n, k=n // 2 + 1, sparse_rows=tuple(rows), mu=mu)
