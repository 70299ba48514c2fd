"""What the tests check the package against, and the package does not carry:
an exact membership oracle that shares no code with ``cube.rows_through``,
and the positive row rescaling of the metamorphic tests."""

from fractions import Fraction
from typing import Sequence

from cubecover import CoveringSystem, SparseRow, Vertex
from cubecover.core import as_fractions


def rows_on(system: CoveringSystem, x: Vertex) -> list[int]:
    """The ascending rows whose hyperplane holds ``x``: one ``Fraction`` sum
    per row over the dense rows."""
    if len(x) != system.n:
        raise ValueError(f"vertex has {len(x)} bits, expected {system.n}")
    return [i for i, (row, mu) in enumerate(zip(system.rows, system.mu))
            if sum((c for c, b in zip(row, x.bits) if b), Fraction(0)) == mu]


def apply_rescaling(system: CoveringSystem, factors: Sequence[Fraction | int]) -> CoveringSystem:
    """Return the system with row i replaced by phi_i * v_i and mu_i by phi_i * mu_i.

    The factors phi_i must be positive: hyperplane solution sets are then
    invariant.
    """
    factors = as_fractions(factors)
    if any(f <= 0 for f in factors):
        raise ValueError("rescaling factors must be positive")
    if len(factors) != system.k:
        raise ValueError(f"expected {system.k} factors, got {len(factors)}")
    rows = tuple([SparseRow(row.support, [f * c for c in row.values]) for f, row in zip(factors, system.sparse_rows)])
    mu = tuple(f * m for f, m in zip(factors, system.mu))
    return CoveringSystem(n=system.n, k=system.k, sparse_rows=rows, mu=mu)
