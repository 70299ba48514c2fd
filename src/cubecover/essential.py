"""Decide the essential-cover axioms and the 2k support bound, with witnesses.

A system is an essential cover when (E1) every vertex lies on some hyperplane,
(E2) every variable appears in some row, and (E3) every row owns a vertex
exclusively.  ``verify_essential`` is the one entry point for all three
axioms and the 2k support bound.  It decides E1 and E3 in a single exact
sweep of the cube (``cube._coverage_sweep``) that classifies the vertices in
code order, block by block, into those on no row and those on exactly one
row, and E2 and the bound from the rows' supports.  The sweep stops at its
last witness: once it has the smallest uncovered vertex and each row's
smallest exclusive vertex, the report is fixed, so a non-cover whose rows all
own a vertex is not swept to the end; E1 holds exactly when no uncovered
vertex is found.  Every witness it reports is checked again against
the rational rows before it is returned, all of a sweep's witnesses in one
batch (``cube.rows_through``), so each row is read once for its k + 1
witnesses.  Above the enumeration cap it refuses rather than guess: its
output feeds certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import ENUMERATION_CAP, CapExceededError, CoveringSystem, Vertex
from .cube import _coverage_sweep, rows_through


@dataclass(frozen=True)
class EssentialReport:
    """Verdicts and witnesses for (E1)-(E3) plus the 2k support bound.

    ``is_essential`` is the conjunction of the three axioms; the support
    bound is reported alongside but is a theorem for essential systems, not
    part of the definition.
    """

    e1: bool
    e1_witness: Vertex | None  # uncovered vertex when e1 is False
    e2: bool
    unused_columns: tuple[int, ...]
    e3: bool
    e3_witnesses: tuple[Vertex | None, ...]
    support_bound_ok: bool
    support_sizes: tuple[int, ...]
    is_essential: bool


def _rechecked(
    system: CoveringSystem, min_code: int | None, excl: Sequence[int | None]
) -> tuple[Vertex | None, tuple[Vertex | None, ...]]:
    """The sweep's witnesses, re-verified in exact arithmetic by one
    ``rows_through`` call: the vertex of ``min_code`` must lie on no row and
    that of ``excl[i]`` on row i alone (None: no witness).  Raises
    RuntimeError at the first that fails."""
    claims: dict[int | None, int] = {} if min_code is None else {None: min_code}
    claims.update((i, c) for i, c in enumerate(excl) if c is not None)
    vertices = {row: Vertex.from_code(code, system.n) for row, code in claims.items()}
    for (row, x), hit in zip(vertices.items(), rows_through(system, list(vertices.values()))):
        if hit != ([] if row is None else [row]):
            wanted = "no row" if row is None else f"row {row} alone"
            raise RuntimeError(f"sweep witness {x.bits} lies on rows {hit}, not on {wanted}")
    return vertices.get(None), tuple([vertices.get(i) for i in range(len(excl))])


def verify_essential(system: CoveringSystem, cap: int = ENUMERATION_CAP) -> EssentialReport:
    """Full (E1)-(E3) report and the support bound.  E1 and E3 come from a
    single sweep that stops at its last witness and needs n at most ``cap``
    (E1 holds when it finds no uncovered vertex); E2 (every column has a
    nonzero entry, ``unused_columns`` lists those that have none) and the
    bound (max_i |supp(v_i)| <= 2k) from one ``supports()`` call."""
    if system.n > cap:
        raise CapExceededError(f"n={system.n} exceeds enumeration cap {cap}")
    _, min_code, excl = _coverage_sweep(system, collect_exclusive=True)
    e1 = min_code is None
    e1_witness, e3_witnesses = _rechecked(system, min_code, excl)
    rows, column_sizes = system.supports()
    unused = tuple([j for j, size in enumerate(column_sizes) if not size])
    e2 = not unused
    e3 = all(w is not None for w in e3_witnesses)
    sizes = tuple(map(len, rows))
    return EssentialReport(
        e1=e1,
        e1_witness=e1_witness,
        e2=e2,
        unused_columns=unused,
        e3=e3,
        e3_witnesses=e3_witnesses,
        support_bound_ok=max(sizes) <= 2 * system.k,
        support_sizes=sizes,
        is_essential=e1 and e2 and e3,
    )
