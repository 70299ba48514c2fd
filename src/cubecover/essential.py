"""Decide the essential-cover axioms and the 2k support bound, with witnesses.

A system is an essential cover when (E1) every vertex lies on some hyperplane,
(E2) every variable appears in some row, and (E3) every row owns a vertex
exclusively.  ``verify_essential`` is the one entry point for E1 and E3: it
decides both in a single exhaustive sweep of the cube (``cube._coverage_sweep``)
that finds, block by block, the vertices on no row and the vertices on exactly
one row.  Every witness it reports is checked again against the rational rows
before it is returned, all of a sweep's witnesses in one batch
(``cube.rows_through``), so each row is read once for its k + 1 witnesses.
Above the enumeration cap it refuses rather than guess: its output feeds
certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import CapExceededError, CoveringSystem, Params, DEFAULT_PARAMS, Vertex
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


def check_variable_usage(system: CoveringSystem) -> tuple[bool, tuple[int, ...]]:
    """(E2): True iff every column has a nonzero entry; lists unused columns (0-indexed)."""
    unused = tuple(j for j, size in enumerate(system.supports()[1]) if size == 0)
    return (len(unused) == 0, unused)


def check_support_bound(system: CoveringSystem) -> tuple[bool, tuple[int, ...]]:
    """True iff max_i |supp(v_i)| <= 2k (a theorem for essential systems)."""
    sizes = tuple(map(len, system.supports()[0]))
    return max(sizes) <= 2 * system.k, sizes


def verify_essential(system: CoveringSystem, params: Params = DEFAULT_PARAMS) -> EssentialReport:
    """Full (E1)-(E3) report; E1 and E3 come from a single exhaustive sweep."""
    if system.n > params.enumeration_cap:
        raise CapExceededError(
            f"n={system.n} exceeds enumeration cap {params.enumeration_cap}"
        )
    uncovered, min_code, excl = _coverage_sweep(system, collect_exclusive=True)
    e1 = uncovered == 0
    e1_witness, e3_witnesses = _rechecked(system, min_code, excl)
    e2, unused = check_variable_usage(system)
    e3 = all(w is not None for w in e3_witnesses)
    support_ok, sizes = check_support_bound(system)
    return EssentialReport(
        e1=e1,
        e1_witness=e1_witness,
        e2=e2,
        unused_columns=unused,
        e3=e3,
        e3_witnesses=e3_witnesses,
        support_bound_ok=support_ok,
        support_sizes=sizes,
        is_essential=e1 and e2 and e3,
    )
