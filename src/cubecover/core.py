"""Exact-rational data model for hyperplane covering systems on the binary cube.

A covering system is a k x n rational matrix V together with a right-hand side
mu; row i defines the hyperplane <v_i, x> = mu_i over vertices x in {0,1}^n.
Membership is an exact predicate, so every scalar is an arbitrary-precision
rational.  Quantities that would be irrational (the 1/sqrt(q) factor of a
unit-normalized row) are never materialized; they are carried as a rational
row together with its rational squared norm, and all comparisons involving
them are performed on squares.

The exact kernels elsewhere work on integers through one helper,
``clear_row``: a row's nonzero entries and an optional right-hand side,
scaled by their least common denominator D.  ``CoveringSystem.cleared_rows``
(row i with mu_i) holds that form, computed on first use; it is the only
place a system's rows are cleared.  A stage that works on some rows and
columns takes them from there with ``ClearedRow.restricted`` (renumbered,
same D), ``CoveringSystem.restrict`` builds a subsystem that carries them,
and ``UnitRow.with_cleared`` a unit row that does.  ``parse_system`` parses
each distinct entry string once.

Results are written by one rule, ``wire``, the ``default=`` hook of every
``json.dumps`` that writes one: a rational is its ratstr "p" or "p/q", a
vertex its 0/1 bits, and a record (a dataclass) an object of its fields in
declaration order.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


class SystemFormatError(ValueError):
    """Malformed covering-system input (bad rational, zero row, shape mismatch)."""


class CapExceededError(ValueError):
    """An exhaustive operation was requested above the enumeration cap."""


def parse_rational(text: str, where: str = "") -> Fraction:
    """Parse "p" or "p/q" (optional sign) into a reduced Fraction.

    Rejects anything else, including float syntax; ``where`` is prepended to
    error messages for row/column attribution.
    """
    body = text.strip() if isinstance(text, str) else ""
    if _RATIONAL_RE.match(body):
        num, _, den = body.partition("/")
        if not den:
            return Fraction(int(num))
        if int(den):
            return Fraction(int(num), int(den))
        problem = f"zero denominator in {text!r}"
    else:
        problem = f"bad rational {text!r} (expected 'p' or 'p/q')"
    raise SystemFormatError(f"{where}: {problem}" if where else problem)


def as_fractions(values: Iterable[Fraction | int | str]) -> tuple[Fraction, ...]:
    """Each value as a Fraction: a Fraction as it is, a string through
    ``parse_rational``, anything else through ``Fraction()``."""
    return tuple([
        x if type(x) is Fraction else parse_rational(x) if isinstance(x, str) else Fraction(x)
        for x in values
    ])


def format_rational(x: Fraction) -> str:
    """Canonical reduced string form, "p" or "p/q" (the ``str`` of a Fraction)."""
    return str(Fraction(x))


@dataclass(frozen=True, order=True)
class Vertex:
    """A point of {0,1}^n stored as a bit tuple; ordering is lexicographic."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"vertex bits must be 0/1, got {self.bits}")

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __getitem__(self, j: int) -> int:
        return self.bits[j]

    @classmethod
    def from_code(cls, code: int, n: int) -> "Vertex":
        return cls(tuple((code >> (n - 1 - j)) & 1 for j in range(n)))


def wire(obj: object) -> object:
    """The JSON value of a result that ``json`` cannot write by itself, for
    ``json.dumps(..., default=wire)``: a Fraction is its ratstr, a Vertex its
    list of bits, and a dataclass a dict of its fields in declaration order,
    whose values ``json`` writes in turn (tuples as lists, int mapping keys
    as strings).  Called on a record, it gives a command's output document."""
    kind = type(obj)
    if kind is Fraction:
        return format_rational(obj)
    if kind is Vertex:
        return list(obj.bits)
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


@dataclass(frozen=True)
class CoveringSystem:
    """k rational hyperplanes <v_i, x> = mu_i over {0,1}^n.

    Invariants enforced at construction: every row is nonzero (a zero row
    with mu = 0 would cover everything and void minimality), all rows have
    length n, and len(mu) = k.
    """

    n: int
    k: int
    rows: tuple[tuple[Fraction, ...], ...]
    mu: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SystemFormatError(f"dimension must be positive, got {self.n}")
        if self.k < 1 or len(self.rows) != self.k:
            raise SystemFormatError(f"expected {self.k} rows, got {len(self.rows)}")
        if len(self.mu) != self.k:
            raise SystemFormatError(f"expected {self.k} mu entries, got {len(self.mu)}")
        for i, row in enumerate(self.rows):
            if len(row) != self.n:
                raise SystemFormatError(f"row {i} has {len(row)} entries, expected {self.n}")
            if all(c == 0 for c in row):
                raise SystemFormatError(f"zero row at index {i}")

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[Fraction | int | str]],
        mu: Sequence[Fraction | int | str],
    ) -> "CoveringSystem":
        tup_rows = tuple(as_fractions(row) for row in rows)
        tup_mu = as_fractions(mu)
        n = len(tup_rows[0]) if tup_rows else 0
        return cls(n=n, k=len(tup_rows), rows=tup_rows, mu=tup_mu)

    def row_support(self, i: int) -> tuple[int, ...]:
        return tuple(j for j, c in enumerate(self.rows[i]) if c != 0)

    def column_support_size(self, j: int) -> int:
        return sum(1 for i in range(self.k) if self.rows[i][j] != 0)

    @cached_property
    def cleared_rows(self) -> list[ClearedRow]:
        """Row i and mu_i cleared over one D_i (``clear_row``), for every row."""
        return [clear_row(row, mu) for row, mu in zip(self.rows, self.mu)]

    def restrict(self, rows: Sequence[int], cols: Sequence[int]) -> "CoveringSystem":
        """The rows ``rows`` with their mu_i, on the ascending columns ``cols``
        (renumbered 0..len(cols)-1).  Its cleared rows are this system's,
        restricted (``ClearedRow.restricted``), so no row is cleared again."""
        index = {j: t for t, j in enumerate(cols)}
        sub = CoveringSystem(
            n=len(cols),
            k=len(rows),
            rows=tuple([tuple([self.rows[i][j] for j in cols]) for i in rows]),
            mu=tuple([self.mu[i] for i in rows]),
        )
        sub.__dict__["cleared_rows"] = [self.cleared_rows[i].restricted(index) for i in rows]
        return sub

    def supports(self) -> tuple[list[list[int]], list[int]]:
        """Every row's support (the lists of ``cleared_rows``, not copies) and
        every column's support size."""
        rows = [cleared.support for cleared in self.cleared_rows]
        sizes = [0] * self.n
        for support in rows:
            for j in support:
                sizes[j] += 1
        return rows, sizes

    def to_json_dict(self) -> dict:
        """The input format that ``parse_system`` reads: n, rows and mu, not k."""
        return {
            "n": self.n,
            "rows": [[format_rational(c) for c in row] for row in self.rows],
            "mu": [format_rational(m) for m in self.mu],
        }


def _parse_entries(raw: list, where, parsed: dict[str, Fraction]) -> tuple[Fraction, ...]:
    """Parse a list of rationals, each distinct string once: ``parsed`` maps the
    strings already seen to their values.  ``where(j)`` names entry j, and is
    only formatted once some entry has failed to parse."""
    out = []
    try:
        for c in raw:
            x = parsed.get(c) if type(c) is str else None
            if x is None:
                # A non-string entry fails here, before it could be stored.
                x = parsed[c] = parse_rational(c)
            out.append(x)
    except SystemFormatError:
        for j, c in enumerate(raw):
            parse_rational(c, where=where(j))
        raise
    return tuple(out)


def parse_system(text: str) -> CoveringSystem:
    """Parse the JSON wire format {"n": int, "rows": [[ratstr]], "mu": [ratstr]}.

    Every malformation is reported with its row/column location.  Each
    distinct entry string is parsed once per call; equal strings share one
    Fraction.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SystemFormatError("top-level JSON value must be an object")
    for key in ("n", "rows", "mu"):
        if key not in doc:
            raise SystemFormatError(f"missing key {key!r}")
    n = doc["n"]
    # bool is an int subclass; "n": true must not read as n = 1.
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SystemFormatError(f"n must be a positive integer, got {n!r}")
    raw_rows, raw_mu = doc["rows"], doc["mu"]
    if not isinstance(raw_rows, list) or not raw_rows:
        raise SystemFormatError("rows must be a non-empty list")
    if not isinstance(raw_mu, list) or len(raw_mu) != len(raw_rows):
        raise SystemFormatError(
            f"mu has {len(raw_mu) if isinstance(raw_mu, list) else '??'} entries, "
            f"expected {len(raw_rows)}"
        )
    parsed: dict[str, Fraction] = {}
    rows = []
    for i, raw in enumerate(raw_rows):
        if not isinstance(raw, list) or len(raw) != n:
            raise SystemFormatError(f"row {i} has {len(raw) if isinstance(raw, list) else '??'} entries, expected {n}")
        rows.append(_parse_entries(raw, lambda j: f"row {i}, column {j}", parsed))
    mu = _parse_entries(raw_mu, lambda j: f"mu[{j}]", parsed)
    return CoveringSystem(n=n, k=len(rows), rows=tuple(rows), mu=mu)


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
    rows = tuple(tuple(f * c for c in row) for f, row in zip(factors, system.rows))
    mu = tuple(f * m for f, m in zip(factors, system.mu))
    return CoveringSystem(n=system.n, k=system.k, rows=rows, mu=mu)


def clear_denominators(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """Scale values by the least common denominator D of their entries: (D * values, D).

    D is positive, so a row and its right-hand side scaled together keep the
    same hyperplane; squared norms scale by D^2.
    """
    # The lcm's argument tuple comes from a list, not a generator, as do the
    # tuples of as_fractions: a tuple grown from a generator is resized, and
    # resized short tuples pile up on CPython's tuple free lists (2-3 MB of
    # peak RSS over the refute benchmark).
    mult = math.lcm(*[c.denominator for c in values])
    return [c.numerator * (mult // c.denominator) for c in values], mult


class ClearedRow(NamedTuple):
    """A rational row <a, x> = rhs scaled by a positive integer D: the columns
    of its nonzero entries in ascending order, D * a over them, D * rhs and D."""

    support: list[int]
    ints: list[int]
    rhs: int
    D: int

    def restricted(self, index: Mapping[int, int]) -> "ClearedRow":
        """The entries on the columns ``index`` maps, renumbered by it, with the
        same rhs and D.  An increasing ``index`` keeps the support ascending.
        D stays a positive multiple of the least common denominator of the
        entries kept, so the restricted row is still exact."""
        support, ints = [], []
        for j, b in zip(self.support, self.ints):
            t = index.get(j)
            if t is not None:
                support.append(t)
                ints.append(b)
        return ClearedRow(support, ints, self.rhs, self.D)


def clear_row(row: Sequence[Fraction | int], rhs: Fraction | int = 0) -> ClearedRow:
    """Clear a row over its nonzero entries, together with ``rhs``, by the least
    common denominator of those entries and ``rhs``."""
    support = list(compress(range(len(row)), row))
    ints, mult = clear_denominators([*[row[j] for j in support], rhs])
    top = ints.pop()
    return ClearedRow(support, ints, top, mult)


@dataclass(frozen=True)
class UnitRow:
    """A unit-normalized row stored exactly: the vector is coeffs / sqrt(norm_sq)."""

    coeffs: tuple[Fraction, ...]
    norm_sq: Fraction

    def __post_init__(self) -> None:
        if self.norm_sq <= 0:
            raise ValueError("norm_sq must be positive")

    def __len__(self) -> int:
        return len(self.coeffs)

    @cached_property
    def cleared(self) -> ClearedRow:
        """The coefficients cleared over their nonzeros (``clear_row``, rhs 0),
        unless the row was built ``with_cleared``."""
        return clear_row(self.coeffs)

    @classmethod
    def with_cleared(cls, coeffs: tuple[Fraction, ...], norm_sq: Fraction, cleared: ClearedRow) -> "UnitRow":
        """A unit row whose cleared form is already known: ``cleared`` holds the
        nonzero coeffs times some positive D, with rhs 0.  The plank stage is
        invariant under that D, so it need not be the least one."""
        row = cls(coeffs=coeffs, norm_sq=norm_sq)
        row.__dict__["cleared"] = cleared  # where the cached_property keeps its value
        return row


def unit_row(coeffs: Sequence[Fraction | int | str]) -> UnitRow:
    """Wrap a rational vector as a unit row with q = its full squared norm."""
    vec = as_fractions(coeffs)
    q = sum((c * c for c in vec), Fraction(0))
    if q == 0:
        raise ValueError("cannot unit-normalize a zero row")
    return UnitRow(coeffs=vec, norm_sq=q)


@dataclass(frozen=True)
class Params:
    """Global tunables; the derived constants C1, tau, C3 follow from C0.

    S and W default to None, meaning "derive from the instance" (the
    refutation pipeline uses S = floor(C5 * ln n) and
    W = w_multiplier * ln(n) * k^2 / n).
    """

    C0: Fraction = Fraction(4706, 1000)
    gamma: Fraction = Fraction(1, 3)
    S: int | None = None
    W: Fraction | None = None
    C5: Fraction = Fraction(32)
    w_multiplier: Fraction = Fraction(1)
    enumeration_cap: int = 24
    sample_cap: int = 1000
    seed: int = 0
    require_hypotheses: bool = False

    # Computed on first access and kept: the instance is frozen.
    @cached_property
    def C1(self) -> Fraction:
        return 4 * self.C0 * self.C0

    @cached_property
    def tau(self) -> Fraction:
        # (1 - tau) / tau = C1^2
        return 1 / self.C3

    @cached_property
    def C3(self) -> Fraction:
        return 1 + self.C1 * self.C1


DEFAULT_PARAMS = Params()
