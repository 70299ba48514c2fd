"""Exact-rational data model for hyperplane covering systems on the binary cube.

A covering system is a k x n rational matrix V together with a right-hand side
mu; row i defines the hyperplane <v_i, x> = mu_i over vertices x in {0,1}^n.
Membership is an exact predicate, so every scalar is an arbitrary-precision
rational.  A quantity that would be irrational (a row read as a unit vector,
divided by its norm) is never materialized: a stage that reads rows so works
out each row's rational squared norm itself, and compares squares.

The exact kernels elsewhere work on integers through one helper,
``clear_row``: a row's nonzero entries and an optional right-hand side,
scaled by their least common denominator D.  ``CoveringSystem.cleared_rows``
(row i with mu_i) holds that form, computed on first use; it is the only
place a system's rows are cleared, as ``cleared_block`` is the only place a
rational matrix is.  A ``ClearedBlock`` (cleared rows on numbered columns)
is what the first decomposition and the plank stage read;
``CoveringSystem.block`` cuts one from a system's cleared rows (renumbered,
same D), and ``CoveringSystem.restrict`` builds a subsystem that carries
them.  ``parse_system`` parses each distinct entry string once
(``_parse_entries``).

The paper's window constant C0 = 4.706, the constants that follow from it
(C1, C3, TAU) and the default ENUMERATION_CAP are module constants; only the
refute pipeline and the command line take ``Params``.

Results are written by one rule, ``wire``, the ``default=`` hook of every
``json.dumps`` that writes one: a rational is its ratstr "p" or "p/q", a
vertex its 0/1 bits, and a record (a dataclass) an object of its fields in
declaration order.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")
# bytes.translate table from the text "0101..." to the bit values 0 and 1.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


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
        try:
            if not den:
                return Fraction(int(num))
            if int(den):
                return Fraction(int(num), int(den))
            problem = f"zero denominator in {text!r}"
        except ValueError:  # int() refuses more digits than sys.get_int_max_str_digits()
            digits = max(len(num.lstrip("+-")), len(den))
            problem = f"{digits}-digit integer exceeds the limit of {sys.get_int_max_str_digits()} digits"
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
    """Canonical reduced string form, "p" or "p/q" (the ``str`` of a Fraction),
    also for a numerator or denominator of more digits than ``str`` writes
    under Python's int digit limit (``sys.get_int_max_str_digits()``)."""
    try:
        return str(Fraction(x))
    except ValueError:  # past the digit limit: write p and q in pieces
        x = Fraction(x)
        p = _decimal(x.numerator)
        return p if x.denominator == 1 else f"{p}/{_decimal(x.denominator)}"


def _decimal(n: int) -> str:
    """The decimal text of ``n``, written in pieces of fewer digits than the
    int digit limit, which must be set (nonzero); the limit is not changed."""
    width = sys.get_int_max_str_digits() - 1
    base = 10**width
    digits, pieces = abs(n), []
    while digits >= base:
        digits, low = divmod(digits, base)
        pieces.append(str(low).zfill(width))
    pieces.append(("-" if n < 0 else "") + str(digits))
    return "".join(reversed(pieces))


@dataclass(frozen=True, order=True)
class Vertex:
    """A point of {0,1}^n stored as a bit tuple; ordering is lexicographic."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        # count() compares with ==, as ``in`` does: 1.0 and True count as 1.
        if self.bits.count(0) + self.bits.count(1) != len(self.bits):
            raise ValueError(f"vertex bits must be 0/1, got {self.bits}")

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __getitem__(self, j: int) -> int:
        return self.bits[j]

    @classmethod
    def from_code(cls, code: int, n: int) -> "Vertex":
        """The vertex whose coordinate j is bit n-1-j of ``code``: the low n
        bits of its two's complement, so any int gives n bits."""
        # A leading 1 makes the binary text exactly n + 1 digits, also at n = 0.
        text = format((code & ((1 << n) - 1)) | (1 << n), "b")
        return cls(tuple(text[1:].encode().translate(_BIT_BYTES)))


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
            if not any(row):
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

    @cached_property
    def cleared_rows(self) -> list[ClearedRow]:
        """Row i and mu_i cleared over one D_i (``clear_row``), for every row."""
        return [clear_row(row, mu) for row, mu in zip(self.rows, self.mu)]

    def block(self, rows: Sequence[int], cols: Sequence[int]) -> ClearedBlock:
        """The cleared rows ``rows`` on the ascending columns ``cols``
        (renumbered 0..len(cols)-1): as they are when ``cols`` is every
        column, else restricted (``ClearedRow.restricted``, same D)."""
        cleared = self.cleared_rows
        if len(cols) == self.n:
            return ClearedBlock([cleared[i] for i in rows], self.n)
        index = {j: t for t, j in enumerate(cols)}
        return ClearedBlock([cleared[i].restricted(index) for i in rows], len(cols))

    def restrict(self, rows: Sequence[int], cols: Sequence[int]) -> "CoveringSystem":
        """The rows ``rows`` with their mu_i, on the ascending columns ``cols``
        (renumbered 0..len(cols)-1).  Its cleared rows are this system's
        ``block``, so no row is cleared again."""
        sub = CoveringSystem(
            n=len(cols),
            k=len(rows),
            rows=tuple([tuple([self.rows[i][j] for j in cols]) for i in rows]),
            mu=tuple([self.mu[i] for i in rows]),
        )
        sub.__dict__["cleared_rows"] = self.block(rows, cols).rows  # where the cached_property keeps its value
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
    strings already seen to their values, and gains the new ones.  Equal
    strings give one Fraction object.

    When every entry is a string seen before, this is one lookup per entry.
    Otherwise only the distinct entries not in ``parsed`` are parsed (a set
    difference) before the lookups.  When an entry fails (a bad string, a
    number, or a list or dict, which is unhashable) the entries are parsed
    again in order, naming the place of the first bad one: ``where(j)``
    names entry j, and is only formatted then."""
    try:
        return tuple([parsed[c] for c in raw])
    except (KeyError, TypeError):  # a new string, a number, a list or a dict
        pass
    try:
        for c in set(raw).difference(parsed):
            # A non-string entry fails here, before it could be stored.
            parsed[c] = parse_rational(c)
    except (SystemFormatError, TypeError):
        for j, c in enumerate(raw):
            parse_rational(c, where=where(j))
        raise
    return tuple([parsed[c] for c in raw])


def parse_object(text: str, keys: Iterable[str]) -> dict:
    """The JSON object ``text`` holds, with every key of ``keys``; malformed
    JSON (also JSON nested deeper than the decoder recurses, or an integer
    literal of more digits than ``sys.get_int_max_str_digits()``), another
    value or a missing key is a SystemFormatError."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
        raise SystemFormatError(f"malformed JSON: {exc}") from exc
    except ValueError as exc:  # int() refuses a literal past the int digit limit; it is not changed
        limit = sys.get_int_max_str_digits()
        raise SystemFormatError(f"malformed JSON: an integer literal has more than {limit} digits") from exc
    if not isinstance(doc, dict):
        raise SystemFormatError("top-level JSON value must be an object")
    for key in keys:
        if key not in doc:
            raise SystemFormatError(f"missing key {key!r}")
    return doc


def parse_system(text: str) -> CoveringSystem:
    """Parse the JSON wire format {"n": int, "rows": [[ratstr]], "mu": [ratstr]}.

    Every malformation is reported with its row/column location.  Each
    distinct entry string is parsed once per call; equal strings share one
    Fraction.
    """
    doc = parse_object(text, ("n", "rows", "mu"))
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
class ClearedBlock:
    """An l x m matrix given by its rows in cleared form (``ClearedRow``,
    columns numbered 0..m-1, rhs unused).  A row's D may be any positive
    multiple of its entries' least common denominator: the stages that read
    a block are invariant under scaling a row."""

    rows: Sequence[ClearedRow]
    m: int


def cleared_block(matrix: Sequence[Sequence[Fraction | int | str]]) -> ClearedBlock:
    """The rational matrix ``matrix`` as a ClearedBlock, each row cleared over
    its nonzero entries (``clear_row``, rhs 0).  Rows of unequal length are a
    ValueError."""
    rows = [as_fractions(row) for row in matrix]
    m = len(rows[0]) if rows else 0
    if any(len(row) != m for row in rows):
        raise ValueError("rows have inconsistent lengths")
    return ClearedBlock([clear_row(row) for row in rows], m)


# The paper's window constant and the constants that follow from it, as
# exact rationals: C1 = 4 C0^2, C3 = 1 + C1^2 and TAU = 1/C3, so that
# (1 - TAU) / TAU = C1^2.
C0 = Fraction(4706, 1000)
C1 = 4 * C0 * C0
C3 = 1 + C1 * C1
TAU = 1 / C3

ENUMERATION_CAP = 24  # the default largest n of an exhaustive sweep or table


@dataclass(frozen=True)
class Params:
    """The refute pipeline's tunables, built by the command line from its
    options; the paper's constants C0, C1, C3 and TAU are module constants.

    S and W default to None, meaning "derive from the instance" (the
    refutation pipeline uses S = floor(C5 * ln n) and
    W = w_multiplier * ln(n) * k^2 / n).
    """

    gamma: Fraction = Fraction(1, 3)
    S: int | None = None
    W: Fraction | None = None
    C5: Fraction = Fraction(32)
    w_multiplier: Fraction = Fraction(1)
    enumeration_cap: int = ENUMERATION_CAP
    sample_cap: int = 1000
    seed: int = 0
    require_hypotheses: bool = False


DEFAULT_PARAMS = Params()
