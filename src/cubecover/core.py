"""Exact-rational data model for hyperplane covering systems on the binary cube.

A covering system is a k x n rational matrix V together with a right-hand side
mu; row i defines the hyperplane <v_i, x> = mu_i over vertices x in {0,1}^n.
Membership is an exact predicate, so every scalar is an arbitrary-precision
rational.  A quantity that would be irrational (a row read as a unit vector,
divided by its norm) is never materialized: a stage that reads rows so works
out each row's rational squared norm itself, and compares squares.

Each row is kept once, in sparse form (``SparseRow``: its nonzero columns
and their Fractions), which ``parse_system`` builds straight from the
document, parsing each distinct entry string once and reading from that
parse whether it is zero.  ``CoveringSystem`` refuses a malformed one (a
zero value, a column repeated, out of order or not below n); it tests the
values only of rows that ``parse_system`` and ``restrict`` did not build.
``CoveringSystem.rows`` is a dense view derived from it, ``from_rows`` the
dense constructor.

The exact kernels elsewhere work on integers through one helper,
``clear_row``: a sparse row and an optional right-hand side, scaled by their
least common denominator D.  ``CoveringSystem.cleared_rows`` (row i with
mu_i) holds that form, computed on first use; it is the only place a
system's rows are cleared, as ``cleared_block`` is the only place a rational
matrix is.  A ``ClearedBlock`` (cleared rows on numbered columns) is what
the first decomposition and the plank stage read; ``CoveringSystem.block``
cuts one from a system's cleared rows (renumbered, same D), and
``CoveringSystem.restrict`` filters the sparse rows to a subsystem.

The paper's window constant C0 = 4.706, the constants that follow from it
(C1, C3, TAU) and the default ENUMERATION_CAP are module constants; every
function takes the settings it reads as plain arguments.

Results are written by one rule, ``wire``: a rational is its ratstr "p" or
"p/q", a vertex its 0/1 bits, and a record (a dataclass) an object of its
fields in declaration order.  ``dump_json`` writes a result as indented JSON
by that rule, the text of ``json.dumps(indent=2, default=wire)``, for the
exact types a result holds and nothing else; ``wire`` is also the
``default=`` hook of the compact ``json.dumps`` of CSV values.
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
from operator import lt
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")
# bytes.translate table from the text "0101..." to the bit values 0 and 1.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_INT_ONLY = frozenset({int})


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
        return str(x if type(x) is Fraction else Fraction(x))
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
        # count() compares with ==, so 1.0 and True would count as 1: the
        # bits must also all be of type int.
        bits = self.bits
        if not (_INT_ONLY.issuperset(map(type, bits)) and bits.count(0) + bits.count(1) == len(bits)):
            raise ValueError(f"vertex bits must be 0/1, got {bits}")

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
    ``json.dumps(..., default=wire)`` and ``dump_json``: a Fraction is its
    ratstr, a Vertex its list of bits, and a dataclass a dict of its fields
    in declaration order, whose values are written in turn (tuples as lists,
    int mapping keys as strings).  Called on a record, it gives a command's
    output document."""
    kind = type(obj)
    if kind is Fraction:
        return format_rational(obj)
    if kind is Vertex:
        return list(obj.bits)
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def dump_json(value: object) -> str:
    """The text of ``json.dumps(value, indent=2, default=wire)`` for a value
    built of the exact types a result holds: str, int, bool, None, float,
    Fraction, Vertex, list, tuple, dict with str or int keys, and dataclasses.
    ``json`` would run its pure-Python encoder, a few generator frames per
    item.  Anything else raises: a subclass of one of these types goes to
    ``wire``, which refuses it (TypeError), a key of another type is a
    TypeError, and a cycle a RecursionError."""
    return _dump(value, "\n")


_BIT_TEXT = bytes.maketrans(b"\x00\x01", b"01")
_quote = json.encoder.encode_basestring_ascii


def _dump(value: object, newline: str) -> str:
    """``value`` as indented JSON whose inner line breaks are ``newline``,
    a line break and the indentation of the line that holds ``value``."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is Fraction:
        return _quote(format_rational(value))
    if kind is float:  # json writes NaN, Infinity and -Infinity
        return float.__repr__(value) if math.isfinite(value) else json.dumps(value)
    inner = newline + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if type(key) is not str:
                if type(key) is not int:
                    raise TypeError(f"keys must be str or int, not {type(key).__name__}")
                key = int.__repr__(key)
            items.append(f"{_quote(key)}: {_dump(item, inner)}")
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        items = [_dump(item, inner) for item in value]
    elif kind is Vertex:
        items = bytes(value.bits).translate(_BIT_TEXT).decode()  # one character per bit
    else:
        return _dump(wire(value), newline)
    if not items:
        return "[]"
    return "[" + inner + ("," + inner).join(items) + newline + "]"


class SparseRow(NamedTuple):
    """A rational row as a system keeps it: its nonzero columns in ascending
    order and their entries, in lists (short tuples, once freed, pile up on
    CPython's tuple free lists: 1.4 MB of peak RSS over the refute benchmark)."""

    support: list[int]
    values: list[Fraction]

    def dense(self, n: int) -> tuple[Fraction, ...]:
        """The row as its n entries, zeros included."""
        row = [Fraction(0)] * n
        for j, c in zip(self.support, self.values):
            row[j] = c
        return tuple(row)


class _NonzeroRow(SparseRow):
    """A ``SparseRow`` whose values are nonzero by construction, which
    ``CoveringSystem`` does not test again: ``parse_system`` builds it from
    each entry's parsed zero flag, and ``restrict`` from rows that a system
    has already checked."""

    __slots__ = ()


def _sparse_row(row: Sequence[Fraction]) -> SparseRow:
    """The sparse form of a dense rational row, for the dense constructors."""
    support = list(compress(range(len(row)), row))
    return SparseRow(support, list(map(row.__getitem__, support)))


def _on_columns(support: Sequence[int], entries: Sequence, index: Mapping[int, int]) -> tuple[list[int], list]:
    """The columns of ``support`` that ``index`` maps, renumbered by it, and
    their ``entries``.  An increasing ``index`` keeps the columns ascending."""
    kept_support, kept = [], []
    for j, b in zip(support, entries):
        t = index.get(j)
        if t is not None:
            kept_support.append(t)
            kept.append(b)
    return kept_support, kept


@dataclass(frozen=True)
class CoveringSystem:
    """k rational hyperplanes <v_i, x> = mu_i over {0,1}^n.

    Each row is kept once, as a ``SparseRow``; ``rows`` (dense) and
    ``cleared_rows`` (integer) are derived from it on first read.

    Invariants enforced at construction: there are k rows and k entries of
    mu, and every row is a well-formed nonzero sparse row: its columns
    distinct, ascending and below n, one value per column, and no value
    zero (a zero row with mu = 0 would cover everything and void
    minimality).  A row that ``parse_system`` or ``restrict`` built (a
    ``_NonzeroRow``) has no zero value by construction, so its values are
    not tested again.
    """

    n: int
    k: int
    sparse_rows: tuple[SparseRow, ...]
    mu: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SystemFormatError(f"dimension must be positive, got {self.n}")
        if self.k < 1 or len(self.sparse_rows) != self.k:
            raise SystemFormatError(f"expected {self.k} rows, got {len(self.sparse_rows)}")
        if len(self.mu) != self.k:
            raise SystemFormatError(f"expected {self.k} mu entries, got {len(self.mu)}")
        for i, row in enumerate(self.sparse_rows):
            support, values = row
            if not support:
                raise SystemFormatError(f"zero row at index {i}")
            if len(values) != len(support):
                raise SystemFormatError(f"row {i} has {len(support)} columns and {len(values)} values")
            # Strictly ascending from support[0] >= 0 to support[-1] < n, in C.
            if not (0 <= support[0] and support[-1] < self.n and all(map(lt, support, support[1:]))):
                raise SystemFormatError(f"row {i}: columns must be distinct, ascending and below n = {self.n}")
            if type(row) is not _NonzeroRow and not all(values):
                raise SystemFormatError(f"row {i} has a zero value")

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[Fraction | int | str]],
        mu: Sequence[Fraction | int | str],
    ) -> "CoveringSystem":
        """The system of the dense rows ``rows`` and right-hand sides ``mu``."""
        tup_rows = [as_fractions(row) for row in rows]
        tup_mu = as_fractions(mu)
        n = len(tup_rows[0]) if tup_rows else 0
        for i, row in enumerate(tup_rows):
            if len(row) != n:
                raise SystemFormatError(f"row {i} has {len(row)} entries, expected {n}")
        return cls(n=n, k=len(tup_rows), sparse_rows=tuple([_sparse_row(row) for row in tup_rows]), mu=tup_mu)

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense rows, zeros included; no stage of ``verify`` or ``refute``
        reads them."""
        return tuple([row.dense(self.n) for row in self.sparse_rows])

    @cached_property
    def cleared_rows(self) -> list[ClearedRow]:
        """Row i and mu_i cleared over one D_i (``clear_row``), for every row."""
        return [clear_row(row, mu) for row, mu in zip(self.sparse_rows, self.mu)]

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
        (renumbered 0..len(cols)-1): each sparse row filtered to ``cols``,
        or this system itself, cleared rows and all, when it keeps them all."""
        if len(cols) == self.n and list(rows) == list(range(self.k)):
            return self
        index = {j: t for t, j in enumerate(cols)}
        return CoveringSystem(
            n=len(cols),
            k=len(rows),
            sparse_rows=tuple([_NonzeroRow(*_on_columns(*self.sparse_rows[i], index)) for i in rows]),
            mu=tuple([self.mu[i] for i in rows]),
        )

    def supports(self) -> tuple[list[list[int]], list[int]]:
        """Every row's support (the lists of ``sparse_rows``, not copies) and
        every column's support size."""
        rows = [row.support for row in self.sparse_rows]
        sizes = [0] * self.n
        for support in rows:
            for j in support:
                sizes[j] += 1
        return rows, sizes

    def to_json_dict(self) -> dict:
        """The input format that ``parse_system`` reads: n, rows and mu, not k."""
        return {
            "n": self.n,
            "rows": [[format_rational(c) for c in row.dense(self.n)] for row in self.sparse_rows],
            "mu": [format_rational(m) for m in self.mu],
        }


def _parse_new(raw: list, where, parsed: dict[str, Fraction]) -> set[str]:
    """Parse the distinct entries of ``raw`` that ``parsed`` lacks, add them to
    it, and return them.  When an entry fails (a bad string, a number, or a
    list or dict, which is unhashable) the entries are parsed again in
    order, naming the place of the first bad one: ``where(j)`` names entry
    j, and is only formatted then."""
    try:
        new = set(raw).difference(parsed)
        for c in new:
            # A non-string entry fails here, before it could be stored.
            parsed[c] = parse_rational(c)
    except (SystemFormatError, TypeError):
        for j, c in enumerate(raw):
            parse_rational(c, where=where(j))
        raise
    return new


def _parse_entries(raw: list, where, parsed: dict[str, Fraction]) -> tuple[Fraction, ...]:
    """Parse a list of rationals, each distinct string once: ``parsed`` maps the
    strings already seen to their values, and gains the new ones.  Equal
    strings give one Fraction object.

    When every entry is a string seen before, this is one lookup per entry.
    Otherwise only the distinct entries not in ``parsed`` are parsed
    (``_parse_new``, which names the place of a bad one) before the
    lookups."""
    try:
        return tuple([parsed[c] for c in raw])
    except (KeyError, TypeError):  # a new string, a number, a list or a dict
        pass
    _parse_new(raw, where, parsed)
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
    distinct entry string is parsed once per call, and whether it is zero is
    read from that parse; equal strings share one Fraction.  Each row is
    built in sparse form, its nonzero columns and their values.
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
    nonzero: dict[str, bool] = {}  # the same strings as parsed
    columns = range(n)
    rows = []
    for i, raw in enumerate(raw_rows):
        if not isinstance(raw, list) or len(raw) != n:
            raise SystemFormatError(f"row {i} has {len(raw) if isinstance(raw, list) else '??'} entries, expected {n}")
        # One pass over the row: each entry's zero flag, or a KeyError when
        # it is not a string parsed before.
        try:
            support = list(compress(columns, map(nonzero.__getitem__, raw)))
        except (KeyError, TypeError):  # a new string, a number, a list or a dict
            for c in _parse_new(raw, lambda j: f"row {i}, column {j}", parsed):
                nonzero[c] = parsed[c].numerator != 0
            support = list(compress(columns, map(nonzero.__getitem__, raw)))
        nonzeros = raw if len(support) == n else map(raw.__getitem__, support)  # their strings
        rows.append(_NonzeroRow(support, list(map(parsed.__getitem__, nonzeros))))
    mu = _parse_entries(raw_mu, lambda j: f"mu[{j}]", parsed)
    return CoveringSystem(n=n, k=len(rows), sparse_rows=tuple(rows), mu=mu)


def clear_denominators(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """Scale values by the least common denominator D of their entries: (D * values, D).

    D is positive, so a row and its right-hand side scaled together keep the
    same hyperplane; squared norms scale by D^2.
    """
    # The lcm's argument tuple comes from a list, not a generator, as do the
    # tuples of as_fractions: a tuple grown from a generator is resized, and
    # resized short tuples pile up on CPython's tuple free lists (2-3 MB of
    # peak RSS over the refute benchmark).
    pairs = [c.as_integer_ratio() for c in values]
    mult = math.lcm(*[q for _, q in pairs])
    return [p * (mult // q) for p, q in pairs], mult


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
        support, ints = _on_columns(self.support, self.ints, index)
        return ClearedRow(support, ints, self.rhs, self.D)


def clear_row(row: SparseRow, rhs: Fraction | int = 0) -> ClearedRow:
    """Clear a sparse row over its support (the same list), together with
    ``rhs``, by the least common denominator of its entries and ``rhs``."""
    ints, mult = clear_denominators([*row.values, rhs])
    top = ints.pop()
    return ClearedRow(row.support, ints, top, mult)


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
    return ClearedBlock([clear_row(_sparse_row(row)) for row in rows], m)


# The paper's window constant and the constants that follow from it, as
# exact rationals: C1 = 4 C0^2, C3 = 1 + C1^2 and TAU = 1/C3, so that
# (1 - TAU) / TAU = C1^2.
C0 = Fraction(4706, 1000)
C1 = 4 * C0 * C0
C3 = 1 + C1 * C1
TAU = 1 / C3

ENUMERATION_CAP = 24  # the default largest n of an exhaustive sweep or table
