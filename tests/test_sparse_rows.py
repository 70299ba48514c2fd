"""Rows kept once, in sparse form: how zeros are spelled changes nothing, the
exact re-check reads the rational rows and nothing derived from them, and
``restrict`` agrees with a dense oracle."""

import io
import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cubecover import CoveringSystem, SparseRow, SystemFormatError, Vertex, format_rational, parse_system, rows_through
from cubecover.cli import run_command

ZERO_SPELLINGS = ("0", "-0", "+0", "00", "0/7")


def _random_rows(rnd, max_k=5, max_n=9):
    """Dense rational rows at a random density, none of them zero, and each
    mu_i the row's sum over a random subset, so that some vertices lie on it."""
    k, n = rnd.randint(1, max_k), rnd.randint(1, max_n)
    density = rnd.uniform(0.1, 0.9)
    rows, mu = [], []
    while len(rows) < k:
        row = [Fraction(rnd.randint(-3, 3), rnd.randint(1, 4)) if rnd.random() < density else Fraction(0)
               for _ in range(n)]
        if any(row):
            rows.append(row)
            mu.append(sum((c for c in row if rnd.random() < 0.5), Fraction(0)))
    return rows, mu


def _respell(rnd, x: Fraction) -> str:
    """x as one of several equal spellings: zeros in every form, nonzeros
    scaled, signed, padded or with leading zeros."""
    if x == 0:
        return rnd.choice(ZERO_SPELLINGS)
    p, q = x.numerator, x.denominator
    m = rnd.randint(2, 5)
    sign, digits = ("-", -p) if p < 0 else (rnd.choice(("", "+")), p)
    return rnd.choice((f"{m * p}/{m * q}", f"{sign}0{digits}/{q}", f" {p}/{q} ", f"{sign}{digits * q}/{q * q}"))


def _text(rows, mu, spell) -> str:
    return json.dumps({"n": len(rows[0]), "rows": [[spell(c) for c in row] for row in rows],
                       "mu": [spell(m) for m in mu]})


def _run(argv, text):
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        return run_command(argv)
    finally:
        sys.stdin = stdin


def _dense_hits(rows, mu, vertices):
    """Per vertex, the rows that hold it: sums of Fractions over the dense rows."""
    return [[i for i, (row, m) in enumerate(zip(rows, mu)) if sum((c for c, b in zip(row, x.bits) if b), Fraction(0)) == m]
            for x in vertices]


@given(st.integers(0, 2**64))
@settings(max_examples=60, deadline=None)
def test_zero_spellings_change_nothing(seed):
    rnd = random.Random(seed)
    rows, mu = _random_rows(rnd)
    plain_text = _text(rows, mu, format_rational)
    spelled_text = _text(rows, mu, lambda x: _respell(rnd, x))
    plain, spelled = parse_system(plain_text), parse_system(spelled_text)
    assert spelled.supports() == plain.supports()
    assert spelled.sparse_rows == plain.sparse_rows and spelled.mu == plain.mu
    assert spelled.cleared_rows == plain.cleared_rows
    n = plain.n
    vertices = [Vertex.from_code(rnd.getrandbits(n), n) for _ in range(6)]
    assert rows_through(spelled, vertices) == rows_through(plain, vertices) == _dense_hits(rows, mu, vertices)
    for argv in (["verify", "--input", "-"], ["refute", "--input", "-", "--seed", "3", "--cap", "6"]):
        assert _run(argv, spelled_text) == _run(argv, plain_text)


@pytest.mark.parametrize("spelling", ZERO_SPELLINGS)
@pytest.mark.parametrize("command", ["verify", "refute", "decompose"])
def test_a_zero_row_in_any_spelling_is_an_input_error(spelling, command):
    row = [spelling, *ZERO_SPELLINGS, spelling]
    doc = {"n": len(row), "rows": [["1", *["0"] * (len(row) - 1)], row], "mu": ["0", "1"]}
    result = _run([command, "--input", "-", "--seed", "3"], json.dumps(doc))
    assert (result.exit_code, result.stdout, result.stderr) == (3, "", "input error: zero row at index 1\n")


@pytest.mark.parametrize("bad, message", [
    ("0.0", "bad rational '0.0' (expected 'p' or 'p/q')"),
    ("0/0", "zero denominator in '0/0'"),
    ("- 0", "bad rational '- 0' (expected 'p' or 'p/q')"),
    (0, "bad rational 0 (expected 'p' or 'p/q')"),
    (0.0, "bad rational 0.0 (expected 'p' or 'p/q')"),
])
def test_a_bad_entry_in_a_zero_position_is_named(bad, message):
    # Column 2 of row 1 is where a zero would be; zeros in other spellings
    # have been seen before it, in row 0 and earlier in row 1.
    doc = {"n": 4, "rows": [["1", "0", "-0", "0/7"], ["0", "+0", bad, "1"]], "mu": ["0", "1"]}
    with pytest.raises(SystemFormatError) as exc:
        parse_system(json.dumps(doc))
    assert str(exc.value) == f"row 1, column 2: {message}"


# A sparse row built by hand must be what parse_system builds: its columns
# distinct, ascending and below n, one nonzero value each.  Each of these was
# accepted, and then read as a row that covers every vertex (a zero value
# with mu 0), counted twice by the re-check (a repeated column) or failed
# later with an IndexError (a column at n).
@pytest.mark.parametrize("support, values, message", [
    ([1], [Fraction(0)], "row 1 has a zero value"),
    ([0, 0], [Fraction(1), Fraction(1)], "row 1: columns must be distinct, ascending and below n = 3"),
    ([3], [Fraction(1)], "row 1: columns must be distinct, ascending and below n = 3"),
    ([-1], [Fraction(1)], "row 1: columns must be distinct, ascending and below n = 3"),
    ([2, 0], [Fraction(1), Fraction(2)], "row 1: columns must be distinct, ascending and below n = 3"),
    ([0, 2], [Fraction(1)], "row 1 has 2 columns and 1 values"),
], ids=["zero-value", "repeated-column", "column-at-n", "negative-column", "unsorted-columns", "unequal-lengths"])
def test_a_malformed_sparse_row_is_refused(support, values, message):
    rows = (SparseRow([0, 1, 2], [Fraction(1)] * 3), SparseRow(support, values))
    with pytest.raises(SystemFormatError, match=f"^{re.escape(message)}$"):
        CoveringSystem(n=3, k=2, sparse_rows=rows, mu=(Fraction(0), Fraction(0)))


class _Poisoned(Exception):
    pass


@given(st.integers(0, 2**64))
@settings(max_examples=80, deadline=None)
def test_the_recheck_never_reads_the_cleared_rows(seed):
    rnd = random.Random(seed)
    rows, mu = _random_rows(rnd, max_k=8, max_n=14)
    system = CoveringSystem.from_rows(rows, mu)
    if rnd.random() < 0.5:
        system.cleared_rows  # cached on the instance before the poison
    n = system.n
    vertices = [Vertex.from_code(rnd.getrandbits(n), n) for _ in range(rnd.randint(0, 6))]
    vertices += [Vertex(tuple(int(c != 0 and rnd.random() < 0.5) for c in rows[0]))]
    expected = _dense_hits(rows, mu, vertices)

    def poison(self):
        raise _Poisoned

    original = CoveringSystem.cleared_rows
    CoveringSystem.cleared_rows = property(poison)
    try:
        with pytest.raises(_Poisoned):
            system.cleared_rows
        assert rows_through(system, vertices) == expected
    finally:
        CoveringSystem.cleared_rows = original


def _hyperplane(cleared):
    """A cleared row as the rational hyperplane it stands for."""
    support, ints, rhs, d = cleared
    return list(support), [Fraction(b, d) for b in ints], Fraction(rhs, d)


@given(st.integers(0, 2**64))
@settings(max_examples=80, deadline=None)
def test_restrict_matches_the_dense_oracle(seed):
    rnd = random.Random(seed)
    rows, mu = _random_rows(rnd, max_k=8, max_n=14)
    system = CoveringSystem.from_rows(rows, mu)
    n, k = system.n, system.k
    cols = sorted(rnd.sample(range(n), rnd.randint(1, n)))
    keep = rnd.sample(range(k), rnd.randint(1, k))
    dense_rows = [[rows[i][j] for j in cols] for i in keep]
    if not all(any(row) for row in dense_rows):
        with pytest.raises(SystemFormatError, match="^zero row at index"):
            system.restrict(keep, cols)
        return
    sub = system.restrict(keep, cols)
    assert sub == CoveringSystem.from_rows(dense_rows, [mu[i] for i in keep])
    assert sub.rows == tuple(tuple(row) for row in dense_rows)
    # Restricting and then clearing gives the hyperplanes that clearing and
    # then cutting with ``block`` gives (possibly over another D).
    assert list(map(_hyperplane, sub.cleared_rows)) == list(map(_hyperplane, system.block(keep, cols).rows))


@given(st.integers(0, 2**64))
@settings(max_examples=30, deadline=None)
def test_verify_and_refute_never_read_the_dense_rows(seed):
    rnd = random.Random(seed)
    rows, mu = _random_rows(rnd, max_k=6, max_n=12)
    text = _text(rows, mu, format_rational)
    argvs = (["verify", "--input", "-"], ["refute", "--input", "-", "--seed", "3", "--cap", str(rnd.randint(0, 12))],
             ["refute", "--input", "-", "--seed", "5", "--w", "1/1000000"])
    outputs = [_run(argv, text) for argv in argvs]

    def poison(self):
        raise _Poisoned

    original = CoveringSystem.rows
    CoveringSystem.rows = property(poison)
    try:
        assert [_run(argv, text) for argv in argvs] == outputs
    finally:
        CoveringSystem.rows = original
