"""Rescaling relations of `cubecover refute` and `cubecover find-uncovered`.

Scaling row i and its right-hand side by phi_i > 0 leaves every hyperplane
as it is.  The plank stage reads each row through floats scaled by a power
of two near the row's norm, so a power-of-two phi_i changes none of its
floats and stdout is byte-identical.  Any other phi_i may move the last bits
of those floats and with them the vertex drawn, but not the exit code (which
is never 4, the internal error), and a returned vertex is off every
hyperplane of the scaled system.
"""

import io
import json
import random
import sys
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cubecover import CoveringSystem, Vertex, rows_through
from cubecover.cli import run_command
from test_refute_pinned import MIXED_ENTRIES, PLANK_ENTRIES, _fmt, _plank_system

REFUTE = ["refute", "--input", "-", "--seed", "5", "--w", "1/1000000"]
FIND = ["find-uncovered", "--input", "-", "--seed", "5"]


def _run(argv, doc):
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        return run_command(argv)
    finally:
        sys.stdin = stdin


def _docs(rows, mu):
    """The refute and the find-uncovered document of one plank system."""
    text_rows, text_mu = [[_fmt(c) for c in row] for row in rows], [_fmt(m) for m in mu]
    return {"n": len(rows[0]), "rows": text_rows, "mu": text_mu}, {"rows": text_rows, "targets": text_mu}


@st.composite
def plank_systems(draw):
    """A seeded plank system: 2-6 rows of support 8-24, on plain or mixed
    entries, disjoint or sharing columns."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    k, s = draw(st.integers(2, 6)), draw(st.integers(8, 24))
    entries = draw(st.sampled_from((PLANK_ENTRIES, MIXED_ENTRIES)))
    shared = draw(st.sampled_from((0, 0, s // 4)))
    return _plank_system(rng, k, s, entries, shared)


def _scaled(rows, mu, factors):
    return [[f * c for c in row] for f, row in zip(factors, rows)], [f * m for f, m in zip(factors, mu)]


def _results(rows, mu):
    refute_doc, find_doc = _docs(rows, mu)
    return _run(REFUTE, refute_doc), _run(FIND, find_doc)


@settings(max_examples=40, deadline=None)
@given(plank_systems(), st.data())
def test_power_of_two_rescaling_keeps_stdout(system, data):
    rows, mu = system
    exponents = data.draw(st.lists(st.integers(-1300, 1300), min_size=len(rows), max_size=len(rows)))
    factors = [Fraction(2) ** e for e in exponents]
    for plain, scaled in zip(_results(rows, mu), _results(*_scaled(rows, mu, factors))):
        assert scaled.exit_code != 4, scaled.stderr
        assert (scaled.exit_code, scaled.stdout) == (plain.exit_code, plain.stdout)


_factors = st.one_of(
    st.fractions(min_value=Fraction(1, 10**9), max_value=10**9, max_denominator=10**9).filter(bool),
    st.sampled_from((Fraction(1, 10**400), Fraction(1, 10**200), Fraction(10**200), Fraction(10**400))),
)


@settings(max_examples=40, deadline=None)
@given(plank_systems(), st.data())
def test_positive_rescaling_keeps_the_exit_code(system, data):
    rows, mu = system
    factors = data.draw(st.lists(_factors, min_size=len(rows), max_size=len(rows)))
    scaled_rows, scaled_mu = _scaled(rows, mu, factors)
    scaled_system = CoveringSystem.from_rows(scaled_rows, scaled_mu)
    for plain, scaled in zip(_results(rows, mu), _results(scaled_rows, scaled_mu)):
        assert scaled.exit_code != 4, scaled.stderr
        assert scaled.exit_code == plain.exit_code
        if scaled.exit_code == 0:
            vertex = Vertex(tuple(json.loads(scaled.stdout)["vertex"]))
            assert rows_through(scaled_system, [vertex]) == [[]]
