"""Metamorphic relations of the exhaustive coverage sweep.

Each test transforms a random system in a way whose effect on the uncovered
count and on the (E1)/(E3) verdicts is known in advance, and checks that the
sweep sees exactly that effect.  Every sweep in a test splits at a number of
low coordinates drawn afresh, so the relations hold across split points too.
"""

from fractions import Fraction
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

import cubecover.cube as cube_mod
from cubecover import CoveringSystem, enumerate_uncovered, verify_essential

entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def systems(draw, max_n=8, max_k=4):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    rows = []
    for _ in range(k):
        row = draw(st.lists(entries, min_size=n, max_size=n))
        if not any(row):
            row[draw(st.integers(0, n - 1))] = Fraction(1)
        rows.append(row)
    # Half the right-hand sides are subset sums of their row, so rows are hit.
    mu = [
        sum((c for c, b in zip(row, draw(st.lists(st.booleans(), min_size=n, max_size=n))) if b), Fraction(0))
        if draw(st.booleans()) else draw(entries)
        for row in rows
    ]
    return CoveringSystem.from_rows(rows, mu)


def drawn_splits(data):
    """Split each sweep at a drawn number of low coordinates, 0..n."""
    drawn = {}

    def split_further(entries, low, n, k):
        # A sweep asks at low = 0 first: draw its split point there.
        if low == 0:
            drawn["low"] = data.draw(st.integers(0, n), label="split point")
        return low < drawn["low"]

    return patch.object(cube_mod, "_split_further", split_further)


def _verdicts(system):
    report = verify_essential(system)
    return enumerate_uncovered(system).uncovered_count, report.e1, report.e3


@settings(max_examples=60, deadline=None)
@given(systems(), st.data())
def test_complement_map_preserves_uncovered_count(system, data):
    # x -> 1 - x maps the hyperplane <v, x> = mu onto <v, x> = sum(v) - mu.
    flipped = CoveringSystem.from_rows(system.rows, [sum(row) - m for row, m in zip(system.rows, system.mu)])
    with drawn_splits(data):
        assert _verdicts(flipped) == _verdicts(system)


@settings(max_examples=60, deadline=None)
@given(systems(), st.randoms(use_true_random=False), st.data())
def test_row_and_column_permutations_preserve_counts_and_verdicts(system, rng, data):
    cols = list(range(system.n))
    order = list(range(system.k))
    rng.shuffle(cols)
    rng.shuffle(order)
    permuted = CoveringSystem.from_rows(
        [[system.rows[i][j] for j in cols] for i in order], [system.mu[i] for i in order]
    )
    with drawn_splits(data):
        assert _verdicts(permuted) == _verdicts(system)
        report, moved = verify_essential(system), verify_essential(permuted)
    assert [w is None for w in moved.e3_witnesses] == [report.e3_witnesses[i] is None for i in order]


@settings(max_examples=60, deadline=None)
@given(systems(max_n=7), st.data())
def test_unused_variable_doubles_uncovered_count(system, data):
    wider = CoveringSystem.from_rows([[*row, Fraction(0)] for row in system.rows], system.mu)
    with drawn_splits(data):
        assert enumerate_uncovered(wider).uncovered_count == 2 * enumerate_uncovered(system).uncovered_count


@settings(max_examples=60, deadline=None)
@given(systems(), st.data())
def test_duplicated_row_keeps_e1_and_loses_both_e3_witnesses(system, data):
    i = data.draw(st.integers(0, system.k - 1))
    doubled = CoveringSystem.from_rows([*system.rows, system.rows[i]], [*system.mu, system.mu[i]])
    with drawn_splits(data):
        report = verify_essential(doubled)
        assert report.e1 == verify_essential(system).e1
    assert report.e3_witnesses[i] is None and report.e3_witnesses[-1] is None
    assert not report.e3
