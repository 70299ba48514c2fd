import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cubecover import (
    CoveringSystem,
    Params,
    SystemFormatError,
    apply_rescaling,
    enumerate_uncovered,
    format_rational,
    lr_cover,
    parse_rational,
    parse_system,
    unit_row,
)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


def test_parse_rational_forms():
    assert parse_rational("3") == 3
    assert parse_rational("-3") == -3
    assert parse_rational("+3/6") == Fraction(1, 2)
    assert parse_rational("-10/4") == Fraction(-5, 2)


@pytest.mark.parametrize("bad", ["", "1.5", "3e2", "a", "1/2/3", "--1"])
def test_parse_rational_rejects(bad):
    with pytest.raises(SystemFormatError):
        parse_rational(bad)


def test_parse_rational_zero_denominator():
    with pytest.raises(SystemFormatError, match="zero denominator"):
        parse_rational("1/0", where="row 1, column 0")


@given(rationals)
def test_format_parse_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def test_parse_system_minimal():
    sys_ = parse_system('{"n": 1, "rows": [["1"]], "mu": ["0"]}')
    assert (sys_.n, sys_.k) == (1, 1)
    assert sys_.rows == ((Fraction(1),),)


def test_parse_system_zero_row():
    with pytest.raises(SystemFormatError, match="zero row at index 0"):
        parse_system('{"n": 2, "rows": [["0", "0"]], "mu": ["0"]}')


def test_parse_system_lr4():
    sys_ = parse_system(json.dumps(lr_cover(4).to_json_dict()))
    assert (sys_.n, sys_.k) == (4, 3)
    assert sys_ == lr_cover(4)


@pytest.mark.parametrize(
    "doc, msg",
    [
        ('{"rows": [["1"]], "mu": ["0"]}', "missing key 'n'"),
        ('{"n": 2, "rows": [["1"]], "mu": ["0"]}', "row 0 has 1 entries"),
        ('{"n": 1, "rows": [["1"]], "mu": []}', "mu has 0 entries"),
        ('{"n": 1, "rows": [["1"]], "mu": ["1/0"]}', "zero denominator"),
        ("not json", "malformed JSON"),
        ('{"n": 1, "rows": [["x"]], "mu": ["0"]}', "row 0, column 0"),
    ],
)
def test_parse_system_errors(doc, msg):
    with pytest.raises(SystemFormatError, match=msg):
        parse_system(doc)


def test_apply_rescaling_identity():
    sys_ = lr_cover(4)
    assert apply_rescaling(sys_, [1, 1, 1]) == sys_


def test_apply_rescaling_scales_row_and_mu():
    sys_ = CoveringSystem.from_rows([[1, -1]], [0])
    scaled = apply_rescaling(sys_, [2])
    assert scaled.rows == ((Fraction(2), Fraction(-2)),)
    assert scaled.mu == (Fraction(0),)


def test_apply_rescaling_rejects_nonpositive():
    with pytest.raises(ValueError):
        apply_rescaling(lr_cover(4), [1, 0, 1])
    with pytest.raises(ValueError):
        apply_rescaling(lr_cover(4), [1, -2, 1])


def test_rescaling_preserves_cover_verdict_exhaustively():
    # Verdict identity checked over all 16 vertices of lr_cover(4).
    sys_ = lr_cover(4)
    scaled = apply_rescaling(sys_, [Fraction(7, 3), 5, Fraction(1, 9)])
    assert enumerate_uncovered(sys_).uncovered_count == 0
    assert enumerate_uncovered(scaled).uncovered_count == 0
    dropped = CoveringSystem.from_rows(sys_.rows[1:], sys_.mu[1:])
    dropped_scaled = CoveringSystem.from_rows(scaled.rows[1:], scaled.mu[1:])
    a = enumerate_uncovered(dropped)
    b = enumerate_uncovered(dropped_scaled)
    assert a.uncovered_count == b.uncovered_count
    assert a.witness == b.witness


def test_row_squared_norms_examples():
    assert unit_row([1, 1, 1, 1]).norm_sq == 4
    assert unit_row([Fraction(1, 2)] * 4).norm_sq == 1
    assert [unit_row(row).norm_sq for row in lr_cover(4).rows] == [4, 2, 2]


@given(st.lists(rationals, min_size=1, max_size=6), rationals.filter(lambda f: f > 0))
def test_row_norms_compose_with_rescaling(row, phi):
    if all(c == 0 for c in row):
        row[0] = Fraction(1)
    sys_ = CoveringSystem.from_rows([row], [0])
    scaled = apply_rescaling(sys_, [phi])
    assert unit_row(scaled.rows[0]).norm_sq == phi * phi * unit_row(sys_.rows[0]).norm_sq


@given(rationals, rationals.filter(lambda f: f != 0))
def test_scalar_arithmetic_exact(a, b):
    assert (a + b) - b == a
    assert (a * b) / b == a


def test_system_json_round_trip():
    sys_ = lr_cover(6)
    assert parse_system(json.dumps(sys_.to_json_dict())) == sys_


def test_arbitrary_precision_round_trip():
    big = 10**50
    sys_ = CoveringSystem.from_rows([[Fraction(big, big + 1), 1]], [Fraction(-big)])
    assert parse_system(json.dumps(sys_.to_json_dict())) == sys_


# Messages recorded from the parser before it memoized entry strings; a
# string that parsed once must not hide a bad entry that merely resembles it.
MALFORMED_ENTRIES = [
    ({"n": 3, "rows": [["1/2", "1/2", "1/2 x"]], "mu": ["0"]},
     "row 0, column 2: bad rational '1/2 x' (expected 'p' or 'p/q')"),
    ({"n": 3, "rows": [["1", "x", "x"]], "mu": ["0"]},
     "row 0, column 1: bad rational 'x' (expected 'p' or 'p/q')"),
    ({"n": 2, "rows": [["1", 1]], "mu": ["0"]},
     "row 0, column 1: bad rational 1 (expected 'p' or 'p/q')"),
    ({"n": 2, "rows": [["1", 1.0]], "mu": ["0"]},
     "row 0, column 1: bad rational 1.0 (expected 'p' or 'p/q')"),
    ({"n": 2, "rows": [["1", True]], "mu": ["0"]},
     "row 0, column 1: bad rational True (expected 'p' or 'p/q')"),
    ({"n": 2, "rows": [["1", "0"], ["2", None]], "mu": ["0", "1"]},
     "row 1, column 1: bad rational None (expected 'p' or 'p/q')"),
    ({"n": 2, "rows": [["1", ["1"]]], "mu": ["0"]},
     "row 0, column 1: bad rational ['1'] (expected 'p' or 'p/q')"),
    ({"n": 2, "rows": [["1", {"p": 1}]], "mu": ["0"]},
     "row 0, column 1: bad rational {'p': 1} (expected 'p' or 'p/q')"),
    ({"n": 2, "rows": [["1/2", "3/0"]], "mu": ["0"]},
     "row 0, column 1: zero denominator in '3/0'"),
    ({"n": 2, "rows": [["3/1", "1"], ["1", "3/0"]], "mu": ["0", "0"]},
     "row 1, column 1: zero denominator in '3/0'"),
    ({"n": 2, "rows": [["1", "0.5"]], "mu": ["0"]},
     "row 0, column 1: bad rational '0.5' (expected 'p' or 'p/q')"),
    ({"n": 1, "rows": [["1"]], "mu": [1]},
     "mu[0]: bad rational 1 (expected 'p' or 'p/q')"),
    ({"n": 1, "rows": [["1"]], "mu": [False]},
     "mu[0]: bad rational False (expected 'p' or 'p/q')"),
    ({"n": 2, "rows": [["1", "0"], ["0", "1"]], "mu": ["0", None]},
     "mu[1]: bad rational None (expected 'p' or 'p/q')"),
    ({"n": 1, "rows": [["1"]], "mu": [[]]},
     "mu[0]: bad rational [] (expected 'p' or 'p/q')"),
    ({"n": 1, "rows": [["7"]], "mu": ["7 /0"]},
     "mu[0]: bad rational '7 /0' (expected 'p' or 'p/q')"),
    ({"n": 1, "rows": [["1/3"]], "mu": ["1/0"]},
     "mu[0]: zero denominator in '1/0'"),
]


@pytest.mark.parametrize("doc, message", MALFORMED_ENTRIES)
def test_parse_system_entry_messages_unchanged(doc, message):
    with pytest.raises(SystemFormatError) as exc:
        parse_system(json.dumps(doc))
    assert str(exc.value) == message


def test_parse_system_repeated_strings_parse_alike():
    system = parse_system(json.dumps({"n": 4, "rows": [["-2/4", "0", " -1/2", "-2/4"], ["0", "3", "-2/4", "0"]],
                                      "mu": ["-2/4", "+3"]}))
    assert system.rows == ((Fraction(-1, 2), 0, Fraction(-1, 2), Fraction(-1, 2)), (0, 3, Fraction(-1, 2), 0))
    assert system.mu == (Fraction(-1, 2), 3)
    assert all(type(c) is Fraction for row in system.rows for c in row)


@pytest.mark.parametrize("c0", [Params().C0, Fraction(5), Fraction(47, 9)])
def test_params_derived_constants(c0):
    params = Params(C0=c0)
    c1 = 4 * c0 * c0
    assert (params.C1, params.tau, params.C3) == (c1, 1 / (1 + c1 * c1), 1 + c1 * c1)
    # Computed once per instance: later reads return the same objects.
    assert params.C1 is params.C1 and params.tau is params.tau and params.C3 is params.C3
    # A replaced instance derives its own constants.
    other = dataclasses.replace(params, C0=c0 + 1)
    assert other.C1 == 4 * (c0 + 1) ** 2 and other.tau == 1 / (1 + other.C1**2)
    assert Params().C0 == Fraction(4706, 1000)


def test_restrict_carries_the_cleared_rows():
    from cubecover.core import ClearedRow, clear_row

    system = CoveringSystem.from_rows(
        [["1/2", "0", "1/3", "0"], ["0", "2/5", "1", "3"], ["1/7", "0", "0", "1"]], ["1", "2", "0"])
    sub = system.restrict([0, 1], [0, 2, 3])
    fresh = CoveringSystem.from_rows([["1/2", "1/3", "0"], ["0", "1", "3"]], ["1", "2"])
    assert sub == fresh
    # Row 0 keeps its whole support, so its form is clear_row's; row 1 loses
    # its 2/5 and keeps D = 5 where clear_row would take 1.
    assert sub.cleared_rows == [clear_row(fresh.rows[0], fresh.mu[0]), ClearedRow([1, 2], [5, 15], 10, 5)]
    assert enumerate_uncovered(sub) == enumerate_uncovered(fresh)
