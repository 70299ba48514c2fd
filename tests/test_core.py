import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import cubecover.core as core
from cubecover import (
    CoveringSystem,
    SystemFormatError,
    Vertex,
    enumerate_uncovered,
    format_rational,
    lr_cover,
    parse_rational,
    parse_system,
)
from cubecover.core import cleared_block
from _oracle import apply_rescaling

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


# Digits of other scripts: int() reads them, and \d alone would match them.
@pytest.mark.parametrize("bad", ["\u0661", "\uff15/\uff17", "1/\u0662", "-\u0663", "\u0967\u0966"])
def test_parse_rational_rejects_non_ascii_digits(bad):
    with pytest.raises(SystemFormatError, match="bad rational"):
        parse_rational(bad, where="row 0, column 0")


def test_parse_rational_zero_denominator():
    with pytest.raises(SystemFormatError, match="zero denominator"):
        parse_rational("1/0", where="row 1, column 0")


@given(rationals)
def test_format_parse_round_trip(x):
    assert parse_rational(format_rational(x)) == x


# str() refuses an int of more digits than sys.get_int_max_str_digits() (4300
# by default); format_rational writes it in pieces, zero-padded between them.
@pytest.mark.parametrize("x, text", [
    (Fraction(10**5000 + 1, 7), "1" + "0" * 4999 + "1/7"),
    (Fraction(-(10**5000) - 10**100), "-1" + "0" * 4899 + "1" + "0" * 100),
    (Fraction(3, 10**9000), "3/1" + "0" * 9000),
    (Fraction(-(10**8598) + 1), "-" + "9" * 8598),
    (Fraction(10**8598), "1" + "0" * 8598),
])
def test_format_rational_writes_past_the_int_digit_limit(x, text):
    assert format_rational(x) == text


# A value that is not a Fraction is written as the Fraction it equals.
@pytest.mark.parametrize("x, text", [(3, "3"), (-12, "-12"), (0, "0"), (True, "1"), (False, "0"),
                                     (10**5000, "1" + "0" * 5000)],
                         ids=["int", "negative-int", "zero", "true", "false", "int-past-the-digit-limit"])
def test_format_rational_writes_an_int_or_bool_as_its_fraction(x, text):
    assert format_rational(x) == text


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


def _norm_sq(row):
    """A row's squared norm as the stages that read rows as unit vectors work
    it out: sum b^2 / D^2 over its cleared form."""
    _, ints, _, mult = cleared_block([row]).rows[0]
    return Fraction(sum(b * b for b in ints), mult * mult)


def test_row_squared_norms_examples():
    assert _norm_sq([1, 1, 1, 1]) == 4
    assert _norm_sq([Fraction(1, 2)] * 4) == 1
    assert [_norm_sq(row) for row in lr_cover(4).rows] == [4, 2, 2]


@given(st.lists(rationals, min_size=1, max_size=6), rationals.filter(lambda f: f > 0))
def test_row_norms_compose_with_rescaling(row, phi):
    if all(c == 0 for c in row):
        row[0] = Fraction(1)
    sys_ = CoveringSystem.from_rows([row], [0])
    scaled = apply_rescaling(sys_, [phi])
    assert _norm_sq(scaled.rows[0]) == phi * phi * _norm_sq(sys_.rows[0])


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
    # The first fault in document order, row by row, shape before entries,
    # though every entry of the document is parsed together.
    ({"n": 2, "rows": [["1", "x"], ["1"]], "mu": ["0", "0"]},
     "row 0, column 1: bad rational 'x' (expected 'p' or 'p/q')"),
    ({"n": 2, "rows": [["1", "2"], ["1"], ["x", "1"]], "mu": ["0", "0", "0"]},
     "row 1 has 1 entries, expected 2"),
    ({"n": 2, "rows": [["1", "2"], ["1", "2"], "12"], "mu": ["x", "0", "0"]},
     "row 2 has ?? entries, expected 2"),
    ({"n": 2, "rows": [["1", "2"], [[], "y"]], "mu": ["x", "0"]},
     "row 1, column 0: bad rational [] (expected 'p' or 'p/q')"),
    ({"n": 2, "rows": [["1", "2"], ["2", "1"]], "mu": ["2", "x"]},
     "mu[1]: bad rational 'x' (expected 'p' or 'p/q')"),
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


def test_paper_constants_are_exact_fractions():
    assert core.C0 == Fraction(4706, 1000)
    assert all(type(x) is Fraction for x in (core.C0, core.C1, core.C3, core.TAU))
    assert (core.C1, core.C3, core.TAU) == (4 * core.C0**2, 1 + core.C1**2, 1 / (1 + core.C1**2))
    assert (1 - core.TAU) / core.TAU == core.C1**2


def test_restrict_filters_the_sparse_rows():
    from cubecover.core import ClearedRow, SparseRow

    system = CoveringSystem.from_rows(
        [["1/2", "0", "1/3", "0"], ["0", "2/5", "1", "3"], ["1/7", "0", "0", "1"]], ["1", "2", "0"])
    sub = system.restrict([0, 1], [0, 2, 3])
    fresh = CoveringSystem.from_rows([["1/2", "1/3", "0"], ["0", "1", "3"]], ["1", "2"])
    assert sub == fresh
    assert sub.sparse_rows == (SparseRow([0, 1], [Fraction(1, 2), Fraction(1, 3)]), SparseRow([1, 2], [1, 3]))
    # Row 1 loses its 2/5, so it is cleared over D = 1, not over the D = 5
    # that the full row's cleared form cut by ``block`` keeps.
    assert sub.cleared_rows == fresh.cleared_rows
    assert sub.cleared_rows == [ClearedRow([0, 1], [3, 2], 6, 6), ClearedRow([1, 2], [1, 3], 2, 1)]
    assert system.block([0, 1], [0, 2, 3]).rows[1] == ClearedRow([1, 2], [5, 15], 10, 5)
    assert enumerate_uncovered(sub) == enumerate_uncovered(fresh)


# The entry parser and the vertex constructors as they were before they ran
# their loops in C (set difference, map, format, tuple.count), kept verbatim
# as oracles.
def _parse_entries_oracle(raw, where, parsed):
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


def _from_code_oracle(code, n):
    return tuple((code >> (n - 1 - j)) & 1 for j in range(n))


def _vertex_bits_ok_oracle(bits):
    return all(type(b) is int and b in (0, 1) for b in bits)


GOOD_ENTRIES = st.one_of(
    st.sampled_from(["0", "0/7", "-0", "+00", " 1", "1", "01", "-2/4", "1/2", "3", " -1/2 ", "10/5"]),
    rationals.map(str),
)
BAD_ENTRIES = st.one_of(
    st.sampled_from(["", "x", "1.5", "3/0", "1/2 x", "١", "--1", "7 /0"]),
    st.sampled_from([1, 0, 1.0, 0.5, True, False, None, [], ["1"], {"p": 1}, {}]),
)


def _outcome(parse, raw, parsed):
    try:
        return "ok", parse(raw, lambda j: f"row 3, column {j}", parsed)
    except SystemFormatError as exc:
        return "error", str(exc)


@given(st.lists(st.lists(GOOD_ENTRIES, max_size=8), min_size=1, max_size=4), st.lists(BAD_ENTRIES, max_size=2),
       st.randoms(use_true_random=False))
def test_parse_entries_matches_the_oracle(rows, bad, rnd):
    # Rows parsed in turn through one shared dict; the last row may carry
    # bad entries anywhere.
    last = rows[-1] + bad
    rnd.shuffle(last)
    rows = [*rows[:-1], last]
    parsed, parsed_oracle = {}, {}
    for raw in rows:
        got, want = _outcome(core._parse_entries, raw, parsed), _outcome(_parse_entries_oracle, raw, parsed_oracle)
        assert got == want
        if got[0] == "error":
            break
        assert parsed == parsed_oracle
        values = got[1]
        assert all(type(x) is Fraction for x in values)
        # Equal strings share one Fraction, the one the dict holds.
        assert all(x is parsed[c] for c, x in zip(raw, values))


@pytest.mark.parametrize("entry", [["1"], {"p": 1}, [], {}])
def test_parse_entries_names_an_unhashable_entry(entry):
    raw = ["1", "2/3", entry, "x"]
    where = lambda j: f"vector[{j}]"
    with pytest.raises(SystemFormatError) as exc:
        core._parse_entries(raw, where, {})
    with pytest.raises(SystemFormatError) as oracle:
        _parse_entries_oracle(raw, where, {})
    assert str(exc.value) == str(oracle.value) == f"vector[2]: bad rational {entry!r} (expected 'p' or 'p/q')"


@given(st.integers(0, 12), st.one_of(st.integers(-(2**14), 2**14), st.integers(-(2**80), 2**80)))
def test_from_code_matches_the_oracle(n, code):
    assert Vertex.from_code(code, n).bits == _from_code_oracle(code, n)
    assert all(type(b) is int for b in Vertex.from_code(code, n))


@given(st.lists(st.sampled_from([0, 1, 2, -1, 0.5, "1", None, True, False, 1.0, 0.0]), max_size=6))
def test_vertex_bits_check_matches_the_oracle(bits):
    bits = tuple(bits)
    if _vertex_bits_ok_oracle(bits):
        assert Vertex(bits).bits == bits
    else:
        with pytest.raises(ValueError) as exc:
            Vertex(bits)
        assert str(exc.value) == f"vertex bits must be 0/1, got {bits}"


@pytest.mark.parametrize("bad", [2, -1, 0.5, "1", None])
def test_vertex_rejects_non_bits(bad):
    with pytest.raises(ValueError, match=r"vertex bits must be 0/1, got \(0, "):
        Vertex((0, bad, 1))


@pytest.mark.parametrize("bits", [(True,), (1.0, 0)], ids=["bool", "float"])
def test_vertex_rejects_bits_that_only_equal_0_or_1(bits):
    with pytest.raises(ValueError, match=r"^vertex bits must be 0/1, got \("):
        Vertex(bits)


def test_parse_system_zero_spellings():
    system = parse_system(json.dumps({"n": 3, "rows": [["0/7", "-0", "1"], ["+00", "2", "0"]], "mu": ["-0", "0/3"]}))
    assert system.rows == ((0, 0, 1), (0, 2, 0)) and system.mu == (0, 0)
    with pytest.raises(SystemFormatError, match="^zero row at index 1$"):
        parse_system(json.dumps({"n": 3, "rows": [["0", "0", "1"], ["0/7", "-0", "+00"]], "mu": ["0", "1"]}))
