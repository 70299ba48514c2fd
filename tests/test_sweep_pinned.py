"""Byte-for-byte pins of `cubecover verify`, `atom-prob`, `window`, `scales`
and `construct-lr` output, in JSON and in CSV.

The expected outputs in data/sweep_pinned.json were recorded from the
Gray-code coverage sweep and the Fraction-keyed subset-sum and sampling
loops, before both became integer kernels; the window-edge cases
were recorded from the full 2^d subset-sum table, before exact mode met in
the middle; the CSV and `scales` cases at the end from the code in which
each report class wrote its own JSON dict; the LR covers with n = 18..24,
the 8 x 20 and 16 x 22 systems and the sampled cases at 1 and 4500 trials
from the sweep that split at n/2 and the sampler that drew one bit per
getrandbits call; the sampled cases at d = 1..257 from the sampler that
summed each trial's entries through compress.  Any change to the sweep or to
the anti-concentration arithmetic that alters a single byte of output
(exit code, stdout or stderr) fails here.

    python tests/test_sweep_pinned.py    # record the cases the data file lacks

That command keeps every existing pin; it exits non-zero, naming the cases,
if the current code would change one of them.
"""

import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from _pins import record_missing
from cubecover import lr_cover
from cubecover.cli import run_command

DATA = Path(__file__).parent / "data" / "sweep_pinned.json"


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _system_text(rows, mu) -> str:
    return json.dumps({"n": len(rows[0]), "rows": [[_fmt(c) for c in r] for r in rows], "mu": [_fmt(m) for m in mu]})


def _dense_system(rng, k, n, zero_cols=()):
    rows = []
    for _ in range(k):
        row = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)) for _ in range(n)]
        for j in zero_cols:
            row[j] = Fraction(0)
        rows.append(row)
    # Subset sums of the rows; the first row also holds the zero vertex.
    mu = [sum((c for c in row if rng.random() < 0.5), Fraction(0)) for row in rows]
    mu[0] = Fraction(0)
    return rows, mu


def _lr_variant(rng, n):
    """The LR cover with rows and columns permuted and rows positively rescaled."""
    lr = lr_cover(n)
    cols = list(range(n))
    order = list(range(lr.k))
    rng.shuffle(cols)
    rng.shuffle(order)
    scale = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in order]
    rows = [[f * lr.rows[i][j] for j in cols] for f, i in zip(scale, order)]
    return rows, [f * lr.mu[i] for f, i in zip(scale, order)]


def pinned_cases() -> list[tuple[str, list[str], str]]:
    """(name, argv, stdin) for verify, atom-prob and window, exact and sampled,
    and for scales and construct-lr."""
    rng = random.Random(20261018)
    verify = ["verify", "--input", "-", "--seed", "0"]
    cases = []
    for n in (2, 8, 10, 14):
        lr = lr_cover(n)
        cases.append((f"verify-lr-{n}", verify, _system_text(lr.rows, lr.mu)))
        cases.append((f"verify-lr-{n}-no-sum-row", verify, _system_text(lr.rows[1:] or lr.rows, lr.mu[1:] or lr.mu)))
    for n in (10, 12):
        cases.append((f"verify-lr-{n}-permuted-rescaled", verify, _system_text(*_lr_variant(rng, n))))
    for k, n, zeros in ((1, 5, ()), (3, 8, ()), (4, 11, (2, 7)), (6, 12, ()), (8, 13, (0,))):
        cases.append((f"verify-dense-{k}x{n}", verify, _system_text(*_dense_system(rng, k, n, zeros))))
    rows, mu = _dense_system(rng, 3, 9)
    cases.append(("verify-duplicate-row", verify, _system_text([*rows, rows[1]], [*mu, mu[1]])))
    # A digit of another script is not a digit of a rational.
    cases.append(("verify-non-ascii-digit", verify, json.dumps({"n": 2, "rows": [["\u0661", "1"]], "mu": ["1"]})))
    lr = lr_cover(12)
    cases.append(("verify-above-cap", [*verify, "--cap", "10"], _system_text(lr.rows, lr.mu)))
    # Sizes at which the sweep's split point moves furthest from n/2: LR
    # covers up to the default cap, with and without the sum row, and dense
    # systems of up to 16 rows.  Their own generator leaves the draws above alone.
    large = random.Random(20261019)
    for n in (18, 20, 22, 24):
        lr = lr_cover(n)
        cases.append((f"verify-lr-{n}", verify, _system_text(lr.rows, lr.mu)))
        cases.append((f"verify-lr-{n}-no-sum-row", verify, _system_text(lr.rows[1:], lr.mu[1:])))
    cases.append(("verify-lr-20-permuted-rescaled", verify, _system_text(*_lr_variant(large, 20))))
    for k, n, zeros in ((8, 20, (13,)), (16, 22, ())):
        cases.append((f"verify-dense-{k}x{n}", verify, _system_text(*_dense_system(large, k, n, zeros))))

    vectors = {
        "ones": ["1"] * 14,
        "pow2": [str(1 << i) for i in range(13)],
        "signed": ["3", "-2", "0", "5", "-7", "1", "0", "2", "-2", "4", "6"],
        "rational": ["1/2", "-2/3", "3/5", "0", "7/4", "-1/6", "5/7", "2", "-3/2", "1/3", "4/9", "5/11"],
    }
    for name, vec in vectors.items():
        for a in ("0", "3", "1/2", "-5/13"):
            doc = json.dumps({"vector": vec, "a": a})
            cases.append((f"atom-{name}-{a}", ["atom-prob", "--input", "-", "--seed", "2"], doc))
            cases.append((f"atom-{name}-{a}-sampled",
                          ["atom-prob", "--input", "-", "--seed", "5", "--mode", "sampled", "--trials", "3000"], doc))
        doc = json.dumps({"vector": vec})
        for c0 in (None, "37/7", "12"):
            extra = [] if c0 is None else ["--c0", c0]
            cases.append((f"window-{name}-{c0}", ["window", "--input", "-", "--seed", "1", *extra], doc))
            cases.append((f"window-{name}-{c0}-sampled",
                          ["window", "--input", "-", "--seed", "7", "--mode", "sampled", "--trials", "2500", *extra], doc))
    doc = json.dumps({"vector": ["1"] * 12, "a": "2"})
    cases.append(("atom-above-cap", ["atom-prob", "--input", "-", "--seed", "0", "--cap", "8"], doc))
    cases.append(("window-above-cap", ["window", "--input", "-", "--seed", "0", "--cap", "8"], doc))

    # Edges of the exact window mass: dimension 1, zero entries, targets
    # between, beyond and at the extremes of the subset sums, and d = 18.
    atom = ["atom-prob", "--input", "-", "--seed", "3"]
    signed = [Fraction(3), Fraction(-2), Fraction(0), Fraction(5), Fraction(-7), Fraction(1, 2), Fraction(-1, 3)]
    pow2 = [Fraction(1 << i) for i in range(18)]
    random.Random(18).shuffle(pow2)
    for name, vec, a in (
        ("d1-hit", [Fraction(-5, 2)], Fraction(-5, 2)),
        ("d1-zero", [Fraction(3)], Fraction(0)),
        ("d1-zero-entry", [Fraction(0)], Fraction(0)),
        ("odd-zeros", [Fraction(c) for c in (0, 2, -1, 0, 3, 0, -2)], Fraction(2)),
        ("unreachable-between", [Fraction(c) for c in (2, 4, 6, -8, 10)], Fraction(3)),
        ("unreachable-beyond", [Fraction(c) for c in (1, 2, 4)], Fraction(8)),
        ("min-sum", signed, sum(c for c in signed if c < 0)),
        ("max-sum", signed, sum(c for c in signed if c > 0)),
        ("pow2-18", pow2, Fraction(174763)),
    ):
        cases.append((f"atom-{name}", atom, json.dumps({"vector": [_fmt(c) for c in vec], "a": _fmt(a)})))
    window = ["window", "--input", "-", "--seed", "4"]
    cases.append(("window-pow2-18", window, json.dumps({"vector": [_fmt(c) for c in pow2]})))
    # Sums on the closed edges: |z| = |v|/C0 at z = +-3/2 for the first vector
    # (|v| = 9, C0 = 6).  |z| <= sum|v_j|/2 <= sqrt(d)|v|/2, so the outer edge
    # |z| = C0|v| needs d >= 4 C0^2 > 88: one hundred ones with C0 = 5 put
    # z = +-50 on it and z = +-2 on the inner edge.
    for name, vec, extra in (
        ("inner-edge", ["-5", "3", "2", "-3", "3", "-5"], ["--c0", "6"]),
        ("both-edges", ["1"] * 100, ["--c0", "5", "--cap", "100"]),
        ("both-edges-signed", ["1"] * 99 + ["-1"], ["--c0", "5", "--cap", "100"]),
    ):
        cases.append((f"window-{name}", [*window, *extra], json.dumps({"vector": vec})))
    # Sampled mass at a single draw, across a chunk of draws, and in
    # dimension above 32 (more than one 32-bit word of draws per trial).
    wide = [str((-1) ** j * (j * j % 23 + 1)) for j in range(40)]
    for name, vec, trials in (("signed", vectors["signed"], "1"), ("rational", vectors["rational"], "1"),
                              ("ones", vectors["ones"], "4500"), ("d40", wide, "4500")):
        cases.append((f"atom-{name}-sampled-trials-{trials}",
                      ["atom-prob", "--input", "-", "--seed", "6", "--mode", "sampled", "--trials", trials],
                      json.dumps({"vector": vec, "a": "3"})))
        cases.append((f"window-{name}-sampled-trials-{trials}",
                      ["window", "--input", "-", "--seed", "8", "--mode", "sampled", "--trials", trials],
                      json.dumps({"vector": vec})))
    # Sampled mass on both sides of each 8-coordinate group boundary and of the
    # widest vector summed through byte tables (256), on vectors with a zero
    # entry (for d > 1) and with 10^30 and -10^30 as first and last entry, at
    # one trial and at 257.  The atom is a sum of small entries, hit whenever
    # the huge entries cancel and the rest lands on it.
    for d in (1, 7, 8, 9, 16, 17, 24, 64, 256, 257):
        base = [str((-1) ** j * (j * j % 19 + 1)) for j in range(d)]
        zero = [*base[: d // 2], "0", *base[d // 2 + 1 :]]
        huge = ["1" + "0" * 30, *base[1 : d - 1], "-1" + "0" * 30][:d]
        for name, vec in (("zero", zero), ("huge", huge))[d == 1:]:
            a = str(sum(int(c) for c in vec[1:8:2] if len(c) < 30))
            for trials in ("1", "257"):
                cases.append((f"atom-d{d}-{name}-sampled-trials-{trials}",
                              ["atom-prob", "--input", "-", "--seed", "9", "--mode", "sampled", "--trials", trials],
                              json.dumps({"vector": vec, "a": a})))
                cases.append((f"window-d{d}-{name}-sampled-trials-{trials}",
                              ["window", "--input", "-", "--seed", "10", "--mode", "sampled", "--trials", trials],
                              json.dumps({"vector": vec})))
    # CSV: one key,value line per top-level key, each value a scalar as it
    # is, a rational as p/q, or compact JSON (lists, vertices, records).
    lr = lr_cover(6)
    cases.append(("construct-lr-6-csv", ["construct-lr", "--n", "6", "--format", "csv"], ""))
    cases.append(("verify-lr-6-csv", [*verify, "--format", "csv"], _system_text(lr.rows, lr.mu)))
    # E1, E2 and E3 all fail: an uncovered vertex, an unused column, rows with no exclusive vertex.
    one, zero = Fraction(1), Fraction(0)
    rows = [[one, zero, zero], [one, zero, zero], [one, one, zero]]
    cases.append(("verify-non-essential-csv", [*verify, "--format", "csv"], _system_text(rows, [zero, zero, one])))
    cases.append(("atom-signed-1/2-csv", ["atom-prob", "--input", "-", "--seed", "2", "--format", "csv"],
                  json.dumps({"vector": vectors["signed"], "a": "1/2"})))
    cases.append(("window-rational-None-csv", ["window", "--input", "-", "--seed", "1", "--format", "csv"],
                  json.dumps({"vector": vectors["rational"]})))
    for name, vec, extra in (("3-4", ["3", "4"], []), ("decay", ["10000", "100", "1"], []),
                             ("decay-unreachable", ["10000", "100", "1"], ["--target-s", "5"])):
        scales = ["scales", "--input", "-", "--seed", "0", *extra]
        cases.append((f"scales-{name}", scales, json.dumps({"vector": vec})))
        cases.append((f"scales-{name}-csv", [*scales, "--format", "csv"], json.dumps({"vector": vec})))
    return cases


def _run(argv, text):
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        result = run_command(argv)
    finally:
        sys.stdin = stdin
    return {"exit_code": result.exit_code, "stdout": result.stdout, "stderr": result.stderr}


CASES = pinned_cases()


@pytest.mark.parametrize("name, argv, text", CASES, ids=[c[0] for c in CASES])
def test_output_is_byte_identical_to_pinned(name, argv, text):
    expected = json.loads(DATA.read_text())[name]
    assert _run(argv, text) == expected


def test_pins_cover_witnesses_and_verdicts():
    expected = json.loads(DATA.read_text())
    json_cases = [(name, argv) for name, argv, _ in CASES if "csv" not in argv and expected[name]["stdout"]]
    reports = [json.loads(expected[name]["stdout"]) for name, argv in json_cases if argv[0] == "verify"]
    assert any(r["is_essential"] for r in reports)
    assert any(r["e1_witness"] for r in reports)
    assert any(not r["e3"] and any(r["e3_witnesses"]) for r in reports)
    assert any(expected[name]["exit_code"] == 2 for name, _, _ in CASES)
    probabilities = {json.loads(expected[name]["stdout"])["probability"] for name, argv in json_cases
                     if argv[0] in ("atom-prob", "window")}
    assert len(probabilities) > 20 and "0" in probabilities


if __name__ == "__main__":
    record_missing(DATA, CASES, _run)
