"""Byte-for-byte pins of `cubecover refute` and `cubecover decompose` output.

The expected outputs in data/refute_pinned.json were recorded from the
all-Fraction implementation, before rows were cleared to integers and the
first decomposition was made incremental; the plank-8x48, plank-mixed-* and
plank-dense-columns pins from the code before the precondition, the K3
block and the Gram matrix ran on cleared, sparse rows; the blocks-* pins
(non-empty K2 and K4 blocks) from the code before the N2 sampler and the K4
test ran on cleared rows; the decompose-*-blocks-* pins from the code before
the second decomposition handed its rounds the system's cleared rows; the
decompose-*-decay-* pins (multi-part scale partitions) from the code that
still built each partition from a copy of M1 taken at every renormalization
and a dense rational copy of the row, before it read the parts off M2 at the
renormalizations' cut points and the norms off the cleared row; the
lr-14-minus-pair-sampled pin (a sampled N3 witness on draw 178) from the
code whose sampler could still keep drawing after the witness; the *-csv
pins from the code in which each report class wrote its own JSON dict; the
*-threshold-* pins (tau/W at and around the row count) from the code that
built every column mass whatever the threshold; the plank-4x16-n1-subset-*
(K3 rows restricted to a strict subset N1), *-zero-spellings, *-c-* and
*-c5-* (the default W and S) and *-gamma-* (hypothesis sides) pins from the
code that copied every K3 row onto N1, parsed entries one at a time and
built W and the hypothesis sides through chained Fraction operations; the
random-6x36-*-big pins from the code that first refused option values beyond
10^30; the plank-4x16-mu0-beyond-float-* pins from the code that first read
such a K3 target as the infinity of its sign; the random-6x36-gamma-1 and
random-6x36-strict-hypotheses pins from the code that handed the pipeline
its settings as one record; the *-gamma-1over10e* pins from the code that
first decided count > |M2|^gamma from bit lengths (before it, both runs
raised a count to the power 10^23 or 10^40 and never returned).  Any
change to the arithmetic of the refute path that alters a single byte of
output fails here.

    python tests/test_refute_pinned.py    # record the cases the data file lacks

That command keeps every existing pin; it exits non-zero, naming the cases,
if the current code would change one of them.
"""

import io
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from _pins import record_missing
from cubecover import lr_cover
from cubecover.core import TAU
from cubecover.cli import run_command

DATA = Path(__file__).parent / "data" / "refute_pinned.json"


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _system_text(rows, mu) -> str:
    return json.dumps({"n": len(rows[0]), "rows": [[_fmt(c) for c in r] for r in rows], "mu": [_fmt(m) for m in mu]})


def _random_system(rng, k, n):
    rows = []
    while len(rows) < k:
        row = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.35 else Fraction(0)
               for _ in range(n)]
        if any(row):
            rows.append(row)
    return rows, [Fraction(rng.randint(-3, 3)) for _ in range(k)]


PLANK_ENTRIES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
MIXED_ENTRIES = (Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7))


def _plank_system(rng, k, s, entries=PLANK_ENTRIES, shared=0):
    """k rows of support s, mu = half the row sum; consecutive rows share ``shared`` columns."""
    step = s - shared
    n = k * step + shared
    layout = list(range(n))
    rng.shuffle(layout)
    rows, mu = [], []
    for i in range(k):
        row = [Fraction(0)] * n
        values = [rng.choice(entries) for _ in range(s)]
        for j, c in zip(layout[i * step:i * step + s], values):
            row[j] = c
        rows.append(row)
        mu.append(sum(values) / 2)
    return rows, mu


def _plank_with_dense_columns(rng, k, s, dense):
    """A plank system on k * s columns plus ``dense`` columns that every row
    touches, and one more row that lives on those columns alone.  The filter
    sends the dense columns to N3 and the extra row to K1; its smallest
    avoiding vertex sets the last dense column, which the K3 targets subtract."""
    rows, mu = _plank_system(rng, k, s, MIXED_ENTRIES)
    for i, row in enumerate(rows):
        extra = [rng.choice(MIXED_ENTRIES) for _ in range(dense)]
        row.extend(extra)
        mu[i] += extra[-1]
    rows.append([Fraction(0)] * (k * s) + [Fraction(1)] * dense)
    mu.append(Fraction(0))
    return rows, mu


def _block_system(rng, k, n):
    """k rows at one random density, each entry +-1..big (big in 1, 2, 3 or
    1000, one entry in 20 scaled up 1000 more) over 1, 3, 5 or 7, mu a random
    subset sum of the row.  Small S and W then give non-empty K2 and K4 blocks."""
    density = rng.uniform(0.05, 0.5)
    rows, mu = [], []
    while len(rows) < k:
        big = rng.choice((1, 2, 3, 1000))
        row = [Fraction(rng.choice((-1, 1)) * rng.randint(1, big) * (1000 if rng.random() < 0.05 else 1),
                        rng.choice((1, 1, 3, 5, 7)))
               if rng.random() < density else Fraction(0) for _ in range(n)]
        if any(row):
            rows.append(row)
            mu.append(sum(c for c in row if rng.random() < 0.5))
    return rows, mu


# (system seed, k, n) of the K2/K4 block systems, pinned at S = 1..3 and W = 1/10, 10.
BLOCK_SYSTEMS = ((15, 6, 80), (46, 6, 80), (26, 6, 160))


def pinned_cases() -> list[tuple[str, list[str], str]]:
    """(name, argv, stdin) for seeded random, plank and LR systems."""
    rng = random.Random(20220901)
    cases = []
    for k, n in ((6, 36), (8, 40), (12, 60)):
        text = _system_text(*_random_system(rng, k, n))
        cases.append((f"random-{k}x{n}", ["refute", "--input", "-", "--seed", "3", "--cap", "16"], text))
        cases.append((f"random-{k}x{n}-decompose", ["decompose", "--input", "-", "--seed", "3"], text))
    plank_argv = ["refute", "--input", "-", "--seed", "5", "--w", "1/1000000"]
    for k, s in ((4, 16), (4, 32), (6, 24), (8, 48)):
        cases.append((f"plank-{k}x{s}", plank_argv, _system_text(*_plank_system(rng, k, s))))
    # Denominators 3, 5 and 7 in one row; then rows that share columns (alpha = 2).
    cases.append(("plank-mixed-6x30", plank_argv, _system_text(*_plank_system(rng, 6, 30, MIXED_ENTRIES))))
    cases.append(("plank-mixed-shared-4x32", plank_argv,
                  _system_text(*_plank_system(rng, 4, 32, MIXED_ENTRIES, shared=8))))
    cases.append(("plank-dense-columns-4x24", plank_argv, _system_text(*_plank_with_dense_columns(rng, 4, 24, 4))))
    for n, extra in ((8, []), (12, []), (16, ["--cap", "4", "--trials", "50"])):
        lr = lr_cover(n)
        text = _system_text(lr.rows, lr.mu)
        cases.append((f"lr-{n}", ["refute", "--input", "-", "--seed", "7", *extra], text))
    # LR(14) without its first pair row: 2^7 of the 2^14 vertices are
    # uncovered, so the sampled N3 search (14 columns, cap 4) finds its
    # witness on draw 178 of 1000.
    lr = lr_cover(14)
    cases.append(("lr-14-minus-pair-sampled", ["refute", "--input", "-", "--seed", "7", "--cap", "4"],
                  _system_text(lr.rows[:1] + lr.rows[2:], lr.mu[:1] + lr.mu[2:])))
    # The dense-column filter absorbs every row: the full squared norms are reported.
    rows = [[Fraction(0)] * 64 for _ in range(2)]
    rows[0][0], rows[0][1], rows[1][2], rows[1][3] = Fraction(1, 2), Fraction(3), Fraction(1), Fraction(-2, 3)
    cases.append(("dense-filter-decompose", ["decompose", "--input", "-", "--seed", "1", "--w", "1"],
                  _system_text(rows, [Fraction(1), Fraction(1)])))
    # Each system on its own seed, so that the cases above keep their inputs.
    for seed, k, n in BLOCK_SYSTEMS:
        text = _system_text(*_block_system(random.Random(seed), k, n))
        for s in (1, 2, 3):
            for w in ("1/10", "10"):
                cases.append((f"blocks-{seed}-{k}x{n}-s{s}-w{w.replace('/', 'over')}",
                              ["refute", "--input", "-", "--seed", "3", "--cap", "16", "--trials", "40",
                               "--s", str(s), "--w", w], text))
    # Decompositions whose later rounds hand the first stage rows that are
    # zero on the working columns (0-8x60), and whose last round gives K4
    # rows scale partitions after two absorptions (1-6x80).
    for seed, k, n, s, w, stage in ((0, 8, 60, 1, "1/10", "second"), (1, 6, 80, 1, "10", "second"),
                                    (0, 6, 80, 1, "1/10", "first")):
        text = _system_text(*_block_system(random.Random(seed), k, n))
        cases.append((f"decompose-{stage}-blocks-{seed}-{k}x{n}-s{s}-w{w.replace('/', 'over')}",
                      ["decompose", "--input", "-", "--seed", "3", "--stage", stage, "--s", str(s), "--w", w], text))
    # Rows that renormalize at every move: at S = 3 each departs with three
    # scale parts, the middle one a single column (first stage: row 0, parts
    # [0, 1], [2], [3, 4, 5]; second stage: the K4 row, whose last part also
    # holds N1).  No other pinned partition has more than one part.
    decay = [Fraction(1), Fraction(1, 10**3), Fraction(1, 10**6), Fraction(1, 10**9), Fraction(0), Fraction(0)]
    first_text = _system_text([decay, [Fraction(0)] * 4 + [Fraction(1)] * 2], [Fraction(0), Fraction(1)])
    steep = [Fraction(10) ** e for e in (12, 10, 8, 6, 4, 2)] + [Fraction(0)] * 10
    second_text = _system_text([steep, [Fraction(0)] * 6 + [Fraction(1)] * 10], [Fraction(0), Fraction(5)])
    for stage, w, text in (("first", "1", first_text), ("second", "1/1000", second_text)):
        for s in (2, 3):
            cases.append((f"decompose-{stage}-decay-s{s}-w{w.replace('/', 'over')}",
                          ["decompose", "--input", "-", "--seed", "3", "--stage", stage, "--s", str(s), "--w", w],
                          text))
    # CSV: a vertex with its small-norm check, a failed N2 stage, and both
    # decompositions with a three-part scale partition.
    runs = {name: (argv, text) for name, argv, text in cases}
    for name in ("plank-4x16", "blocks-15-6x80-s1-w1over10", "decompose-first-decay-s3-w1",
                 "decompose-second-decay-s3-w1over1000"):
        argv, text = runs[name]
        cases.append((f"{name}-csv", [*argv, "--format", "csv"], text))
    # The heavy-column threshold tau/W at the bound on an initial column mass:
    # a row adds at most 1 to a column's mass, so with l rows tau/W = l
    # moves a column that all l rows share, and tau/W just above l moves none.
    tau = TAU
    ell = 3
    shared = [[Fraction(c)] + [Fraction(0)] * 3 for c in (1, -2, 5)]
    shared_text = _system_text(shared, [Fraction(0), Fraction(1), Fraction(5)])
    for label, w in (("at-ell", tau / ell), ("above-ell", tau / (ell + Fraction(1, 10**6)))):
        cases.append((f"decompose-first-shared-column-threshold-{label}",
                      ["decompose", "--input", "-", "--seed", "3", "--stage", "first", "--s", "1", "--w", _fmt(w)],
                      shared_text))
    # A plank system refuted with tau/W just above and just below k = 4.
    plank_text = _system_text(*_plank_system(random.Random(4), 4, 16))
    for label, threshold in (("above-k", 4 + Fraction(1, 1000)), ("below-k", 4 - Fraction(1, 1000))):
        cases.append((f"plank-4x16-threshold-{label}",
                      ["refute", "--input", "-", "--seed", "5", "--w", _fmt(tau / threshold)], plank_text))
    # The same plank system with tau/W inside (0, 1): the heaviest columns
    # move to N2, so N1 is a strict subset of the columns and each K3 row is
    # restricted to it (uncovered at 1/20 and 1/8, the precondition fails on
    # the restricted rows at 1/10).
    for label, threshold in (("1over20", Fraction(1, 20)), ("1over10", Fraction(1, 10)), ("1over8", Fraction(1, 8))):
        cases.append((f"plank-4x16-n1-subset-threshold-{label}",
                      ["refute", "--input", "-", "--seed", "5", "--w", _fmt(tau / threshold)], plank_text))
    # Zero spelled "0/7", "-0" and "+00" in rows and mu, beside plain "0";
    # and a row that is zero in every spelling, which is an input error.
    spellings = ("0/7", "-0", "+00", "0")
    for name, argv, text in list(cases):
        if name in ("random-6x36", "random-6x36-decompose", "plank-4x16"):
            doc = json.loads(text)
            spelling = itertools.cycle(spellings)
            respell = lambda c: next(spelling) if c == "0" else c
            doc["rows"] = [[respell(c) for c in row] for row in doc["rows"]]
            doc["mu"] = [respell(c) for c in doc["mu"]]
            cases.append((f"{name}-zero-spellings", argv, json.dumps(doc)))
    zero_row_text = json.dumps({"n": 4, "rows": [["1", "0", "-1/2", "0"], ["0/7", "-0", "+00", "0"]], "mu": ["-0", "0/3"]})
    cases.append(("zero-row-spellings", ["refute", "--input", "-", "--seed", "3"], zero_row_text))
    # The default W and S built from --c (the W multiplier) and --c5.
    for name in ("random-6x36", "random-8x40", "lr-12"):
        argv, text = runs[name]
        for label, extra in (("c-3over2", ["--c", "3/2"]), ("c5-7", ["--c5", "7"]),
                             ("c-1over3-c5-2", ["--c", "1/3", "--c5", "2"])):
            cases.append((f"{name}-{label}", [*argv, *extra], text))
    # The second decomposition on a non-default gamma: its output holds both
    # hypothesis sides.
    for name in ("random-8x40-decompose", "random-12x60-decompose"):
        argv, text = runs[name]
        for gamma in ("1/2", "1"):
            cases.append((f"{name}-gamma-{gamma.replace('/', 'over')}", [*argv, "--stage", "second", "--gamma", gamma],
                          text))
    # Options whose floats would overflow: refused as input errors.
    argv, text = runs["random-6x36"]
    for flag in ("--w", "--c", "--c5", "--s"):
        cases.append((f"random-6x36-{flag[2:]}-big", [*argv, flag, str(10**400)], text))
    # The whole pipeline on a non-default gamma, and in strict mode, which
    # stops at the decomposition hypotheses (exit 1).
    cases.append(("random-6x36-gamma-1", [*argv, "--gamma", "1"], text))
    cases.append(("random-6x36-strict-hypotheses", [*argv, "--strict-hypotheses"], text))
    block_text = _system_text(*_block_system(random.Random(1), 6, 80))
    cases.append(("decompose-second-blocks-1-6x80-s1-w10-gamma-2over3",
                  ["decompose", "--input", "-", "--seed", "3", "--stage", "second", "--s", "1", "--w", "10",
                   "--gamma", "2/3"], block_text))
    # A K3 target beyond the float range, of either sign.
    for label, sign in (("plus", 1), ("minus", -1)):
        rows, mu = _plank_system(random.Random(4), 4, 16)
        mu[0] = Fraction(sign * 10**400)
        cases.append((f"plank-4x16-mu0-beyond-float-{label}", plank_argv, _system_text(rows, mu)))
    # An absorption exponent 1/10^23 or 1/10^40, far below 1/bit_length(|M2|):
    # count > |M2|^gamma is decided from bit lengths, not from count^(10^23).
    tiny_text = _system_text([[Fraction(c) for c in row] for row in ((1, 1, 0, 0), (0, 0, 1, -1))],
                             [Fraction(1), Fraction(0)])
    cases.append(("decompose-2x4-gamma-1over10e23",
                  ["decompose", "--input", "-", "--seed", "3", "--gamma", f"1/{10**23}"], tiny_text))
    argv, text = runs["random-6x36"]
    cases.append(("random-6x36-gamma-1over10e40", [*argv, "--gamma", f"1/{10**40}"], text))
    return cases


def _run(argv, text):
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        result = run_command(argv)
    finally:
        sys.stdin = stdin
    return {"exit_code": result.exit_code, "stdout": result.stdout}


CASES = pinned_cases()


@pytest.mark.parametrize("name, argv, text", CASES, ids=[c[0] for c in CASES])
def test_output_is_byte_identical_to_pinned(name, argv, text):
    expected = json.loads(DATA.read_text())[name]
    assert _run(argv, text) == expected


def test_pins_cover_witnesses_and_failures():
    expected = json.loads(DATA.read_text())
    refutes = [json.loads(expected[name]["stdout"]) for name, argv, _ in CASES
               if argv[0] == "refute" and "csv" not in argv and expected[name]["exit_code"] != 3]
    assert any(doc["status"] == "uncovered" and doc["detail"].get("small_norm") for doc in refutes)
    assert any(doc["status"] == "uncovered" and not doc["detail"].get("small_norm") for doc in refutes)
    sampled_failures = [doc for doc in refutes if doc.get("stage") == "n3-assignment"
                        and doc["detail"]["n3-assignment"]["search_mode"] == "sampled"]
    assert sampled_failures and all(doc["detail"]["n3-assignment"]["searched"] == 50 for doc in sampled_failures)
    sampled_witness = json.loads(expected["lr-14-minus-pair-sampled"]["stdout"])
    assert sampled_witness["status"] == "uncovered" and sampled_witness["detail"]["block_sizes"]["N3"] == 14
    checks = {name: json.loads(expected[name]["stdout"])["detail"]["small_norm"]
              for name in ("plank-8x48", "plank-mixed-6x30", "plank-mixed-shared-4x32")}
    assert all(check["ok"] for check in checks.values())
    assert checks["plank-8x48"]["ell"] == 8 and checks["plank-mixed-shared-4x32"]["alpha"] == 2
    assert "/" in checks["plank-mixed-6x30"]["beta"]
    dense = json.loads(expected["plank-dense-columns-4x24"]["stdout"])["detail"]
    assert dense["block_sizes"]["K1"] == 1 and dense["block_sizes"]["K3"] == 4 and 1 in dense["n3_assignment"].values()


def test_pins_cover_the_k2_and_k4_blocks():
    expected = json.loads(DATA.read_text())
    docs = [json.loads(expected[name]["stdout"]) for name, argv, _ in CASES
            if name.startswith("blocks-") and "csv" not in argv]
    accepted = [doc for doc in docs if not doc["detail"].get("n2_sampling", {"vacuous": True})["vacuous"]]
    assert accepted
    # An accepted draw with K4 rows is one on which every K4 row was excluded;
    # one such vertex is assembled and verified.
    assert any(doc["detail"]["block_sizes"]["K4"] and doc["status"] == "uncovered" for doc in accepted)
    failures = [doc["detail"]["n2-sampling"] for doc in docs if doc["stage"] == "n2-sampling"]
    assert any(f["rejections"]["k2"] and f["rejections"]["k4"] for f in failures)
    assert all(f["attempts"] == 40 for f in failures)


def test_recording_adds_missing_cases_and_refuses_to_rewrite(tmp_path):
    path = tmp_path / "pins.json"
    cases = [("a", ["x"], "1"), ("b", ["y"], "2")]
    run = lambda argv, text: {"stdout": argv[0] + text}
    path.write_text(json.dumps({"b": {"stdout": "y2"}, "gone": {"stdout": "kept"}}))
    record_missing(path, cases, run)
    assert list(json.loads(path.read_text()).items()) == [
        ("a", {"stdout": "x1"}), ("b", {"stdout": "y2"}), ("gone", {"stdout": "kept"})]
    stale = json.dumps({"a": {"stdout": "x0"}, "b": {"stdout": "y3"}})
    path.write_text(stale)
    with pytest.raises(SystemExit, match="a, b; nothing written"):
        record_missing(path, cases, run)
    assert path.read_text() == stale


if __name__ == "__main__":
    record_missing(DATA, CASES, _run)
