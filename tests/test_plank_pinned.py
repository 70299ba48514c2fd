"""Byte-for-byte pins of `cubecover find-uncovered`, `bounds` and `bang` output.

The expected outputs in data/plank_pinned.json were recorded from the code in
which the plank precondition and the finder each cleared their rows on their
own, and in which `bounds` computed its hypothesis formulas itself; the
`bang` and the later CSV cases from the code in which each report class wrote
its own JSON dict.  Any
change that alters a single byte of output (exit code, stdout or stderr)
fails here.

    python tests/test_plank_pinned.py    # record the cases the data file lacks

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
from cubecover.cli import run_command

DATA = Path(__file__).parent / "data" / "plank_pinned.json"

PLANK_ENTRIES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
MIXED_ENTRIES = (Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7))


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _block(rng, ell, s, entries, shared=0):
    """ell rows of support s, consecutive rows sharing ``shared`` columns;
    targets are half the row sums."""
    step = s - shared
    m = ell * step + shared
    layout = list(range(m))
    rng.shuffle(layout)
    rows, targets = [], []
    for i in range(ell):
        row = [Fraction(0)] * m
        values = [rng.choice(entries) for _ in range(s)]
        for j, c in zip(layout[i * step:i * step + s], values):
            row[j] = c
        rows.append(row)
        targets.append(sum(values) / 2)
    return rows, targets


def _doc(rows, targets) -> str:
    return json.dumps({"rows": [[_fmt(c) for c in r] for r in rows], "targets": [_fmt(t) for t in targets]})


def pinned_cases() -> list[tuple[str, list[str], str]]:
    """(name, argv, stdin) for find-uncovered blocks, bounds inequalities and
    bang sign vectors."""
    rng = random.Random(20261019)
    cases = []
    blocks = {
        "disjoint-4x16": _block(rng, 4, 16, PLANK_ENTRIES),
        "disjoint-8x32": _block(rng, 8, 32, PLANK_ENTRIES),
        "shared-4x32": _block(rng, 4, 32, PLANK_ENTRIES, shared=8),
        "mixed-6x30": _block(rng, 6, 30, MIXED_ENTRIES),
        "mixed-shared-4x32": _block(rng, 4, 32, MIXED_ENTRIES, shared=8),
    }
    # Targets that no vertex can hit: a denominator that divides no row's,
    # and an integer beyond every subset sum.
    rows, targets = _block(rng, 4, 24, MIXED_ENTRIES)
    blocks["mixed-unreachable-4x24"] = (rows, [Fraction(1, 11), Fraction(-5, 11), Fraction(100), targets[3]])
    for name, (rows, targets) in blocks.items():
        text = _doc(rows, targets)
        for seed in ("0", "5"):
            cases.append((f"find-{name}-seed{seed}", ["find-uncovered", "--input", "-", "--seed", seed], text))
    rows, targets = blocks["mixed-6x30"]
    cases.append(("find-mixed-6x30-csv", ["find-uncovered", "--input", "-", "--seed", "1", "--format", "csv"],
                  _doc(rows, targets)))
    cases.append(("find-mixed-6x30-one-trial", ["find-uncovered", "--input", "-", "--seed", "2", "--trials", "1"],
                  _doc(rows, targets)))
    # One row of six entries: the single rounding draw of seed 4 lands on it.
    row = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), Fraction(3, 4), Fraction(1, 2)]
    cases.append(("find-rounding-cap", ["find-uncovered", "--input", "-", "--seed", "4", "--trials", "1"],
                  _doc([row], [Fraction(3, 2)])))
    # Column norms too large: three rows on the same four columns.
    rows = [[MIXED_ENTRIES[(i + j) % 3] for j in range(4)] for i in range(3)]
    cases.append(("find-precondition-fails", ["find-uncovered", "--input", "-", "--seed", "0"],
                  _doc(rows, [Fraction(1, 2)] * 3)))
    for n, k, s, w in ((1, 1, 1, "1"), (100, 3, 2, "1"), (1000, 10, 5, "2"), (4000, 6, 3, "1/100"),
                       (10**6, 20, 7, "3/7"), (64, 8, 4, "1/1000000")):
        argv = ["bounds", "--n", str(n), "--k", str(k), "--s", str(s), "--w", w, "--seed", "0"]
        cases.append((f"bounds-{n}-{k}-{s}-{w}", argv, ""))
    cases.append(("bounds-1000-10-5-2-csv", ["bounds", "--n", "1000", "--k", "10", "--s", "5", "--w", "2",
                                              "--seed", "0", "--format", "csv"], ""))
    # The error and the failed check of a precondition failure, in CSV.
    cases.append(("find-precondition-fails-csv", ["find-uncovered", "--input", "-", "--seed", "0", "--format", "csv"],
                  _doc(rows, [Fraction(1, 2)] * 3)))
    bang = json.dumps({"m": [[2, 0.5, -0.25], [0.5, 1, 0.75], [-0.25, 0.75, 3]], "zeta": [0.5, -1, 0.25],
                       "theta": [1, 0.5, 0.125]})
    for seed in ("0", "3"):
        cases.append((f"bang-3x3-seed{seed}", ["bang", "--input", "-", "--seed", seed], bang))
    cases.append(("bang-3x3-csv", ["bang", "--input", "-", "--seed", "3", "--format", "csv"], bang))
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


def test_pins_cover_vertices_and_failures():
    expected = json.loads(DATA.read_text())
    codes = {name: expected[name]["exit_code"] for name, _, _ in CASES}
    finds = [json.loads(expected[name]["stdout"]) for name, argv, _ in CASES
             if argv[0] == "find-uncovered" and codes[name] == 0 and "csv" not in name]
    assert len(finds) >= 10 and all(doc["check"]["ok"] for doc in finds)
    assert any(doc["check"]["alpha"] == 2 for doc in finds)
    assert any("/" in doc["check"]["beta"] for doc in finds)
    assert codes["find-precondition-fails"] == 2 and codes["find-rounding-cap"] == 1
    bounds = [json.loads(expected[name]["stdout"]) for name, argv, _ in CASES
              if argv[0] == "bounds" and "csv" not in name]
    oks = {ineq["ok"] for doc in bounds for ineq in doc["inequalities"]}
    assert oks == {True, False}


if __name__ == "__main__":
    record_missing(DATA, CASES, _run)
