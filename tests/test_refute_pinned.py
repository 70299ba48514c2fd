"""Byte-for-byte pins of `cubecover refute` and `cubecover decompose` output.

The expected outputs in data/refute_pinned.json were recorded from the
all-Fraction implementation, before rows were cleared to integers and the
first decomposition was made incremental.  Any change to the arithmetic of
the refute path that alters a single byte of output fails here.

    python tests/test_refute_pinned.py    # rewrite the data file from the current code
"""

import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cubecover import lr_cover
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


def _plank_system(rng, k, s):
    n = k * s
    layout = list(range(n))
    rng.shuffle(layout)
    rows, mu = [], []
    for i in range(k):
        row = [Fraction(0)] * n
        entries = [rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))) for _ in range(s)]
        for j, c in zip(layout[i * s:(i + 1) * s], entries):
            row[j] = c
        rows.append(row)
        mu.append(sum(entries) / 2)
    return rows, mu


def pinned_cases() -> list[tuple[str, list[str], str]]:
    """(name, argv, stdin) for seeded random, plank and LR systems."""
    rng = random.Random(20220901)
    cases = []
    for k, n in ((6, 36), (8, 40), (12, 60)):
        text = _system_text(*_random_system(rng, k, n))
        cases.append((f"random-{k}x{n}", ["refute", "--input", "-", "--seed", "3", "--cap", "16"], text))
        cases.append((f"random-{k}x{n}-decompose", ["decompose", "--input", "-", "--seed", "3"], text))
    for k, s in ((4, 16), (4, 32), (6, 24)):
        text = _system_text(*_plank_system(rng, k, s))
        cases.append((f"plank-{k}x{s}", ["refute", "--input", "-", "--seed", "5", "--w", "1/1000000"], text))
    for n, extra in ((8, []), (12, []), (16, ["--cap", "4", "--trials", "50"])):
        lr = lr_cover(n)
        text = _system_text(lr.rows, lr.mu)
        cases.append((f"lr-{n}", ["refute", "--input", "-", "--seed", "7", *extra], text))
    # The dense-column filter absorbs every row: the full squared norms are reported.
    rows = [[Fraction(0)] * 64 for _ in range(2)]
    rows[0][0], rows[0][1], rows[1][2], rows[1][3] = Fraction(1, 2), Fraction(3), Fraction(1), Fraction(-2, 3)
    cases.append(("dense-filter-decompose", ["decompose", "--input", "-", "--seed", "1", "--w", "1"],
                  _system_text(rows, [Fraction(1), Fraction(1)])))
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
    refutes = [json.loads(expected[name]["stdout"]) for name, argv, _ in CASES if argv[0] == "refute"]
    assert any(doc["status"] == "uncovered" and doc["detail"].get("small_norm") for doc in refutes)
    assert any(doc["status"] == "uncovered" and not doc["detail"].get("small_norm") for doc in refutes)
    sampled_failures = [doc for doc in refutes if doc.get("stage") == "n3-assignment"
                        and doc["detail"]["n3-assignment"]["search_mode"] == "sampled"]
    assert sampled_failures and all(doc["detail"]["n3-assignment"]["searched"] == 50 for doc in sampled_failures)


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({name: _run(argv, text) for name, argv, text in CASES}, indent=1) + "\n")
