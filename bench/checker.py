"""Independent checks of CLI outputs; run outside the timed region.

Nothing here calls the program.  Systems are judged with the benchmark's
own integer evaluation (``workloads.satisfied_rows``); anti-concentration
values are compared with closed forms (all-ones and powers-of-two vectors)
or an integer recount of the subset sums.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Sequence

from workloads import Op, satisfied_rows

C0 = Fraction(4706, 1000)  # the paper's window constant, the CLI default
REFUTE_STAGES = {"decomposition-hypotheses", "n3-assignment", "n2-sampling",
                 "small-norm-precondition", "rounding-cap"}


class CheckError(AssertionError):
    """An output the checker rejects."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _bits(doc_value, n: int) -> list[int]:
    _require(isinstance(doc_value, list) and len(doc_value) == n and all(b in (0, 1) for b in doc_value),
             f"not a vertex of {{0,1}}^{n}: {doc_value!r}")
    return doc_value


def _check_verify(op: Op, code: int, doc: dict) -> None:
    ex = op.expect
    rows, mu, n = ex["int_rows"], ex["int_mu"], ex["n"]
    k = len(rows)
    _require(code == (0 if ex["essential"] else 1), f"exit code {code}")
    _require(doc["is_essential"] is ex["essential"], "wrong is_essential verdict")
    sizes = [sum(1 for c in row if c) for row in rows]
    unused = [j for j in range(n) if all(row[j] == 0 for row in rows)]
    _require(doc["support_sizes"] == sizes, "wrong support sizes")
    _require(doc["support_bound_ok"] is (max(sizes) <= 2 * k), "wrong support bound verdict")
    _require(doc["unused_columns"] == unused and doc["e2"] is (not unused), "wrong E2 verdict")
    if ex["essential"]:
        _require(doc["e1"] is True and doc["e1_witness"] is None, "an LR cover reported uncovered")
    else:
        # The generator certified an uncovered vertex, so E1 must fail.
        _require(doc["e1"] is False, "a certified non-cover reported covered")
        _require(not satisfied_rows(rows, mu, _bits(doc["e1_witness"], n)), "E1 witness is covered")
    witnesses = doc["e3_witnesses"]
    _require(len(witnesses) == k, "wrong number of E3 witnesses")
    for i, w in enumerate(witnesses):
        if w is not None:
            _require(satisfied_rows(rows, mu, _bits(w, n)) == [i], f"E3 witness of row {i} is not exclusive")
    _require(doc["e3"] is all(w is not None for w in witnesses), "E3 verdict disagrees with witnesses")


def _check_refute(op: Op, code: int, doc: dict) -> None:
    ex = op.expect
    if ex["cover"]:
        _require(code == 1 and doc["status"] == "failed" and doc["vertex"] is None,
                 "a true cover yielded a vertex")
        _require(doc["stage"] in REFUTE_STAGES, f"unknown stage {doc['stage']!r}")
        return
    _require(code == 0 and doc["status"] == "uncovered",
             f"certified non-cover not refuted (stage {doc.get('stage')!r})")
    bits = _bits(doc["vertex"], ex["n"])
    _require(not satisfied_rows(ex["int_rows"], ex["int_mu"], bits), "returned vertex is covered")


def subset_sum_counts(vec: Sequence[Fraction]) -> tuple[dict[int, int], int]:
    """Subset-sum multiset of vec scaled to integers: ({L * sum: count}, L)."""
    scale = math.lcm(*(c.denominator for c in vec))
    counts = {0: 1}
    for c in vec:
        step = int(c * scale)
        nxt = dict(counts)
        for s, m in counts.items():
            nxt[s + step] = nxt.get(s + step, 0) + m
        counts = nxt
    return counts, scale


def atom_probability(family: str, vec: Sequence[Fraction], a: Fraction) -> Fraction:
    d = len(vec)
    if family == "ones":
        return Fraction(math.comb(d, int(a)), 1 << d)
    if family == "pow2":
        return Fraction(1, 1 << d)  # every integer in [0, 2^d) is one subset sum
    counts, scale = subset_sum_counts(vec)
    scaled = a * scale
    hits = counts.get(int(scaled), 0) if scaled.denominator == 1 else 0
    return Fraction(hits, 1 << d)


def window_probability(vec: Sequence[Fraction]) -> Fraction:
    """P(1/C0 <= |<x,v> - sum(v)/2| / ||v|| <= C0), by integer recount.

    With sums scaled by L, Z = 2*L*s - L*sum(v) and Q = sum((L v_j)^2), the
    window reads Z^2 C0^2 >= 4Q and Z^2 <= 4 C0^2 Q.
    """
    counts, scale = subset_sum_counts(vec)
    total = sum(int(c * scale) for c in vec)
    q = sum(int(c * scale) ** 2 for c in vec)
    p, r = C0.numerator, C0.denominator
    hits = 0
    for s, m in counts.items():
        z2 = (2 * s - total) ** 2
        if z2 * p * p >= 4 * q * r * r and z2 * r * r <= 4 * p * p * q:
            hits += m
    return Fraction(hits, 1 << len(vec))


def _within_sampling_error(observed: Fraction, exact: Fraction, trials: int) -> bool:
    """A six-sigma band: fixed seeds never come near it, a wrong estimator does."""
    p = float(exact)
    return abs(float(observed) - p) <= 6.0 * math.sqrt(p * (1.0 - p) / trials) + 2.0 / trials


class Checker:
    """Checks outputs, caching each distinct (op, output) verdict."""

    def __init__(self) -> None:
        self._exact: dict[tuple, Fraction] = {}
        self._verdicts: dict[tuple, str | None] = {}

    def _exact_value(self, op: Op) -> Fraction:
        ex = op.expect
        key = (op.kind.split("-")[0], ex["family"], tuple(ex["vector"]), ex.get("a"))
        if key not in self._exact:
            if key[0] == "atom":
                self._exact[key] = atom_probability(ex["family"], ex["vector"], ex["a"])
            else:
                self._exact[key] = window_probability(ex["vector"])
        return self._exact[key]

    def _check_anticonc(self, op: Op, code: int, doc: dict) -> None:
        num, _, den = doc["probability"].partition("/")
        prob = Fraction(int(num), int(den or 1))
        exact = self._exact_value(op)
        if op.kind.endswith("sampled"):
            trials = int(op.argv[op.argv.index("--trials") + 1])
            _require((prob * trials).denominator == 1, "sampled probability is not hits/trials")
            _require(_within_sampling_error(prob, exact, trials), f"sampled {prob} far from exact {exact}")
        else:
            _require(prob == exact, f"probability {prob} != {exact}")
        if op.kind.startswith("window"):
            ok = prob * C0 >= 1
            _require(doc["ok"] is ok and code == (0 if ok else 1), "wrong window verdict or exit code")
        else:
            supp = sum(1 for c in op.expect["vector"] if c)
            _require(code == 0, f"exit code {code}")
            _require(math.isclose(doc["littlewood_offord_bound"], 1.0 / math.sqrt(supp)), "wrong 1/sqrt(supp) bound")

    def check(self, op: Op, code: int, stdout: str) -> str | None:
        """None when the output is right, else the reason it is rejected."""
        key = (op.argv, op.stdin, code, stdout)
        if key not in self._verdicts:
            self._verdicts[key] = self._judge(op, code, stdout)
        return self._verdicts[key]

    def _judge(self, op: Op, code: int, stdout: str) -> str | None:
        try:
            doc = json.loads(stdout)
            if op.kind.startswith("verify"):
                _check_verify(op, code, doc)
            elif op.kind.startswith("refute"):
                _check_refute(op, code, doc)
            else:
                self._check_anticonc(op, code, doc)
        except CheckError as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed output: {exc!r}"
        return None


def check_batch(checker: Checker, ops: Sequence[Op], results: Sequence) -> list[str | None]:
    """Per-op rejection reasons for one batch; results hold (code, stdout) or an error string.

    A rescaled LR cover must produce exactly the output of its unscaled
    twin: positive row scaling leaves every hyperplane unchanged.
    """
    reasons: list[str | None] = []
    for op, res in zip(ops, results):
        if isinstance(res, str):
            reasons.append(res)
            continue
        reason = checker.check(op, *res)
        twin = op.expect.get("twin")
        if reason is None and twin is not None and not isinstance(results[twin], str):
            if results[twin][1] != res[1]:
                reason = "rescaled cover's output differs from the unscaled one"
        reasons.append(reason)
    return reasons
