"""End-to-end refutation: assemble an uncovered vertex block by block, or
report exactly which stage failed.

The pipeline decomposes the system, fixes the N3 coordinates from a vertex
avoiding the K1 hyperplanes, rejection-samples the N2 coordinates until the
K2/K4 acceptance certificate holds, and runs the small-norm finder on the
K3 x N1 block.  Every stage reads ``CoveringSystem.cleared_rows`` and
clears no row again: the decomposition and the small-norm stage read them
cut to their rows and columns by ``CoveringSystem.block`` (as they are, with
no copy, when every column is kept, as on a plank system where nothing
moves).  The N3 subcube is a ``CoveringSystem.restrict``: the K1 rows kept
once, in sparse form, filtered to N3, which clears them over their own
support.  For the K2/K4
certificate and the K3 block each row is read once, through the evaluator
the N3 sampler uses (``core._evaluator``): a draw of the N2 sampler costs
one integer sum per row, and a target is D*mu_i less the row's value at
the N3 (or N3 u N2) point.  Every certificate is a per-instance exact sufficient condition;
the assembled vertex is additionally re-verified against every row, in
exact arithmetic (``cube.rows_through``, which reads the sparse rational
rows, not the cleared ones), of the original unrescaled system before being
returned.  A returned vertex is never unverified.  No stage reads the dense
view ``CoveringSystem.rows``.  When N1 is every column (a plank system,
where the decomposition moves nothing) no column is set before the
small-norm stage, each K3 target is D*mu_i as it is, and the vertex is the
finder's witness itself, built into no per-column table; it is re-verified
all the same.

Stage seeds are derived deterministically from the one ``seed`` (seed,
seed+1, seed+2 for the N3 search, the N2 sampler and the rounding stage).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from typing import Mapping

from .core import ENUMERATION_CAP, CoveringSystem, Vertex, _evaluator
from .cube import enumerate_uncovered, rows_through, sample_uncovered
from .decompose import Decomposition2, second_decomposition
from .plank import (
    SampleCapError,
    check_small_norm_precondition,
    find_uncovered_small_norm,
)

STAGES = (
    "decomposition-hypotheses",
    "n3-assignment",
    "n2-sampling",
    "small-norm-precondition",
    "rounding-cap",
)


class StageFailure(Exception):
    """A pipeline stage could not produce its certificate."""

    def __init__(self, stage: str, detail: dict):
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
        super().__init__(f"stage {stage} failed")
        self.stage = stage
        self.detail = detail


@dataclass(frozen=True)
class RefutationOutcome:
    """Either an exactly verified uncovered vertex, or the first failed stage."""

    status: str  # "uncovered" | "failed"
    vertex: Vertex | None
    stage: str | None
    detail: dict


def derived_scale_count(n: int, C5: Fraction | int = 32) -> int:
    """Default S = max(1, floor(C5 * ln n))."""
    return max(1, int(float(C5) * math.log(n))) if n > 1 else 1


def _budget(n: int, k: int, c_num: int, c_den: int) -> Fraction:
    """(c_num / c_den) * ln(n) * k^2 / n, with ln(n) the float ln(n) (1.0
    when n <= 1) read exactly: one Fraction, built from integers."""
    p, q = math.log(n).as_integer_ratio() if n > 1 else (1, 1)
    return Fraction(c_num * p * k * k, c_den * q * n)


def column_budget_floor(n: int, k: int) -> Fraction:
    """ln(n) * k^2 / n (k^2 when n = 1), frozen as an exact rational."""
    return _budget(n, k, 1, 1)


def derived_column_budget(n: int, k: int, multiplier: Fraction | int = 1) -> Fraction:
    """Default W = multiplier * ln(n) * k^2 / n, frozen as an exact rational:
    positive for a positive multiplier, as ``second_decomposition`` needs."""
    return _budget(n, k, *multiplier.as_integer_ratio())


def choose_n3_assignment(
    system: CoveringSystem,
    d: Decomposition2,
    cap: int = ENUMERATION_CAP,
    trials: int = 1000,
    seed: int = 0,
) -> dict[int, int]:
    """Fix the N3 coordinates: a vertex avoiding every K1 hyperplane, restricted to N3.

    K1 rows are supported inside N3, so the search runs over the N3 subcube
    only, exhaustively up to ``cap`` columns and else by ``trials`` draws
    from ``seed``.  Empty N3 gives the empty assignment; empty K1 gives all
    zeros.  Raises StageFailure when no avoiding assignment is found.
    """
    if not d.N3:
        return {}
    if not d.K1:
        return {j: 0 for j in d.N3}
    cols = list(d.N3)
    sub = system.restrict(d.K1, cols)
    if sub.n <= cap:
        report = enumerate_uncovered(sub, cap)
    else:
        report = sample_uncovered(sub, trials=trials, seed=seed)
    if report.witness is None:
        raise StageFailure(
            "n3-assignment",
            {
                "k1_rows": list(d.K1),
                "n3_size": len(cols),
                "search_mode": report.mode,
                "searched": report.samples if report.mode == "sampled" else report.total_vertices,
                "note": "no vertex avoids all K1 hyperplanes",
            },
        )
    return {j: bit for j, bit in zip(cols, report.witness.bits)}


def sample_n2_assignment(
    system: CoveringSystem,
    d: Decomposition2,
    n3_assignment: Mapping[int, int],
    trials: int = 1000,
    seed: int = 0,
) -> tuple[dict[int, int], dict]:
    """Rejection-sample w on {0,1}^N2 (at most ``trials`` draws, from seed + 1)
    until the K2/K4 acceptance certificate holds.

    Acceptance: every K2 row (zero on N1) misses its residual target exactly,
    and no N1 completion can satisfy any K4 row.  For the latter, with B the
    smallest-scale columns outside N1, the inner product of any 0/1 vector
    with v restricted to N1 u B is at most sqrt(n) times that block's norm
    (Cauchy-Schwarz), so (<v|_{N2-B}, w> - mu')^2 > n * ||v|_{N1 u B}||^2
    rules every completion out.

    Each draw writes the N2 columns of one point that holds the N3
    assignment, its N1 columns 0.  Each row is read from
    ``system.cleared_rows`` once, through ``core._evaluator``: a K2 row whole,
    and a draw rejects on it when the point lies on it; a K4 row on N2 - B,
    with its target D*mu_i less its value at the N3 point and the bound
    n * sum b_j^2 over N1 u B, and a draw rejects on it when
    (value - target)^2 <= bound; the D^2 cancels from both sides.  Empty N2 or empty K2 u K4 accepts the
    empty assignment vacuously.  Raises StageFailure with the empirical
    rejection rate when the cap is exhausted.
    """
    if not d.N2 or not (d.K2 or d.K4):
        return ({j: 0 for j in d.N2}, {"attempts": 0, "vacuous": True})
    cleared = system.cleared_rows
    point = [0] * system.n
    for j in d.N3:
        point[j] = n3_assignment[j]
    k2_tests = [_evaluator(cleared[i]) for i in d.K2]
    n1 = set(d.N1)
    k4_tests = []
    for i in d.K4:
        row = cleared[i]
        pick, ints, rhs = _evaluator(row)
        target = rhs - sum(compress(ints, pick(point)))
        # The smallest scale: B and the N1 columns it holds, none of them in N2.
        last = set(d.scale_partitions[i].parts[-1])
        pick, ints, _ = _evaluator(row.restricted({j: j for j in d.N2 if j not in last}))
        bound = system.n * sum(b * b for j, b in zip(row.support, row.ints) if j in n1 or j in last)
        k4_tests.append((pick, ints, target, bound))
    rng = random.Random(seed + 1)
    rejections = {"k2": 0, "k4": 0}
    for attempt in range(1, trials + 1):
        for j in d.N2:
            point[j] = rng.getrandbits(1)
        if any(sum(compress(ints, pick(point))) == rhs for pick, ints, rhs in k2_tests):
            rejections["k2"] += 1
        elif any((sum(compress(ints, pick(point))) - target) ** 2 <= bound for pick, ints, target, bound in k4_tests):
            rejections["k4"] += 1
        else:
            return ({j: point[j] for j in d.N2}, {"attempts": attempt, "vacuous": False})
    raise StageFailure(
        "n2-sampling",
        {
            "attempts": trials,
            "rejections": rejections,
            "rejection_rate": (rejections["k2"] + rejections["k4"]) / trials,
            "k2_rows": list(d.K2),
            "k4_rows": list(d.K4),
        },
    )


def attempt_refutation(system: CoveringSystem, S: int | None = None, W: Fraction | int | None = None,
                       gamma: Fraction = Fraction(1, 3), cap: int = ENUMERATION_CAP, trials: int = 1000,
                       seed: int = 0, strict: bool = False) -> RefutationOutcome:
    """Run the full pipeline; never returns an unverified vertex.

    S and W left at None are derived at the default C5 and multiplier;
    ``strict`` stops at failed decomposition hypotheses.  All failures are
    structured outcomes naming the first failed stage with quantitative
    margins, never exceptions.
    """
    n, k = system.n, system.k
    S = derived_scale_count(n) if S is None else S
    W = derived_column_budget(n, k) if W is None else Fraction(W)
    d = second_decomposition(system, S, W, gamma)
    detail: dict = {
        "S": S,
        "W": W,
        "W_float": float(W),
        "hypotheses": {
            "product_ok": d.hyp_product_ok,
            "product_lhs": float(d.hyp_product_lhs),
            "product_rhs": float(d.hyp_product_rhs),
            "rowcount_ok": d.hyp_rowcount_ok,
            "support_ok": d.hyp_support_ok,
        },
        "block_sizes": {
            "K1": len(d.K1),
            "K2": len(d.K2),
            "K3": len(d.K3),
            "K4": len(d.K4),
            "N1": len(d.N1),
            "N2": len(d.N2),
            "N3": len(d.N3),
        },
    }
    if strict and not d.hypotheses_ok:
        detail["note"] = "decomposition hypotheses do not hold and strict mode is on"
        return RefutationOutcome(status="failed", vertex=None, stage="decomposition-hypotheses", detail=detail)

    try:
        u3 = choose_n3_assignment(system, d, cap, trials, seed)
        detail["n3_assignment"] = {str(j): b for j, b in sorted(u3.items())}
        w2, n2_detail = sample_n2_assignment(system, d, u3, trials, seed)
        detail["n2_sampling"] = n2_detail
    except StageFailure as failure:
        detail[failure.stage] = failure.detail
        return RefutationOutcome(status="failed", vertex=None, stage=failure.stage, detail=detail)

    witness = Vertex((0,) * len(d.N1))  # the N1 bits
    if len(d.N1) < n:  # the N3 and N2 bits; the N1 bits are written in last
        point = [0] * n
        for j, bit in chain(u3.items(), w2.items()):
            point[j] = bit
    if d.K3:
        # Row i on N1 and, over the same D, mu_i less the row's value at the
        # point.  When N1 is every column no column is set, and each target
        # is mu_i as it is.
        block = system.block(d.K3, d.N1)
        if len(d.N1) == n:
            targets = [Fraction(row.rhs, row.D) for row in block.rows]
        else:
            rows = [system.cleared_rows[i] for i in d.K3]
            targets = [Fraction(rhs - sum(compress(ints, pick(point))), row.D)
                       for row, (pick, ints, rhs) in zip(rows, map(_evaluator, rows))]
        precheck = check_small_norm_precondition(block)
        detail["small_norm"] = precheck
        if not precheck.ok:
            return RefutationOutcome(
                status="failed", vertex=None, stage="small-norm-precondition", detail=detail
            )
        try:
            witness, attempts = find_uncovered_small_norm(
                block, targets, trials, seed + 2, check=precheck
            )
        except SampleCapError as exc:
            detail["rounding"] = {"attempts": exc.attempts}
            return RefutationOutcome(status="failed", vertex=None, stage="rounding-cap", detail=detail)
        detail["rounding"] = {"attempts": attempts}

    if len(d.N1) == n:  # N1 is every column, in order: the N1 bits are the vertex
        u = witness
    else:
        for j, bit in zip(d.N1, witness.bits):
            point[j] = bit
        u = Vertex(tuple(point))
    violating = rows_through(system, [u])[0]
    if violating:
        # The per-block certificates make this unreachable; report honestly
        # rather than return an unverified vertex.
        detail["verification_failure_rows"] = violating
        block_of = {i: "n3-assignment" for i in d.K1}
        block_of.update({i: "n2-sampling" for i in list(d.K2) + list(d.K4)})
        block_of.update({i: "rounding-cap" for i in d.K3})
        return RefutationOutcome(
            status="failed",
            vertex=None,
            stage=block_of.get(violating[0], "rounding-cap"),
            detail=detail,
        )
    detail["verified_rows"] = k
    return RefutationOutcome(status="uncovered", vertex=u, stage=None, detail=detail)
