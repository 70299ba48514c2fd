import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction
from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from cubecover import (
    CoveringSystem,
    Decomposition2,
    ScalePartition,
    StageFailure,
    attempt_refutation,
    choose_n3_assignment,
    format_rational,
    lr_cover,
    sample_n2_assignment,
    sample_uncovered,
    second_decomposition,
)
import cubecover.refute as refute_module
from cubecover.core import TAU, wire
from cubecover.cube import rows_through
from cubecover.plank import find_uncovered_small_norm
from cubecover.refute import column_budget_floor, derived_column_budget
from _oracle import apply_rescaling, rows_on


def empty_decomposition(system, **overrides) -> Decomposition2:
    base = dict(
        K1=(),
        K2=(),
        K3=(),
        K4=(),
        N1=(),
        N2=(),
        N3=(),
        row_norm_sq=tuple(Fraction(1) for _ in range(system.k)),
        scale_partitions={},
        S=1,
        W=Fraction(1),
        gamma=Fraction(1, 3),
        hyp_product_ok=False,
        hyp_product_lhs=Fraction(0),
        hyp_product_rhs=Fraction(1),
        hyp_rowcount_ok=True,
        hyp_support_ok=True,
        trace=(),
    )
    base.update(overrides)
    return Decomposition2(**base)


def disjoint_rows_system(n_rows=4, supp=16):
    rows, mu = [], []
    m = n_rows * supp
    for i in range(n_rows):
        row = [Fraction(0)] * m
        for j in range(supp * i, supp * i + supp):
            row[j] = Fraction(1, 4)
        rows.append(row)
        mu.append(Fraction(2))
    return CoveringSystem.from_rows(rows, mu)


@pytest.mark.parametrize("flag", ("hyp_product_ok", "hyp_rowcount_ok", "hyp_support_ok"))
def test_hypotheses_ok_follows_the_three_flags(flag):
    held = dict(hyp_product_ok=True, hyp_rowcount_ok=True, hyp_support_ok=True)
    assert empty_decomposition(lr_cover(4), **held).hypotheses_ok is True
    d = empty_decomposition(lr_cover(4), **dict(held, **{flag: False}))
    assert d.hypotheses_ok is False and dataclasses.replace(d, **{flag: True}).hypotheses_ok is True
    assert list(wire(d))[-2:] == ["hypotheses_ok", "trace"]  # a field, written just before the trace


# ------------------------------------------------------------------ choose_n3


def test_choose_n3_empty_n3():
    sys_ = lr_cover(4)
    d = second_decomposition(sys_, S=1, W=Fraction(1, 10000))
    assert d.N3 == ()
    assert choose_n3_assignment(sys_, d) == {}


def test_choose_n3_defaults_to_zeros_without_k1():
    sys_ = CoveringSystem.from_rows([[1, 1, 1]], [1])
    d = empty_decomposition(sys_, N3=(1, 2), N1=(0,))
    assert choose_n3_assignment(sys_, d) == {1: 0, 2: 0}


def test_choose_n3_avoids_k1_hyperplane():
    sys_ = CoveringSystem.from_rows([[1] + [0] * 7], [0])
    d = second_decomposition(
        sys_, S=1, W=Fraction(26, 100)
    )  # absorbs the row: K1 = {0}, N3 = {0}
    assert d.K1 == (0,) and d.N3 == (0,)
    assignment = choose_n3_assignment(sys_, d)
    assert assignment == {0: 1}


def test_choose_n3_fails_when_k1_covers_its_subcube():
    # Two hyperplanes x1=0 and x1=1 cover every choice of the N3 coordinate.
    sys_ = CoveringSystem.from_rows([[1, 0], [1, 0], [0, 1]], [0, 1, 0])
    d = empty_decomposition(sys_, K1=(0, 1), K3=(2,), N3=(0,), N1=(1,))
    with pytest.raises(StageFailure) as info:
        choose_n3_assignment(sys_, d)
    assert info.value.stage == "n3-assignment"


# ------------------------------------------------------------------ sample_n2


def test_sample_n2_vacuous_cases():
    sys_ = lr_cover(4)
    d = second_decomposition(sys_, S=1, W=Fraction(1, 10000))
    w, detail = sample_n2_assignment(sys_, d, {})
    assert w == {} and detail["vacuous"]


def test_sample_n2_unreachable_k2_target():
    sys_ = CoveringSystem.from_rows([[1, 1]], [3])
    d = empty_decomposition(sys_, K2=(0,), N2=(0, 1))
    w, detail = sample_n2_assignment(sys_, d, {})
    assert detail["attempts"] == 1  # 3 is unreachable, first sample accepted
    assert set(w) == {0, 1}


def test_sample_n2_cap_exhaustion_reports_stage():
    # Row zero on N1 whose N2 target is hit by every w: x1 - x1 = 0 style is
    # impossible, so use a 1-entry row with target matching both w values...
    # instead force rejection with v|N2 = (0-entry impossible): use target
    # reachable by all four w's: v = (1, -1), target 0 misses w=(0,1),(1,0).
    # To exhaust the cap we need a row covering every w: v|N2 = (0,0) is
    # illegal, so craft two K2 rows that jointly cover all w choices.
    sys_ = CoveringSystem.from_rows([[1, -1], [1, 1]], [0, 1])
    d = empty_decomposition(sys_, K2=(0, 1), N2=(0, 1))
    with pytest.raises(StageFailure) as info:
        sample_n2_assignment(sys_, d, {}, trials=64)
    assert info.value.stage == "n2-sampling"
    assert info.value.detail["attempts"] == 64


# The N2 sampler and the K4 test as they were before they ran on the cleared
# rows, verbatim (all Fraction arithmetic): the oracle for the sampler.


def oracle_k4_row_excluded(
    system: CoveringSystem,
    d: Decomposition2,
    i: int,
    residual_mu: Fraction,
    w_bits: Mapping[int, int],
) -> bool:
    """Exact sufficient condition that no N1 completion can satisfy row i.

    With B the smallest-scale columns outside N1, the inner product of any
    0/1 vector with v restricted to N1 u B is at most sqrt(n) times that
    block's norm (Cauchy-Schwarz), so
    (<v|_{N2-B}, w> - mu')^2 > n * ||v|_{N1 u B}||^2 rules every completion
    out.  The unit normalizer of the row cancels from both sides, so the test
    runs on the original rational row.
    """
    part = d.scale_partitions[i]
    row = system.rows[i]
    n1 = set(d.N1)
    b_cols = [j for j in part.parts[-1] if j not in n1]
    b_set = set(b_cols)
    lhs_inner = sum(
        (row[j] * w_bits[j] for j in d.N2 if j not in b_set), Fraction(0)
    ) - residual_mu
    rhs = system.n * (
        sum((row[j] * row[j] for j in d.N1), Fraction(0))
        + sum((row[j] * row[j] for j in b_cols), Fraction(0))
    )
    return lhs_inner * lhs_inner > rhs


def oracle_sample_n2_assignment(
    system: CoveringSystem,
    d: Decomposition2,
    n3_assignment: Mapping[int, int],
    trials: int = 1000,
    seed: int = 0,
) -> tuple[dict[int, int], dict]:
    relevant = list(d.K2) + list(d.K4)
    if not d.N2 or not relevant:
        return ({j: 0 for j in d.N2}, {"attempts": 0, "vacuous": True})
    residual = {
        i: system.mu[i]
        - sum((system.rows[i][j] * n3_assignment[j] for j in d.N3), Fraction(0))
        for i in relevant
    }
    rng = random.Random(seed + 1)
    rejections = {"k2": 0, "k4": 0}
    for attempt in range(1, trials + 1):
        w = {j: rng.getrandbits(1) for j in d.N2}
        ok = True
        for i in d.K2:
            dot = sum((system.rows[i][j] * w[j] for j in d.N2), Fraction(0))
            if dot == residual[i]:
                ok = False
                rejections["k2"] += 1
                break
        if ok:
            for i in d.K4:
                if not oracle_k4_row_excluded(system, d, i, residual[i], w):
                    ok = False
                    rejections["k4"] += 1
                    break
        if ok:
            return (w, {"attempts": attempt, "vacuous": False})
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


def _outcome(sample, system, d, n3_assignment, trials, seed):
    try:
        return sample(system, d, n3_assignment, trials, seed)
    except StageFailure as failure:
        return failure.stage, failure.detail


def random_block(rng):
    """A random system with its columns split into N1, N2, N3 and its rows into
    K2 and K4 (and some rows in neither), each K4 row with a scale partition
    whose last part holds most of its N1 columns; entries over 1, 3, 5 or 7 with zeros,
    N2 entries scaled up so that the K4 test can pass, mu a subset sum of the
    row, and an N3 assignment with set columns."""
    k, n = rng.randint(1, 6), rng.randint(2, 14)
    cols = list(range(n))
    rng.shuffle(cols)
    a, b = sorted(rng.sample(range(n + 1), 2))
    n1, n2, n3 = tuple(sorted(cols[:a])), tuple(sorted(cols[a:b])), tuple(sorted(cols[b:]))
    scale = {j: rng.choice((1, 10, 100)) for j in n2}
    rows, mu = [], []
    while len(rows) < k:
        row = [Fraction(rng.randint(-3, 3) * scale.get(j, 1), rng.choice((1, 3, 5, 7))) if rng.random() < 0.7
               else Fraction(0) for j in range(n)]
        if any(row):
            rows.append(row)
            mu.append(sum(c for c in row if rng.random() < 0.5) + rng.choice((0, 0, Fraction(1, 2))))
    system = CoveringSystem.from_rows(rows, mu)
    blocks = [rng.choice(("K2", "K4", "K4", "other")) for _ in range(k)]
    partitions = {}
    for i, block in enumerate(blocks):
        if block == "K4":
            rest = [j for j in n2 + n3 if rng.random() < 0.7]
            cut = rng.randint(0, len(rest))
            # Mostly the decomposition's shape, N1 inside the last part; not always.
            last = [j for j in n1 if rng.random() < 0.9] + rest[cut:]
            parts = [rest[:cut], last] if cut else [last]
            partitions[i] = ScalePartition.build(rows[i], parts)
    d = empty_decomposition(
        system,
        K2=tuple(i for i in range(k) if blocks[i] == "K2"),
        K3=tuple(i for i in range(k) if blocks[i] == "other"),
        K4=tuple(i for i in range(k) if blocks[i] == "K4"),
        N1=n1, N2=n2, N3=n3,
        scale_partitions=partitions,
    )
    n3_assignment = {j: rng.getrandbits(1) for j in n3}
    return system, d, n3_assignment


def test_sampler_matches_the_fraction_oracle_on_random_blocks():
    rng = random.Random(77)
    seen = {"accepted-after-rejections": 0, "accepted-with-k4": 0, "failed-k2-and-k4": 0, "vacuous": 0,
            "set-n3-column": 0}
    for _ in range(300):
        system, d, n3_assignment = random_block(rng)
        trials, seed = rng.choice((1, 4, 30)), rng.randrange(1000)
        expected = _outcome(oracle_sample_n2_assignment, system, d, n3_assignment, trials, seed)
        assert _outcome(sample_n2_assignment, system, d, n3_assignment, trials, seed) == expected
        if expected[0] == "n2-sampling":
            seen["failed-k2-and-k4"] += bool(expected[1]["rejections"]["k2"] and expected[1]["rejections"]["k4"])
        elif expected[1]["vacuous"]:
            seen["vacuous"] += 1
        else:
            seen["accepted-after-rejections"] += expected[1]["attempts"] > 1
            seen["accepted-with-k4"] += bool(d.K4)
        seen["set-n3-column"] += any(n3_assignment.values())
    assert all(seen.values()), seen


def test_k4_predicate_implies_no_completion():
    # Hand-built two-scale row: heavy part on N2, light part spanning N1 and
    # the tail of N2.  Whenever the acceptance predicate holds for w, brute
    # force over all completions x in {0,1}^N1 finds none; so too for every w
    # the sampler accepts.
    row = [Fraction(1, 4), Fraction(1, 4), Fraction(100), Fraction(100), Fraction(1, 2), Fraction(1, 2)]
    part = ScalePartition.build(row, [[2, 3], [0, 1, 4, 5]])

    def assert_no_completion(w, mu_val):
        for xbits in itertools.product((0, 1), repeat=2):
            total = (
                sum(row[j] * w[j] for j in (2, 3, 4, 5))
                + row[0] * xbits[0]
                + row[1] * xbits[1]
            )
            assert total != mu_val

    sampled = 0
    for mu_val in (Fraction(0), Fraction(1), Fraction(100), Fraction(999, 10), Fraction(201, 2)):
        sys_ = CoveringSystem.from_rows([row], [mu_val])
        d = empty_decomposition(
            sys_,
            K4=(0,),
            N1=(0, 1),
            N2=(2, 3, 4, 5),
            scale_partitions={0: part},
        )
        accepted_any = False
        for bits in itertools.product((0, 1), repeat=4):
            w = dict(zip((2, 3, 4, 5), bits))
            if not oracle_k4_row_excluded(sys_, d, 0, mu_val, w):
                continue
            accepted_any = True
            assert_no_completion(w, mu_val)
        assert accepted_any  # the predicate is satisfiable for these targets
        for seed in range(8):
            try:
                w, _ = sample_n2_assignment(sys_, d, {}, trials=64, seed=seed)
            except StageFailure:
                continue
            assert_no_completion(w, mu_val)
            sampled += 1
    assert sampled >= 20


def test_sample_n2_accepts_k4_certificate():
    row = [Fraction(1, 4), Fraction(1, 4), Fraction(100), Fraction(100), Fraction(1, 2), Fraction(1, 2)]
    part = ScalePartition.build(row, [[2, 3], [0, 1, 4, 5]])
    sys_ = CoveringSystem.from_rows([row], [Fraction(7)])
    d = empty_decomposition(
        sys_, K4=(0,), N1=(0, 1), N2=(2, 3, 4, 5), scale_partitions={0: part}
    )
    w, detail = sample_n2_assignment(sys_, d, {})
    assert oracle_k4_row_excluded(sys_, d, 0, Fraction(7), w)
    assert detail["attempts"] >= 1


# ----------------------------------------------------------- attempt_refutation


def test_refute_single_hyperplane():
    sys_ = CoveringSystem.from_rows([[1] + [0] * 7], [0])
    out = attempt_refutation(sys_)
    assert out.status == "uncovered"
    assert out.vertex.bits[0] == 1
    assert not rows_on(sys_, out.vertex)


def test_refute_true_cover_fails_soundly():
    for n in (8, 12):
        out = attempt_refutation(lr_cover(n))
        assert out.status == "failed"
        assert out.vertex is None
        assert out.stage in (
            "decomposition-hypotheses",
            "n3-assignment",
            "n2-sampling",
            "small-norm-precondition",
            "rounding-cap",
        )


def test_refute_true_cover_many_seeds():
    for seed in range(5):
        out = attempt_refutation(lr_cover(8), seed=seed)
        assert out.status == "failed"
        assert out.vertex is None


def test_refute_disjoint_small_norm_instance():
    sys_ = disjoint_rows_system()
    out = attempt_refutation(sys_, seed=3)
    assert out.status == "uncovered"
    assert not rows_on(sys_, out.vertex)
    assert out.detail["block_sizes"]["N3"] + out.detail["block_sizes"]["N1"] + out.detail[
        "block_sizes"
    ]["N2"] == sys_.n


def _plank_with_heavy_columns():
    """disjoint_rows_system with each row's first entry raised to 1: at
    W = 10 tau those four columns are heavy and move to N2, the rest stay N1."""
    rows = [list(row) for row in disjoint_rows_system().rows]
    for i, row in enumerate(rows):
        row[16 * i] = Fraction(1)
    return CoveringSystem.from_rows(rows, [Fraction(2)] * 4)


@pytest.mark.parametrize("system, w, n1", [
    (disjoint_rows_system(), Fraction(1, 10**6), 64),
    (_plank_with_heavy_columns(), 10 * TAU, 60),
], ids=["n1-every-column", "n1-subset"])
def test_a_plank_refute_rechecks_the_vertex_it_returns_once(system, w, n1, monkeypatch):
    # When N1 is every column the vertex is the finder's witness itself; it
    # is still re-checked exactly once, against every row, as when the
    # vertex is assembled from the blocks.
    checked, witnesses = [], []

    def counting_rows_through(sys_, vertices):
        checked.append((sys_, list(vertices)))
        return rows_through(sys_, vertices)

    def recording_finder(*args, **kwargs):
        result = find_uncovered_small_norm(*args, **kwargs)
        witnesses.append(result[0])
        return result

    monkeypatch.setattr(refute_module, "rows_through", counting_rows_through)
    monkeypatch.setattr(refute_module, "find_uncovered_small_norm", recording_finder)
    out = attempt_refutation(system, W=w, seed=3)
    assert out.status == "uncovered" and out.detail["block_sizes"]["N1"] == n1
    assert len(checked) == 1 and checked[0][0] is system
    assert len(checked[0][1]) == 1 and checked[0][1][0] is out.vertex
    assert not rows_on(system, out.vertex)
    assert (out.vertex is witnesses[0]) == (n1 == system.n)


def test_refute_rescaled_covers_stay_failed():
    rng = random.Random(2)
    for n in (6, 10):
        sys_ = lr_cover(n)
        factors = [Fraction(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(sys_.k)]
        out = attempt_refutation(apply_rescaling(sys_, factors), seed=n)
        assert out.status == "failed"
        assert out.vertex is None


def test_refute_deterministic_given_seed():
    sys_ = disjoint_rows_system()
    a = attempt_refutation(sys_, seed=42)
    b = attempt_refutation(sys_, seed=42)
    assert a == b


def test_refute_strict_hypotheses_mode():
    out = attempt_refutation(lr_cover(8), strict=True)
    assert out.status == "failed"
    assert out.stage == "decomposition-hypotheses"


def test_refute_reports_diagnostics():
    out = attempt_refutation(lr_cover(8))
    assert "hypotheses" in out.detail
    assert "block_sizes" in out.detail
    assert out.detail["S"] >= 1
    doc = json.loads(json.dumps(out, default=wire))
    assert doc["status"] == "failed"
    assert doc["stage"] == out.stage
    assert doc["vertex"] is None and doc["detail"]["W"] == format_rational(out.detail["W"])


# ------------------------------------------------ soundness checks under -O


def test_stage_failure_rejects_unknown_stage():
    with pytest.raises(ValueError, match="unknown stage"):
        StageFailure("no-such-stage", {})


def test_sampled_n3_search_returns_the_full_sample_witness():
    # |N3| above the enumeration cap: the search reports the first uncovered
    # draw of sample_uncovered on the K1 rows, with the same seed and budget.
    rng = random.Random(85)
    checked = 0
    for _ in range(30):
        n = 24
        rows = [[Fraction(rng.randint(-2, 2)) if rng.random() < 0.5 else Fraction(0) for _ in range(n)]
                for _ in range(3)]
        rows = [r for r in rows if any(r)]
        if not rows:
            continue
        sys_ = CoveringSystem.from_rows(rows, [Fraction(rng.randint(-1, 1)) for _ in rows])
        cols = tuple(range(n))
        d = empty_decomposition(sys_, K1=tuple(range(sys_.k)), N3=cols)
        cap, trials, seed = 8, 40, rng.randrange(1000)
        full = sample_uncovered(sys_, trials=trials, seed=seed)
        if full.witness is None:
            with pytest.raises(StageFailure) as info:
                choose_n3_assignment(sys_, d, cap, trials, seed)
            assert info.value.detail["searched"] == trials
            continue
        assignment = choose_n3_assignment(sys_, d, cap, trials, seed)
        assert tuple(assignment[j] for j in cols) == full.witness.bits
        checked += 1
    assert checked > 0


def _clear_count_systems():
    """(name, system, options) runs of attempt_refutation that reach each block:
    two pinned K2/K4 block systems whose K3 rows reach the plank
    precondition, one of them after a sampled N3 search; an LR cover whose N3
    subcube is swept exhaustively; and a plank system that runs the finder."""
    from test_refute_pinned import _block_system, _plank_system

    for seed, n, s in ((46, 80, 2), (26, 160, 3)):
        rows, mu = _block_system(random.Random(seed), 6, n)
        options = {"S": s, "W": Fraction(1, 10), "cap": 16, "trials": 40, "seed": 3}
        yield f"blocks-{seed}", CoveringSystem.from_rows(rows, mu), options
    yield "lr-8", lr_cover(8), {"seed": 7}
    rows, mu = _plank_system(random.Random(5), 4, 16)
    yield "plank-4x16", CoveringSystem.from_rows(rows, mu), {"W": Fraction(1, 10**6), "seed": 5}


@pytest.mark.parametrize("name", [case[0] for case in _clear_count_systems()])
def test_refutation_clears_each_row_once(name, monkeypatch):
    import sys

    import cubecover.core as core

    name, system, options = next(case for case in _clear_count_systems() if case[0] == name)
    original, calls = core.clear_row, []

    def counted(row, rhs=0):
        calls.append(row)
        return original(row, rhs)

    # Every module that bound the helper by name calls the counter instead.
    for module_name, module in list(sys.modules.items()):
        if module_name == "cubecover" or module_name.startswith("cubecover."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    outcome = attempt_refutation(system, **options)
    detail = outcome.detail
    # Each row is cleared once.  The N3 subcube, unless it is the whole
    # system, is a system of its own (the K1 rows filtered to N3) and clears
    # each of its rows once.
    sizes = detail["block_sizes"]
    again = 0 if (sizes["K1"], sizes["N3"]) == (system.k, system.n) else sizes["K1"]
    assert calls[:system.k] == list(system.sparse_rows)
    assert len(calls) == system.k + again
    if name.startswith("blocks-") or name.startswith("plank-"):
        assert detail["block_sizes"]["K3"] and "small_norm" in detail
    if name == "blocks-26":
        assert detail["block_sizes"]["K1"] and detail["block_sizes"]["N3"] > options["cap"]
    if name == "lr-8":
        assert detail["n3-assignment"]["search_mode"] == "exhaustive"
    if name == "plank-4x16":
        assert outcome.status == "uncovered" and detail["rounding"]["attempts"] >= 1


_UNDER_O = r"""
import io, json, sys
from fractions import Fraction

import cubecover.core as core
from cubecover import CoveringSystem, StageFailure, sample_uncovered
from cubecover.cli import run_command

if __debug__:
    sys.exit("not running under -O")

# Four disjoint plank rows: refute assembles and re-verifies a vertex.
rows = [[Fraction(1, 4) if 16 * i <= j < 16 * i + 16 else Fraction(0) for j in range(64)] for i in range(4)]
system = CoveringSystem.from_rows(rows, [2] * 4)
sys.stdin = io.StringIO(json.dumps(system.to_json_dict()))
result = run_command(["refute", "--input", "-", "--seed", "3", "--w", "1/1000000"])
doc = json.loads(result.stdout)
if result.exit_code != 0 or doc["status"] != "uncovered":
    sys.exit(f"refute found no vertex: {doc}")
# The independent check: one Fraction sum per row over the vertex's bits.
if any(sum((c for c, b in zip(row, doc["vertex"]) if b), Fraction(0)) == mu for row, mu in zip(rows, [2] * 4)):
    sys.exit("refute returned a covered vertex")

try:
    StageFailure("no-such-stage", {})
    sys.exit("StageFailure accepted an unknown stage")
except ValueError:
    pass

# x0 = 0 and x0 = 1 cover the cube; a wrong integer form calls every draw uncovered.
cover = CoveringSystem.from_rows([[1] + [0] * 9, [1] + [0] * 9], [0, 1])
clear_row = core.clear_row
core.clear_row = lambda row, rhs=0: core.ClearedRow([0], [1], 2, 1)
try:
    sample_uncovered(cover, trials=8, seed=0)
    sys.exit("a covered vertex was returned as a witness")
except RuntimeError:
    pass
core.clear_row = clear_row

# A sweep that reports the covered vertex 0 as uncovered (E1), or as exclusive
# to the wrong row (E3): verify must refuse each witness on its own.
import cubecover.essential as essential
from cubecover import verify_essential

for axiom, sweep in (("E1", (1, 0, [None, None])), ("E3", (0, None, [None, 0]))):
    essential._coverage_sweep = lambda system, **kw: sweep
    try:
        verify_essential(cover)
        sys.exit(f"verify_essential returned an unverified {axiom} witness")
    except RuntimeError:
        pass
print("ok")
"""


def test_soundness_checks_hold_under_python_O():
    # -O strips every assert; the exact re-checks must be explicit raises.
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", _UNDER_O], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


# The column budget as it was before it built its Fraction from integers,
# kept verbatim as the oracle: the float ln(n) through chained Fraction
# operations.
def _column_budget_floor_oracle(n, k):
    return Fraction(math.log(n) if n > 1 else 1.0) * k * k / n


def _derived_column_budget_oracle(n, k, multiplier):
    w = multiplier * _column_budget_floor_oracle(n, k)
    return w if w > 0 else Fraction(1, 100)


@settings(max_examples=300)
@given(st.one_of(st.integers(1, 300), st.integers(1, 10**30)), st.integers(1, 10**5),
       st.one_of(st.sampled_from((Fraction(1), Fraction(3, 2), Fraction(1, 3), Fraction(0), Fraction(-1), 2)),
                 st.fractions(min_value=-10, max_value=10**6, max_denominator=10**6)))
def test_column_budget_matches_the_oracle(n, k, multiplier):
    assert column_budget_floor(n, k) == _column_budget_floor_oracle(n, k)
    got = derived_column_budget(n, k, multiplier)
    assert got == _derived_column_budget_oracle(n, k, multiplier) and type(got) is Fraction


@settings(max_examples=100)
@given(st.one_of(st.none(), st.integers(1, 100),
                 st.fractions(min_value=Fraction(1, 10**9), max_value=100, max_denominator=10**9)))
def test_refutation_takes_a_given_column_budget_as_a_fraction(w):
    # W left at None is the derived default; a given W is used as it is.
    system = CoveringSystem.from_rows([[1] + [0] * 7], [0])
    got = attempt_refutation(system, W=w).detail["W"]
    assert got == (derived_column_budget(8, 1) if w is None else Fraction(w)) and type(got) is Fraction


def test_column_budget_is_exact_for_an_int_or_float_multiplier():
    for multiplier in (2, 1.5, 0.1):
        w = derived_column_budget(100, 5, multiplier)
        assert type(w) is Fraction and w == Fraction(multiplier) * column_budget_floor(100, 5)
