import itertools
import random
from fractions import Fraction

import pytest

from cubecover import (
    CapExceededError,
    CoverageReport,
    CoveringSystem,
    Params,
    Vertex,
    enumerate_uncovered,
    evaluate_row,
    lr_cover,
    sample_uncovered,
)


def naive_uncovered(system):
    """Per-vertex reference oracle: rational dot products, no incremental state."""
    uncovered = []
    for bits in itertools.product((0, 1), repeat=system.n):
        x = Vertex(bits)
        if not any(evaluate_row(system, i, x) for i in range(system.k)):
            uncovered.append(x)
    return uncovered


def random_system(rng, n, k):
    while True:
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(k)
        ]
        if all(any(c != 0 for c in row) for row in rows):
            break
    mu = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(k)]
    return CoveringSystem.from_rows(rows, mu)


def test_evaluate_row_examples():
    sys_ = lr_cover(4)
    x = Vertex((1, 0, 1, 0))
    assert evaluate_row(sys_, 0, x) is True
    assert evaluate_row(sys_, 1, x) is False
    zero = Vertex((0, 0, 0, 0))
    assert evaluate_row(sys_, 1, zero) is True  # empty sum hits mu = 0


def test_evaluate_row_errors():
    sys_ = lr_cover(4)
    with pytest.raises(IndexError):
        evaluate_row(sys_, 3, Vertex((0, 0, 0, 0)))
    with pytest.raises(ValueError):
        evaluate_row(sys_, 0, Vertex((0, 0)))


def test_enumerate_lr4_is_cover():
    assert enumerate_uncovered(lr_cover(4)).uncovered_count == 0


def test_enumerate_single_hyperplane():
    sys_ = CoveringSystem.from_rows([[1, 0]], [0])
    rep = enumerate_uncovered(sys_)
    assert rep.uncovered_count == 2
    assert rep.witness == Vertex((1, 0))  # lexicographically smallest
    assert rep.mode == "exhaustive"
    assert rep.total_vertices == 4


def test_enumerate_lr4_without_row0():
    sys_ = CoveringSystem.from_rows(lr_cover(4).rows[1:], lr_cover(4).mu[1:])
    rep = enumerate_uncovered(sys_)
    # Exactly the vertices with x1 != x2 and x3 != x4.
    expected = sorted(naive_uncovered(sys_))
    assert rep.uncovered_count == len(expected) == 4
    assert rep.witness == expected[0] == Vertex((0, 1, 0, 1))


def test_enumerate_respects_cap():
    with pytest.raises(CapExceededError):
        enumerate_uncovered(lr_cover(8), Params(enumeration_cap=6))


def test_gray_engine_matches_naive_oracle():
    rng = random.Random(20240921)
    for _ in range(30):
        n = rng.randint(1, 9)
        k = rng.randint(1, 4)
        sys_ = random_system(rng, n, k)
        expected = naive_uncovered(sys_)
        rep = enumerate_uncovered(sys_)
        assert rep.uncovered_count == len(expected)
        assert rep.witness == (min(expected) if expected else None)


def test_chunked_merge_is_identical():
    sys_ = lr_cover(8)
    dropped = CoveringSystem.from_rows(sys_.rows[1:], sys_.mu[1:])
    whole = enumerate_uncovered(dropped, chunks=1)
    for chunks in (2, 3, 7):
        split = enumerate_uncovered(dropped, chunks=chunks)
        assert split == whole


def test_sample_uncovered_finds_witness_high_dim():
    sys_ = CoveringSystem.from_rows([[1] + [0] * 39], [0])
    rep = sample_uncovered(sys_, trials=64, seed=5)
    assert rep.mode == "sampled"
    assert rep.samples == 64
    assert rep.witness is not None
    assert not any(evaluate_row(sys_, i, rep.witness) for i in range(sys_.k))


def test_sample_uncovered_on_true_cover():
    rep = sample_uncovered(lr_cover(12), trials=10**4, seed=3)
    assert rep.uncovered_count == 0
    assert rep.witness is None


def test_sample_uncovered_rejects_zero_trials():
    with pytest.raises(ValueError):
        sample_uncovered(lr_cover(4), trials=0, seed=0)


def test_sample_uncovered_deterministic():
    sys_ = CoveringSystem.from_rows([[1, 1, 0], [0, 1, 1]], [1, 1])
    a = sample_uncovered(sys_, trials=200, seed=11)
    b = sample_uncovered(sys_, trials=200, seed=11)
    assert a == b
    c = sample_uncovered(sys_, trials=200, seed=12)
    assert c.total_vertices == a.total_vertices  # counts may differ, shape agrees


def test_sampled_witnesses_reverify():
    rng = random.Random(7)
    for _ in range(10):
        sys_ = random_system(rng, 6, 2)
        rep = sample_uncovered(sys_, trials=50, seed=rng.randint(0, 10**6))
        if rep.witness is not None:
            assert not any(evaluate_row(sys_, i, rep.witness) for i in range(sys_.k))


def test_coverage_report_json_round_trip():
    rep = enumerate_uncovered(CoveringSystem.from_rows([[1, 0]], [0]))
    doc = rep.to_json_dict()
    assert CoverageReport.from_json_dict(doc) == rep
    sampled = sample_uncovered(lr_cover(4), trials=10, seed=0)
    assert CoverageReport.from_json_dict(sampled.to_json_dict()) == sampled


def test_stop_at_witness_draws_the_same_witness():
    rng = random.Random(31)
    for _ in range(40):
        sys_ = random_system(rng, rng.randint(3, 30), rng.randint(1, 6))
        seed = rng.randrange(10**6)
        full = sample_uncovered(sys_, trials=200, seed=seed)
        first = sample_uncovered(sys_, trials=200, seed=seed, stop_at_witness=True)
        assert first.witness == full.witness
        if full.witness is None:
            assert first.samples == 200 and first.uncovered_count == 0
        else:
            assert first.uncovered_count == 1 and 1 <= first.samples <= 200
    assert full.samples == 200  # the default still draws and counts every trial


def test_sampled_witness_failing_exact_recheck_raises(monkeypatch):
    import cubecover.cube as cube_mod

    # x0 = 0 and x0 = 1 cover the cube; an integer form that reads both targets
    # as 2 makes the draw loop call every vertex uncovered.
    sys_ = CoveringSystem.from_rows([[1] + [0] * 9, [1] + [0] * 9], [0, 1])
    monkeypatch.setattr(cube_mod, "_integerized", lambda system: ([[1] + [0] * 9] * 2, [2, 2]))
    with pytest.raises(RuntimeError, match="exact arithmetic"):
        sample_uncovered(sys_, trials=64, seed=0)
