import itertools
import math
import random
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cubecover import (
    CapExceededError,
    CoveringSystem,
    Vertex,
    enumerate_uncovered,
    lr_cover,
    rows_through,
    sample_uncovered,
)
import cubecover.core as core_mod
import cubecover.cube as cube_mod
from cubecover.core import ClearedRow, clear_denominators
from cubecover.cube import _coverage_sweep
from _oracle import apply_rescaling, rows_on


def naive_uncovered(system):
    """Per-vertex reference oracle: rational dot products, no incremental state."""
    uncovered = []
    for bits in itertools.product((0, 1), repeat=system.n):
        x = Vertex(bits)
        if not rows_on(system, x):
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


def test_rows_through_examples():
    # (1, 0, 1, 0) is on the sum row alone; the zero vertex is on both pair
    # rows, whose empty sums hit mu = 0.
    assert rows_through(lr_cover(4), [Vertex((1, 0, 1, 0)), Vertex((0, 0, 0, 0))]) == [[0], [1, 2]]


def _oracle_cases():
    """(system, vertices) pairs for the exact re-check: small and large coprime
    denominators, zero entries and columns, all-zero and all-one vertices,
    n = 1, and right-hand sides through some vertex, or of a denominator that
    divides no entry's."""
    rng = random.Random(9)
    # 1/2 + 1/3 = 5/6: mu's denominator divides neither entry's.
    cases = [(CoveringSystem.from_rows([[Fraction(1, 2), Fraction(1, 3)]], [Fraction(5, 6)]),
              [Vertex(bits) for bits in itertools.product((0, 1), repeat=2)])]
    for n, dens in ((1, range(1, 8)), (2, range(1, 8)), (5, range(1, 8)), (9, range(1, 8)),
                    (9, (10**9 + 7, 10**9 + 9)), (12, (1, 7, 10**9 + 7, 10**9 + 9))):
        for _ in range(6):
            k = rng.randint(1, 7)
            zero_col = rng.randrange(n) if n > 1 else None
            rows = []
            for _ in range(k):
                row = [Fraction(rng.randint(-9, 9), rng.choice(dens)) if rng.random() < 0.7 else Fraction(0)
                       for _ in range(n)]
                if zero_col is not None:
                    row[zero_col] = Fraction(0)
                if not any(row):
                    row[(zero_col or 0) - 1] = Fraction(1, rng.choice(dens))
                rows.append(row)
            vertices = [Vertex((0,) * n), Vertex((1,) * n)]
            vertices += [Vertex(tuple(rng.getrandbits(1) for _ in range(n))) for _ in range(rng.randint(0, 5))]
            mu = []
            for row in rows:
                pick = rng.random()
                if pick < 0.6:
                    x = rng.choice(vertices)
                    mu.append(sum((c for c, b in zip(row, x.bits) if b), Fraction(0)))
                elif pick < 0.8:
                    mu.append(Fraction(rng.randint(-9, 9), 11 * 13))
                else:
                    mu.append(Fraction(rng.randint(-9, 9), rng.choice(dens)))
            rng.shuffle(vertices)
            cases.append((CoveringSystem.from_rows(rows, mu), vertices))
    return cases


def _check_against_oracle(cases) -> int:
    """rows_through on batches of 0, 1 and all vertices against the oracle;
    returns the number of hits."""
    hits = 0
    for system, vertices in cases:
        expected = [rows_on(system, x) for x in vertices]
        assert rows_through(system, vertices) == expected
        assert rows_through(system, []) == []
        for x, want in zip(vertices, expected):
            assert rows_through(system, [x]) == [want]
        hits += sum(map(len, expected))
    return hits


def test_rows_through_matches_fraction_oracle():
    assert _check_against_oracle(_oracle_cases()) > 50


def test_rows_through_rejects_wrong_length():
    sys_ = lr_cover(4)
    assert rows_through(sys_, [Vertex((1, 0, 1, 0))]) == [[0]]
    for batch in ([Vertex((0, 0))], [Vertex((0, 0, 0, 0)), Vertex((1,) * 5)]):
        with pytest.raises(ValueError, match="vertex has [25] bits, expected 4"):
            rows_through(sys_, batch)


def _rows_through_scanning_every_column(system, vertices):
    """``rows_through`` as it stood before it picked the set columns with
    ``compress``, kept verbatim (docstring aside) as its oracle."""
    n = system.n
    for x in vertices:
        if len(x) != n:
            raise ValueError(f"vertex has {len(x)} bits, expected {n}")
    cols = [j for j in range(n) if any(x.bits[j] for x in vertices)]
    # Each vertex's set columns, as positions in cols.
    sets = [[t for t, j in enumerate(cols) if x.bits[j]] for x in vertices]
    hits: list[list[int]] = [[] for _ in vertices]
    for i, (row, mu) in enumerate(zip(system.rows, system.mu)):
        # (numerator, denominator) in one call per entry; zeros skip the scaling.
        pairs = [row[j].as_integer_ratio() for j in cols]
        top, bottom = mu.as_integer_ratio()
        d = math.lcm(bottom, *[q for p, q in pairs if p])
        ints = [p * (d // q) if p else 0 for p, q in pairs]
        target = top * (d // bottom)
        for hit, on in zip(hits, sets):
            if sum([ints[t] for t in on]) == target:
                hit.append(i)
    return hits


@st.composite
def _systems_and_batches(draw):
    """A rational system with 1-6 rows on 1-10 columns, each mu_i a subset
    sum through one of the batch's vertices or a random rational, and a batch
    of 0-5 vertices that may hold the all-zero vertex."""
    n, k = draw(st.integers(1, 10)), draw(st.integers(1, 6))
    entry = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 7, 10**9 + 7)))
    rows = [draw(st.lists(entry, min_size=n, max_size=n).filter(any)) for _ in range(k)]
    bits = st.tuples(*[st.integers(0, 1)] * n)
    vertices = [Vertex(b) for b in draw(st.lists(st.one_of(st.just((0,) * n), bits), max_size=5))]
    mu = []
    for row in rows:
        if vertices and draw(st.booleans()):
            x = draw(st.sampled_from(vertices))
            mu.append(sum((c for c, b in zip(row, x.bits) if b), Fraction(0)))
        else:
            mu.append(draw(entry))
    return CoveringSystem.from_rows(rows, mu), vertices


@settings(max_examples=300, deadline=None)
@given(_systems_and_batches())
def test_rows_through_matches_the_column_scanning_oracle(case):
    system, vertices = case
    assert rows_through(system, vertices) == _rows_through_scanning_every_column(system, vertices)


@settings(max_examples=100, deadline=None)
@given(_systems_and_batches(), st.integers(0, 5), st.sampled_from((-1, 1)))
def test_rows_through_rejects_a_wrong_length_vertex_before_reading_a_row(case, at, step):
    system, vertices = case
    if system.n + step < 0:
        return
    vertices.insert(min(at, len(vertices)), Vertex((0,) * (system.n + step)))
    # No rows to read: a row read before the length check raises AttributeError.
    rowless = types.SimpleNamespace(n=system.n)
    for check in (rows_through, _rows_through_scanning_every_column):
        with pytest.raises(ValueError, match=f"vertex has {system.n + step} bits, expected {system.n}"):
            check(rowless, vertices)


class _ClearedFormRead(Exception):
    pass


def test_exact_recheck_reads_only_the_rational_rows(monkeypatch):
    cases = _oracle_cases()

    def forbidden(*args, **kwargs):
        raise _ClearedFormRead

    monkeypatch.setattr(CoveringSystem, "cleared_rows", property(forbidden))
    monkeypatch.setattr(CoveringSystem, "supports", forbidden)
    for attr in ("clear_row", "clear_denominators"):
        original = getattr(core_mod, attr)
        for name, module in list(sys.modules.items()):
            if (name == "cubecover" or name.startswith("cubecover.")) and vars(module).get(attr) is original:
                monkeypatch.setattr(module, attr, forbidden)
    with pytest.raises(_ClearedFormRead):
        lr_cover(4).cleared_rows
    assert _check_against_oracle(cases) > 50


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
        enumerate_uncovered(lr_cover(8), 6)


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


def test_sample_uncovered_finds_witness_high_dim():
    sys_ = CoveringSystem.from_rows([[1] + [0] * 39], [0])
    rep = sample_uncovered(sys_, trials=64, seed=5)
    assert rep.mode == "sampled"
    assert rep.witness is not None
    assert rep.uncovered_count == 1 and 1 <= rep.samples <= 64
    assert not rows_on(sys_, rep.witness)


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
            assert not rows_on(sys_, rep.witness)


def full_sample(system, trials, seed):
    """(first uncovered draw or None, its 1-based index or None, uncovered
    draws) over all ``trials`` draws: the loop that kept drawing after the
    witness, on the rational rows."""
    rng = random.Random(seed)
    first, index, uncovered = None, None, 0
    for drawn in range(1, trials + 1):
        x = Vertex.from_code(rng.getrandbits(system.n), system.n)
        if not rows_on(system, x):
            uncovered += 1
            if first is None:
                first, index = x, drawn
    return first, index, uncovered


def test_stop_at_witness_draws_the_same_witness():
    rng = random.Random(31)
    stopped_early = 0
    for _ in range(40):
        sys_ = random_system(rng, rng.randint(3, 30), rng.randint(1, 6))
        seed = rng.randrange(10**6)
        witness, index, uncovered = full_sample(sys_, 200, seed)
        rep = sample_uncovered(sys_, trials=200, seed=seed)
        assert rep.witness == witness
        if witness is None:
            assert rep.samples == 200 and rep.uncovered_count == 0
        else:
            assert rep.samples == index and rep.uncovered_count == 1
            stopped_early += uncovered > 1
    assert stopped_early > 10  # draws after the witness would have found more


def test_sampled_witness_failing_exact_recheck_raises(monkeypatch):
    import cubecover.core as core_mod

    # x0 = 0 and x0 = 1 cover the cube; an integer form that reads both targets
    # as 2 makes the draw loop call every vertex uncovered.
    sys_ = CoveringSystem.from_rows([[1] + [0] * 9, [1] + [0] * 9], [0, 1])
    monkeypatch.setattr(core_mod, "clear_row", lambda row, rhs=0: ClearedRow([0], [1], 2, 1))
    with pytest.raises(RuntimeError, match="exact arithmetic"):
        sample_uncovered(sys_, trials=64, seed=0)


# The one-vertex-per-step Gray-code sweep that the split-table engine
# replaced, kept verbatim as an oracle for counts, witnesses and E3 codes,
# with the dense row-wise clear it ran on.
def _integerized(system: CoveringSystem) -> tuple[list[list[int]], list[int]]:
    """Clear denominators row-wise; membership-equivalent integer system."""
    int_rows: list[list[int]] = []
    int_mu: list[int] = []
    for row, mu in zip(system.rows, system.mu):
        scaled, _ = clear_denominators((*row, mu))
        int_rows.append(scaled[:-1])
        int_mu.append(scaled[-1])
    return int_rows, int_mu


def _gray(t: int) -> int:
    return t ^ (t >> 1)


def gray_coverage_sweep(
    system,
    t_lo: int = 0,
    t_hi: int | None = None,
    collect_exclusive: bool = False,
):
    """Walk Gray-code steps t in [t_lo, t_hi) and classify every visited vertex.

    Returns (uncovered_count, min uncovered code or None, per-row minimal
    exclusive codes when requested).  Ranges of t partition the vertex space,
    so results from disjoint ranges merge by summing counts and taking
    minima.
    """
    n, k = system.n, system.k
    if t_hi is None:
        t_hi = 1 << n
    int_rows, int_mu = _integerized(system)

    # cols[b]: (row, coefficient) pairs for the coordinate stored at bit b.
    cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, row in enumerate(int_rows):
        for j, c in enumerate(row):
            if c:
                cols[n - 1 - j].append((i, c))

    code = _gray(t_lo)
    sums = [0] * k
    for b in range(n):
        if (code >> b) & 1:
            for i, c in cols[b]:
                sums[i] += c
    sat = 0
    sat_sum = 0
    for i in range(k):
        if sums[i] == int_mu[i]:
            sat += 1
            sat_sum += i

    uncovered = 0
    min_code: int | None = None
    excl: list[int | None] | None = [None] * k if collect_exclusive else None

    if sat == 0:
        uncovered = 1
        min_code = code
    elif collect_exclusive and sat == 1:
        excl[sat_sum] = code

    mu = int_mu
    for t in range(t_lo + 1, t_hi):
        b = (t & -t).bit_length() - 1
        mask = 1 << b
        code ^= mask
        if code & mask:
            for i, c in cols[b]:
                s = sums[i]
                m = mu[i]
                was = s == m
                s += c
                sums[i] = s
                if (s == m) != was:
                    if was:
                        sat -= 1
                        sat_sum -= i
                    else:
                        sat += 1
                        sat_sum += i
        else:
            for i, c in cols[b]:
                s = sums[i]
                m = mu[i]
                was = s == m
                s -= c
                sums[i] = s
                if (s == m) != was:
                    if was:
                        sat -= 1
                        sat_sum -= i
                    else:
                        sat += 1
                        sat_sum += i
        if sat == 0:
            uncovered += 1
            if min_code is None or code < min_code:
                min_code = code
        elif sat == 1 and collect_exclusive:
            r = sat_sum
            prev = excl[r]
            if prev is None or code < prev:
                excl[r] = code

    return uncovered, min_code, excl


def _grid_systems():
    """Seeded systems for n = 1..14, k = 1..6, each with one structural twist."""
    rng = random.Random(20261018)
    for n in range(1, 15):
        for k in range(1, 7):
            sys_ = random_system(rng, n, k)
            rows, mu = [list(r) for r in sys_.rows], list(sys_.mu)
            twist = (n + k) % 4
            if twist == 0 and n > 1:  # a zero column
                j = rng.randrange(n)
                for r in rows:
                    r[j] = Fraction(0)
                    if not any(r):
                        r[(j + 1) % n] = Fraction(1)
            elif twist == 1:  # a duplicated row
                i = rng.randrange(k)
                rows.append(list(rows[i]))
                mu.append(mu[i])
            elif twist == 2:  # mu on the row's own subset sums, so rows are hit
                mu = [sum(c for c in r if rng.random() < 0.5) for r in rows]
            sys_ = CoveringSystem.from_rows(rows, mu)
            yield sys_
            if twist == 3:
                yield apply_rescaling(sys_, [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in rows])
    for n in range(2, 15, 2):
        lr = lr_cover(n)
        yield lr
        yield CoveringSystem.from_rows(lr.rows[1:] or lr.rows, lr.mu[1:] or lr.mu)


def _forced_splits(n):
    """Every split point for n <= 10; the ends and the middle above that."""
    return range(n + 1) if n <= 10 else sorted({0, 1, (n + 1) // 2, n - 1, n})


def test_split_table_sweep_matches_gray_oracle(monkeypatch):
    rule = cube_mod._split_further
    for sys_ in _grid_systems():
        expected = gray_coverage_sweep(sys_, collect_exclusive=True)
        # The split the rule picks (None), then each forced one.
        for low in (None, *_forced_splits(sys_.n)):
            forced = rule if low is None else (lambda entries, at, n, k, low=low: at < low)
            monkeypatch.setattr(cube_mod, "_split_further", forced)
            # Verify mode stops at its last witness and counts nothing: its
            # witnesses, and so e1, are the oracle's.
            assert _coverage_sweep(sys_, collect_exclusive=True) == (None, *expected[1:]), (sys_, low)
            assert _coverage_sweep(sys_) == (*expected[:2], None), (sys_, low)
        monkeypatch.setattr(cube_mod, "_split_further", rule)
        rep = enumerate_uncovered(sys_)
        assert rep.uncovered_count == expected[0]
        assert rep.witness == (Vertex.from_code(expected[1], sys_.n) if expected[1] is not None else None)


def _split_point(sys_):
    """The number of low coordinates the sweep tabulates on sys_."""
    asked = []
    rule = cube_mod._split_further

    def spy(entries, low, n, k):
        asked.append((low, rule(entries, low, n, k)))
        return asked[-1][1]

    cube_mod._split_further = spy
    try:
        _coverage_sweep(sys_)
    finally:
        cube_mod._split_further = rule
    # The sweep asks at low = 0, 1, ... and stops at the first no, or at n.
    low, further = asked[-1]
    return low + further


def test_split_point_grows_with_sparse_tables_and_stays_near_half_on_dense_rows():
    # LR rows take 2 to n+1 distinct low sums, so their tables pay for a
    # split far past n/2; dense rows have up to 2^l and stay near n/2.  A
    # split put back at n/2 passes every oracle but fails here.
    for n in range(16, 25, 2):
        assert _split_point(lr_cover(n)) >= 2 * n // 3, n
    rng = random.Random(20261019)
    for k, n, big in ((2, 12, 6), (4, 14, 6), (8, 16, 6), (6, 20, 10**6), (8, 24, 10**6), (16, 24, 10**6)):
        rows = [[Fraction(rng.randint(-big, big) or 1, rng.randint(1, 4)) for _ in range(n)] for _ in range(k)]
        mu = [sum(c for c in row if rng.random() < 0.5) for row in rows]
        assert _split_point(CoveringSystem.from_rows(rows, mu)) <= (n + 1) // 2 + 1, (k, n)


def _binary_rows(n, codes):
    """One row per code c, sum_j 2^(n-1-j) x_j = c: it holds the vertex of
    code c alone, and its subset sums are all distinct (dense tables)."""
    return CoveringSystem.from_rows([[2 ** (n - 1 - j) for j in range(n)]] * len(codes), codes)


def _classified_blocks(sys_, monkeypatch):
    """Verify mode's result on sys_, and each block it classified as
    (first code, number of codes)."""
    blocks, classify = [], cube_mod._classify

    def spy(masks, base, full, open_rows, excl):
        blocks.append((base, full.bit_length()))
        return classify(masks, base, full, open_rows, excl)

    with monkeypatch.context() as mp:
        mp.setattr(cube_mod, "_classify", spy)
        return _coverage_sweep(sys_, collect_exclusive=True), blocks


def test_verify_mode_returns_at_its_last_witness(monkeypatch):
    n = 16
    low4, low7 = cube_mod._SCAN_LEVELS
    final = _split_point(_binary_rows(n, [1, 2]))
    assert (low4, low7, final) == (4, 7, 8)
    scans = [(0, 1 << low4), (0, 1 << low7), (0, 1 << final)]
    # (row codes, blocks classified): the last witness at code 1, below and
    # just past each scan level, and past block 0, where the high codes'
    # blocks take over.
    for codes, classified in (
        ([1], scans[:1]),  # uncovered 0, row 0 alone at 1
        ([0, 1], scans[:1]),  # uncovered 2
        ([3, (1 << low4) - 1], scans[:1]),
        ([3, 1 << low4], scans[:2]),
        ([(1 << low7) - 1, 5], scans[:2]),
        ([1 << low7, 5], scans),
        ([(1 << final) - 1, 0], scans),
        ([1 << final, 5], [*scans, (1 << final, 1 << final)]),
        ([5, (5 << final) + 3], [*scans, *[(y << final, 1 << final) for y in range(1, 6)]]),
    ):
        sys_ = _binary_rows(n, codes)
        got, blocks = _classified_blocks(sys_, monkeypatch)
        assert got == (None, *gray_coverage_sweep(sys_, collect_exclusive=True)[1:]), codes
        assert blocks == classified, codes
    # Nowhere: rows 0 and 1 hold the same vertex, so neither owns one, and
    # every block is classified.
    got, blocks = _classified_blocks(_binary_rows(n, [6, 6, 9]), monkeypatch)
    assert got == (None, 0, [None, None, 9])
    assert blocks == [*scans, *[(y << final, 1 << final) for y in range(1, 1 << (n - final))]]


def test_verify_mode_makes_no_scan_on_sparse_tables(monkeypatch):
    # LR rows have few distinct low sums: no block-0 scan while the tables
    # grow; block 0 is first classified at the final level.
    for sys_ in (lr_cover(12), lr_cover(16)):
        got, blocks = _classified_blocks(sys_, monkeypatch)
        assert blocks[0] == (0, 1 << _split_point(sys_))
        assert got[:2] == (None, None) and None not in got[2]
