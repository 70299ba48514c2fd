import itertools
import math
import random
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import given, settings, strategies as st

from cubecover import (
    ScalePartition,
    ScalePartitionError,
    atom_probability,
    concentration_window_prob,
    littlewood_offord_bound,
    max_atom_probability,
    scale_partition,
    subset_sum_counts,
    validate_scales,
)
from cubecover import anticonc
from cubecover.anticonc import _CHUNK_DRAWS, _TABLE_DIM, _integer_form, _shell_edges, _window_mass
from cubecover.core import C1, ENUMERATION_CAP  # C1 = 4 * 4.706^2 as an exact rational


def brute_force_atom(v, a):
    hits = sum(
        1
        for bits in itertools.product((0, 1), repeat=len(v))
        if sum(Fraction(c) * b for c, b in zip(v, bits)) == a
    )
    return Fraction(hits, 2 ** len(v))


def test_atom_probability_examples():
    assert atom_probability([1, 1, 1, 1], 2) == Fraction(6, 16)
    assert atom_probability([1, 2, 4], 3) == Fraction(1, 8)
    assert atom_probability([1, 1], 1) == Fraction(1, 2)


def test_atom_probability_matches_brute_force():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 8)
        v = [rng.randint(-3, 3) for _ in range(n)]
        a = rng.randint(-4, 4)
        assert atom_probability(v, a) == brute_force_atom(v, a)


def test_atom_probability_sampled_mode():
    p1 = atom_probability([1, 1], 1, mode="sampled", trials=4000, seed=2)
    p2 = atom_probability([1, 1], 1, mode="sampled", trials=4000, seed=2)
    assert p1 == p2  # deterministic given the seed
    assert abs(float(p1) - 0.5) < 0.05


def test_atom_probability_cap():
    from cubecover import CapExceededError

    with pytest.raises(CapExceededError):
        atom_probability([1] * 30, 3, cap=24)


def test_littlewood_offord_bound_values():
    assert littlewood_offord_bound([1, 1, 1, 1]) == 0.5
    assert littlewood_offord_bound([5, 0, 0]) == 1.0
    assert littlewood_offord_bound([1] * 100) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        littlewood_offord_bound([0, 0])


def test_littlewood_offord_conformance_exhaustive():
    # Exact rational comparison via squares: p^2 * supp <= 1.
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 10)
        v = [rng.randint(-3, 3) for _ in range(n)]
        if all(c == 0 for c in v):
            v[0] = 1
        supp = sum(1 for c in v if c != 0)
        prob, _ = max_atom_probability(v)
        assert prob * prob * supp <= 1


def test_geometric_vector_sharpness():
    for n in range(1, 12):
        v = [2**i for i in range(n)]
        prob, _ = max_atom_probability(v)
        assert prob == Fraction(1, 2**n)


def test_subset_sum_counts_total_mass():
    v = [1, 1, 0, -2]
    counts = subset_sum_counts(v)
    assert sum(counts.values()) == 2 ** len(v)


def test_scale_partition_two_scales():
    part = scale_partition([100, 1])
    assert part.parts == ((0,), (1,))
    assert part.S == 2
    # 100^2 >= C1^2 * 1^2 exactly.
    assert Fraction(10000) >= C1 * C1
    assert validate_scales([100, 1], part)


def test_scale_partition_single_scale():
    part = scale_partition([1, 1])
    assert part.S == 1
    assert part.parts == ((0, 1),)
    assert validate_scales([1, 1], part)


def test_scale_partition_three_scales():
    part = scale_partition([10000, 100, 1])
    assert part.S == 3
    assert part.parts == ((0,), (1,), (2,))
    assert validate_scales([10000, 100, 1], part)


def test_scale_partition_target_merging():
    part = scale_partition([10000, 100, 1], target_S=2)
    assert part.S == 2
    assert validate_scales([10000, 100, 1], part)
    with pytest.raises(ScalePartitionError):
        scale_partition([1, 1], target_S=2)


def test_scale_partition_zero_vector():
    with pytest.raises(ValueError):
        scale_partition([0, 0])


def test_scale_partition_output_always_validates():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(1, 10)
        v = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 100)) for _ in range(n)]
        if all(c == 0 for c in v):
            v[0] = Fraction(1)
        part = scale_partition(v)
        assert validate_scales(v, part)


def test_validate_scales_rejects_bad_decay():
    part = ScalePartition.build([1, 1], [[0], [1]])
    assert validate_scales([1, 1], part) is False


def test_validate_scales_single_part():
    part = ScalePartition.build([3, -7], [[0, 1]])
    assert validate_scales([3, -7], part) is True


def test_validate_scales_structural_errors():
    part = ScalePartition.build([1, 2, 3], [[0], [1]])  # misses index 2
    with pytest.raises(ValueError):
        validate_scales([1, 2, 3], part)
    overlap = ScalePartition.build([1, 2], [[0, 1], [1]])
    with pytest.raises(ValueError):
        validate_scales([1, 2], overlap)


def test_window_boundaries_are_exact():
    # [100, 1] with delta^2 = 1, b = 2, a = 2: the sum 0 sits on |s - a| = b * delta,
    # which the strict ball window (s - a)^2 < b^2 delta^2 excludes; only the sum 1 is inside.
    assert scale_partition([100, 1]).smallest_scale_sq == 1
    assert _window_mass([100, 1], ball_edges(2, 4, 1), "exact", 0, 0, ENUMERATION_CAP, "") == Fraction(1, 4)
    # [3, 4] with C0 = 10: the sums 3 and 4 sit on z^2 C0^2 = q (z = -1/2, 1/2, q = 25),
    # which the closed window includes.
    assert concentration_window_prob([3, 4], C0=10)[0] == 1


def test_geometric_blocks_window_mass():
    v = [2**i for i in range(16)]
    parts = [list(range(7, 16)), list(range(7))]
    part = ScalePartition.build(v, parts)
    assert validate_scales(v, part)
    # The ball |s - 5| < b * delta at b = 2: all 2^16 subset sums are distinct
    # integers and the window has width 2*b*delta, so the hit count is at most
    # that many integers.
    window_sq = 4 * part.smallest_scale_sq
    prob = _window_mass(v, ball_edges(5, window_sq.numerator, window_sq.denominator), "exact", 0, 0, ENUMERATION_CAP, "")
    delta = math.sqrt(float(part.smallest_scale_sq))
    assert 0 < prob <= (4 * delta + 1) / 2**16
    assert atom_probability(v, 5) == Fraction(1, 2**16)


def test_window_unit_basis_vector():
    prob, ok = concentration_window_prob([1])
    assert prob == 1
    assert ok


def test_window_two_coordinates():
    # Effective vector (1,1)/sqrt(2): value |x1+x2-1|/sqrt(2) is 0 or 1/sqrt(2).
    prob, ok = concentration_window_prob([1, 1])
    assert prob == Fraction(1, 2)
    assert ok


def test_window_rejects_small_c0():
    with pytest.raises(ValueError):
        concentration_window_prob([1, 1], C0=4)


def test_window_sampled_mode():
    prob, ok = concentration_window_prob([1, 1], mode="sampled", trials=2000, seed=9)
    assert abs(float(prob) - 0.5) < 0.06
    assert ok


def test_window_claim_holds_for_random_unit_rows():
    rng = random.Random(123)
    for _ in range(40):
        n = rng.randint(1, 8)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = Fraction(1)
        prob, ok = concentration_window_prob(coeffs)
        assert ok, (coeffs, prob)


def test_window_accepts_float_boundary_c0():
    # The float literal 4.706 must be read as the decimal 4706/1000, not its
    # binary value, which is larger by about 4.05e-16.
    prob, ok = concentration_window_prob([1, 1], C0=4.706)
    assert prob == Fraction(1, 2) and ok


def test_sampled_modes_require_positive_trials():
    with pytest.raises(ValueError):
        atom_probability([1, 1], 1, mode="sampled", trials=0)
    with pytest.raises(ValueError):
        concentration_window_prob([1, 1], mode="sampled", trials=0)


def test_singleton_partition_of_geometric_vector_is_invalid():
    # Adjacent powers of two have norm ratio 2, far below C1 ~ 88.6.
    v = [2**i for i in range(16)]
    singletons = ScalePartition.build(v, [[j] for j in range(15, -1, -1)])
    assert validate_scales(v, singletons) is False


# The Fraction-keyed subset-sum loop and the Fraction sampling loop that the
# integer kernels replaced, kept as oracles.
def fraction_subset_sum_counts(vec):
    counts = {Fraction(0): 1}
    for c in vec:
        if c == 0:
            counts = {s: 2 * m for s, m in counts.items()}
            continue
        nxt = dict(counts)
        for s, m in counts.items():
            key = s + c
            nxt[key] = nxt.get(key, 0) + m
        counts = nxt
    return counts


def fraction_sampled_mass(vec, in_window, trials, seed):
    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        s = sum((c for c in vec if rng.getrandbits(1)), Fraction(0))
        if in_window(s):
            hits += 1
    return Fraction(hits, trials)


def fraction_exact_mass(vec, in_window):
    counts = fraction_subset_sum_counts(vec)
    return Fraction(sum(m for s, m in counts.items() if in_window(s)), 1 << len(vec))


def _oracle_vectors():
    """Negative and zero entries, and denominators that do not divide one another."""
    rng = random.Random(4242)
    for _ in range(120):
        n = rng.randint(1, 11)
        v = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5, 7))) if rng.random() < 0.8 else Fraction(0)
             for _ in range(n)]
        if not any(v):
            v[0] = Fraction(-2, 3)
        # Either a reachable subset sum, or a target with a denominator (11) no entry has.
        a = sum((c for c in v if rng.random() < 0.5), Fraction(0)) if rng.random() < 0.6 \
            else Fraction(rng.randint(-20, 20), 11)
        yield v, a, rng.randrange(10**6)


def test_subset_sums_match_fraction_oracle():
    for v, _, _ in _oracle_vectors():
        expected = fraction_subset_sum_counts(v)
        got = subset_sum_counts(v)
        assert got == expected and all(type(s) is Fraction for s in got)
        # Integer input gives int keys; scaling by the common denominator is a bijection.
        d = math.lcm(*(c.denominator for c in v))
        ints = subset_sum_counts([int(c * d) for c in v])
        assert len(ints) == len(expected)
        assert ints == {s * d: m for s, m in expected.items()}
        assert all(type(s) is int for s in ints)


def test_atom_probability_matches_fraction_oracle():
    for v, a, seed in _oracle_vectors():
        assert atom_probability(v, a) == fraction_exact_mass(v, lambda s: s == a)
        sampled = atom_probability(v, a, mode="sampled", trials=300, seed=seed)
        assert sampled == fraction_sampled_mass(v, lambda s: s == a, 300, seed)


def test_max_atom_probability_matches_fraction_oracle():
    for v, _, _ in _oracle_vectors():
        counts = fraction_subset_sum_counts(v)
        best_a, best_m = max(counts.items(), key=lambda kv: (kv[1], kv[0]))
        prob, a = max_atom_probability(v)
        assert (prob, a) == (Fraction(best_m, 1 << len(v)), best_a) and type(a) is Fraction


def test_window_probability_matches_fraction_oracle():
    for v, _, seed in _oracle_vectors():
        for c0 in (Fraction(4706, 1000), Fraction(37, 7)):
            norm_sq = sum((c * c for c in v), Fraction(0))
            half = sum(v, Fraction(0)) / 2
            c0_sq = c0 * c0

            def inside(s):
                z_sq = (s - half) ** 2
                return z_sq * c0_sq >= norm_sq and z_sq <= c0_sq * norm_sq

            assert concentration_window_prob(v, C0=c0)[0] == fraction_exact_mass(v, inside)
            sampled, _ = concentration_window_prob(v, C0=c0, mode="sampled", trials=200, seed=seed)
            assert sampled == fraction_sampled_mass(v, inside, 200, seed)


def test_anticoncentration_window_matches_fraction_oracle():
    # The ball |<x,v> - a| < b * delta of the many-scales statement, with v
    # and a scaled to integers by _integer_form and the edges written out.
    checked = 0
    for v, a, seed in _oracle_vectors():
        try:
            part = scale_partition(v)
        except ValueError:
            continue
        ints, (target,), mult = _integer_form(v, a)
        for b in (2, Fraction(7, 3)):
            window_sq = Fraction(b) ** 2 * part.smallest_scale_sq

            def inside(s):
                return (s - a) ** 2 < window_sq

            scaled = window_sq * mult * mult
            edges = ball_edges(target, scaled.numerator, scaled.denominator)
            assert _window_mass(ints, edges, "exact", 0, 0, ENUMERATION_CAP, "") == fraction_exact_mass(v, inside)
            sampled = _window_mass(ints, edges, "sampled", 200, seed, ENUMERATION_CAP, "")
            assert sampled == fraction_sampled_mass(v, inside, 200, seed)
            checked += 1
    assert checked > 100


# The three window predicates, the exact loop and the sampling loop that the
# integer edges and the meet-in-the-middle mass replaced, kept verbatim as
# oracles (the predicates were closures over these arguments).
def old_atom_predicate(target):
    return lambda s: s == target


def old_ball_predicate(target, num, den):
    def in_window(s: int) -> bool:
        return (s - target) ** 2 * den < num

    return in_window


def ball_edges(target, num, den):
    """Edges of the window old_ball_predicate decides, for num, den >= 1."""
    # (s - target)^2 < num / den  <=>  (s - target)^2 <= (num - 1) // den.
    m = math.isqrt((num - 1) // den)
    return (target - m, target + m + 1)


def old_shell_predicate(total, qd, qn4, p_sq, r_sq):
    lo, hi = qn4 * r_sq, qn4 * p_sq

    def in_window(s: int) -> bool:
        z = (2 * s - total) ** 2 * qd
        return z * p_sq >= lo and z * r_sq <= hi

    return in_window


def old_exact_mass(ints, inside):
    dim = len(ints)
    counts = subset_sum_counts(ints)
    return Fraction(sum(compress(counts.values(), map(inside, counts))), 1 << dim)


def old_sampled_mass(ints, inside, trials, seed):
    dim = len(ints)
    draw = random.Random(seed).getrandbits
    ones = (1,) * dim
    hits = sum(1 for _ in range(trials) if inside(sum(compress(ints, map(draw, ones)))))
    return Fraction(hits, trials)


def _assert_edges_match(edges, inside, sums):
    assert all(a < b for a, b in zip(edges, edges[1:])) and len(edges) % 2 == 0
    for s in sums:
        assert bisect_right(edges, s) & 1 == inside(s), (edges, s)


def test_ball_edges_match_old_predicate():
    rng = random.Random(71)
    for _ in range(2000):
        target, den, m = rng.randint(-40, 40), rng.randint(1, 30), rng.randint(0, 12)
        # num = m^2 den puts target +- m exactly on the open boundary.
        num = max(1, m * m * den + rng.choice((-1, 0, 1, rng.randint(-30, 60))))
        _assert_edges_match(ball_edges(target, num, den), old_ball_predicate(target, num, den),
                            range(target - 16, target + 17))


def test_shell_edges_match_old_predicate():
    rng = random.Random(72)
    inner = outer = 0
    for _ in range(2000):
        total, qd, p, r = rng.randint(-41, 41), rng.randint(1, 9), rng.randint(1, 8), rng.randint(1, 8)
        j = rng.randint(1, 6)
        # qn4 = (j p)^2 qd puts |2s - T| = j r on the inner edge, qn4 = (j r)^2 qd
        # puts |2s - T| = j p on the outer one.  The window reads 4 D^2 q,
        # which is qn4 / qd: qd divides qn4.
        qn4 = rng.choice(((j * p) ** 2, (j * r) ** 2, rng.randint(1, 600))) * qd
        inside = old_shell_predicate(total, qd, qn4, p * p, r * r)
        reach = int(math.sqrt(qn4 * p * p / (qd * r * r))) // 2 + 4
        sums = range(total // 2 - reach, total // 2 + reach + 1)
        _assert_edges_match(_shell_edges(total, qn4 // qd, p * p, r * r), inside, sums)
        inner += any((2 * s - total) ** 2 * qd * p * p == qn4 * r * r for s in sums if inside(s))
        outer += any((2 * s - total) ** 2 * qd * r * r == qn4 * p * p for s in sums if inside(s))
    assert inner > 200 and outer > 200


def _mass_vectors():
    """Integer vectors of dimension 0, 1, odd and even with zero, negative and repeated entries."""
    rng = random.Random(74)
    for d in (0, 1, 2, 3, 4, 7, 8, 11, 12):
        for _ in range(12):
            pool = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [0]
            yield [rng.choice(pool) if rng.random() < 0.4 else rng.randint(-40, 40) for _ in range(d)]


def test_meet_in_the_middle_mass_matches_full_enumeration():
    rng = random.Random(75)
    for ints in _mass_vectors():
        total = sum(ints)
        lo_sum, hi_sum = sum(c for c in ints if c < 0), sum(c for c in ints if c > 0)
        target = rng.randint(lo_sum - 2, hi_sum + 2)
        qd, p, r = rng.randint(1, 5), rng.randint(5, 9), rng.randint(1, 2)
        windows = [
            ((target, target + 1), old_atom_predicate(target)),
            ((lo_sum, lo_sum + 1), old_atom_predicate(lo_sum)),
            ((hi_sum, hi_sum + 1), old_atom_predicate(hi_sum)),
        ]
        num, den = rng.randint(1, 900), rng.randint(1, 7)
        windows.append((ball_edges(target, num, den), old_ball_predicate(target, num, den)))
        qn4 = rng.randint(1, 4 * sum(c * c for c in ints) + 4)
        windows.append((_shell_edges(total, qn4, p * p, r * r), old_shell_predicate(total, qd, qn4 * qd, p * p, r * r)))
        edges = tuple(sorted(rng.sample(range(lo_sum - 5, hi_sum + 6), 2 * rng.randint(1, 3))))
        windows.append((edges, lambda s, edges=edges: bisect_right(edges, s) & 1 == 1))
        for edges, inside in windows:
            assert _window_mass(ints, edges, "exact", 0, 0, ENUMERATION_CAP, "") == old_exact_mass(ints, inside)


def test_sampled_mass_matches_old_loop_per_seed():
    rng = random.Random(76)
    for ints in _mass_vectors():
        target, seed = rng.randint(-20, 20), rng.randrange(10**6)
        total = sum(ints)
        for edges, inside in (
            ((target, target + 1), old_atom_predicate(target)),
            (ball_edges(target, 50, 3), old_ball_predicate(target, 50, 3)),
            (_shell_edges(total, 150, 49, 4), old_shell_predicate(total, 2, 300, 49, 4)),
        ):
            got = _window_mass(ints, edges, "sampled", 150, seed, ENUMERATION_CAP, "")
            assert got == old_sampled_mass(ints, inside, 150, seed)


# The sampling loop that the chunked getrandbits draws replaced, kept
# verbatim as an oracle: one getrandbits(1) per coordinate of every trial.
def per_coordinate_mass(ints, edges, trials, seed):
    dim = len(ints)
    draw = random.Random(seed).getrandbits
    ones = (1,) * dim
    hits = sum(bisect_right(edges, sum(compress(ints, map(draw, ones)))) & 1 for _ in range(trials))
    return Fraction(hits, trials)


@st.composite
def sampled_windows(draw):
    """(ints, edges, trials, seed): entries small or up to 10^30, dimension
    1..40 (so above one 32-bit word of draws) or next to the widest vector
    summed through byte tables, edges among the reachable sums, trial counts
    from 1 to past two getrandbits calls, and around 256 trials."""
    entries = st.integers(-9, 9) | st.integers(-10**30, 10**30)
    wide = st.sampled_from((_TABLE_DIM - 1, _TABLE_DIM, _TABLE_DIM + 1))
    ints = draw(st.lists(entries, min_size=1, max_size=40)
                | wide.flatmap(lambda d: st.lists(entries, min_size=d, max_size=d)))
    reach = sum(map(abs, ints)) + 1
    cuts = draw(st.lists(st.integers(-reach, reach), min_size=2, max_size=6, unique=True))
    edges = tuple(sorted(cuts)[: len(cuts) // 2 * 2])
    per_call = _CHUNK_DRAWS // len(ints) or 1
    trials = draw(st.integers(1, 40) | st.sampled_from((255, 256, 257, 515))
                  | st.sampled_from((per_call - 1 or 1, per_call, per_call + 1, 2 * per_call + 3)))
    return ints, edges, trials, draw(st.integers(0, 2**64))


@settings(max_examples=60, deadline=None)
@given(sampled_windows())
def test_chunked_sampled_mass_matches_per_coordinate_draws(case):
    ints, edges, trials, seed = case
    expected = per_coordinate_mass(ints, edges, trials, seed)
    # Compress at every dimension, the bound in use, and byte tables at every dimension.
    for table_dim in (0, _TABLE_DIM, 10**6):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(anticonc, "_TABLE_DIM", table_dim)
            assert _window_mass(ints, edges, "sampled", trials, seed, ENUMERATION_CAP, "") == expected, table_dim


def test_sampled_mass_sums_through_byte_tables_up_to_the_bound(monkeypatch):
    built, byte_tables = [], anticonc._byte_tables
    monkeypatch.setattr(anticonc, "_byte_tables", lambda ints: built.append(len(ints)) or byte_tables(ints))
    for dim in (1, _TABLE_DIM, _TABLE_DIM + 1):
        _window_mass([1] * dim, (0, 1), "sampled", 3, 0, ENUMERATION_CAP, "")
    assert built == [1, _TABLE_DIM]


def test_byte_tables_index_subset_sums_by_byte():
    ints = [3, -5, 10**30, 0, 7, 2, -1, 4, 9, 11, -6]
    tables = anticonc._byte_tables(ints)
    assert list(map(len, tables)) == [256, 256]
    for byte in range(256):
        assert tables[0][byte] == sum(c for k, c in enumerate(ints[:8]) if byte >> k & 1)
        # Bits 3..7 of the short last group's byte belong to the next trial.
        assert tables[1][byte] == sum(c for k, c in enumerate(ints[8:]) if byte >> k & 1)


@pytest.mark.parametrize("dim, trials", [(4096, 300), (50000, 10)])
def test_wide_sampled_mass_holds_one_call_of_draws_at_a_time(dim, trials):
    # A call draws 4 bytes per coordinate draw and holds a few copies of
    # them: at most _CHUNK_DRAWS draws, or one trial's if that is more.
    ints = [(-1) ** j * (j % 97 + 1) for j in range(dim)]
    tracemalloc.start()
    try:
        _window_mass(ints, (0, 1), "sampled", trials, 0, ENUMERATION_CAP, "")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * max(_CHUNK_DRAWS, dim)
