import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cubecover.plank as plank_module
from cubecover import (
    PlankPreconditionError,
    SampleCapError,
    bang_signs,
    check_small_norm_precondition,
    cleared_block,
    find_uncovered_small_norm,
)
from cubecover.core import Vertex
from cubecover.plank import SmallNormCheck


def bang_holds(M, zeta, theta, signs, tol):
    M = np.asarray(M, dtype=float)
    u = np.asarray(theta, dtype=float) * np.asarray(signs, dtype=float)
    lhs = np.abs(M @ u - np.asarray(zeta, dtype=float))
    rhs = np.diag(M) * np.asarray(theta, dtype=float) - tol
    return bool(np.all(lhs >= rhs))


def exists_by_brute_force(M, zeta, theta):
    k = len(M)
    M = np.asarray(M, dtype=float)
    for mask in range(1 << k):
        signs = [1 if (mask >> t) & 1 else -1 for t in range(k)]
        if bang_holds(M, zeta, theta, signs, 1e-12):
            return True
    return False


def objective(M, zeta, theta, signs):
    M = np.asarray(M, dtype=float)
    u = np.asarray(theta, dtype=float) * np.asarray(signs, dtype=float)
    return float(u @ M @ u - 2 * u @ np.asarray(zeta, dtype=float))


def random_instance(rng, k=8):
    A = np.array([[rng.uniform(-1, 1) for _ in range(k)] for _ in range(k)])
    M = (A + A.T) / 2
    np.fill_diagonal(M, np.abs(np.diag(M)))
    zeta = [rng.uniform(-2, 2) for _ in range(k)]
    theta = [rng.uniform(0, 2) for _ in range(k)]
    return M.tolist(), zeta, theta


def test_identity_case():
    sv = bang_signs([[1, 0], [0, 1]], [0, 0], [1, 1], seed=0)
    assert bang_holds([[1, 0], [0, 1]], [0, 0], [1, 1], sv.signs, 1e-12)


def test_coupled_case_aligned_signs():
    M = [[1, 0.5], [0.5, 1]]
    sv = bang_signs(M, [0, 0], [1, 1], seed=3)
    # Brute force over the 4 sign vectors: the objective 2 + eps1*eps2 is
    # maximized at equal signs, giving |(M eps)_t| = 3/2 >= 1.
    assert sv.signs in ((1, 1), (-1, -1))
    assert bang_holds(M, [0, 0], [1, 1], sv.signs, 1e-12)


def test_far_targets():
    sv = bang_signs([[1, 0], [0, 1]], [10, 10], [1, 1], seed=1)
    assert bang_holds([[1, 0], [0, 1]], [10, 10], [1, 1], sv.signs, 1e-12)


def test_input_validation():
    with pytest.raises(ValueError, match="asymmetric"):
        bang_signs([[1, 1], [0, 1]], [0, 0], [1, 1])
    with pytest.raises(ValueError, match="negative diagonal"):
        bang_signs([[-1, 0], [0, 1]], [0, 0], [1, 1])
    with pytest.raises(ValueError, match="nonnegative"):
        bang_signs([[1, 0], [0, 1]], [0, 0], [-1, 1])


def test_bang_inequality_and_flip_optimality_random():
    rng = random.Random(42)
    for trial in range(150):
        M, zeta, theta = random_instance(rng)
        sv = bang_signs(M, zeta, theta, seed=trial)
        tol = 1e-9 * (1 + max(abs(c) for row in M for c in row))
        assert bang_holds(M, zeta, theta, sv.signs, tol)
        assert exists_by_brute_force(M, zeta, theta)
        # Single-flip optimality of the returned signs.
        base = objective(M, zeta, theta, sv.signs)
        for t in range(len(sv.signs)):
            flipped = list(sv.signs)
            flipped[t] = -flipped[t]
            assert objective(M, zeta, theta, flipped) <= base + 1e-7


def test_flip_count_reported_and_finite():
    rng = random.Random(5)
    M, zeta, theta = random_instance(rng)
    sv = bang_signs(M, zeta, theta, seed=9)
    assert 0 <= sv.flips <= 10_000


def test_small_norm_check_disjoint_supports():
    rows = []
    for i in range(4):
        coeffs = [Fraction(0)] * 64
        for j in range(16 * i, 16 * i + 16):
            coeffs[j] = Fraction(1, 4)
        rows.append(coeffs)
    check = check_small_norm_precondition(cleared_block(rows))
    assert check.alpha == 1
    assert check.beta == Fraction(1, 16)
    assert check.lhs == pytest.approx(2 * (1 / 16) * math.log(16))
    assert check.ok


def test_small_norm_check_single_row():
    check = check_small_norm_precondition(cleared_block([[Fraction(1, 2)] * 4]))
    assert (check.alpha, check.beta) == (1, Fraction(1, 4))
    assert check.lhs == pytest.approx(0.5 * math.log(4))
    assert check.ok


def test_small_norm_check_identical_rows():
    e1 = [1, 0, 0]
    check = check_small_norm_precondition(cleared_block([e1, e1]))
    assert (check.alpha, check.beta) == (2, Fraction(2))
    assert check.lhs == pytest.approx(8 * math.log(8))
    assert not check.ok


def test_small_norm_check_zero_row():
    with pytest.raises(ValueError):
        check_small_norm_precondition(cleared_block([[0, 0]]))


def test_find_uncovered_unreachable_target():
    block = cleared_block([[Fraction(1, 2)] * 4])
    vertex, attempts = find_uncovered_small_norm(block, [Fraction(10)], seed=0)
    assert attempts == 1  # no vertex can reach 10, the first sample works
    assert len(vertex) == 4


def test_find_uncovered_disjoint_instance():
    rows, targets = [], []
    for i in range(4):
        coeffs = [Fraction(0)] * 64
        for j in range(16 * i, 16 * i + 16):
            coeffs[j] = Fraction(1, 4)
        rows.append(coeffs)
        targets.append(Fraction(2))  # the center value 8 * (1/4) / sqrt(16)... as <coeffs, x>
    vertex, attempts = find_uncovered_small_norm(cleared_block(rows), targets, seed=11)
    assert attempts <= 20
    for r, t in zip(rows, targets):
        dot = sum((c for c, b in zip(r, vertex.bits) if b), Fraction(0))
        assert dot != t


def test_find_uncovered_precondition_failure():
    e1 = [1, 0, 0]
    with pytest.raises(PlankPreconditionError, match="> 1"):
        find_uncovered_small_norm(cleared_block([e1, e1]), [Fraction(0), Fraction(0)])


def test_find_uncovered_deterministic():
    block = cleared_block([[1, 1, 1, 1]])
    a = find_uncovered_small_norm(block, [Fraction(2)], seed=21)
    b = find_uncovered_small_norm(block, [Fraction(2)], seed=21)
    assert a == b


def test_y_prime_infinity_bound():
    # On precondition-passing inputs, ||theta V^T eps||_inf <= theta*sqrt(alpha*beta) <= 1.
    rng = random.Random(77)
    for _ in range(20):
        m = 32
        used = list(range(m))
        rng.shuffle(used)
        rows = []
        for i in range(2):
            coeffs = [Fraction(0)] * m
            for j in used[16 * i : 16 * i + 16]:
                coeffs[j] = Fraction(rng.choice([-1, 1]), 4)
            rows.append(coeffs)
        check = check_small_norm_precondition(cleared_block(rows))
        assert check.ok
        theta = math.sqrt(2 * math.log(4 * len(rows)))
        assert theta * math.sqrt(check.alpha * float(check.beta)) <= 1 + 1e-9
        # The finder itself raises if the bound were violated.
        find_uncovered_small_norm(cleared_block(rows), [Fraction(1), Fraction(1)], seed=rng.randint(0, 9999))


def test_rounding_soundness_reverification():
    rng = random.Random(13)
    for trial in range(10):
        m = 24
        rows = []
        targets = []
        for i in range(2):
            coeffs = [Fraction(0)] * m
            for j in range(12 * i, 12 * i + 12):
                coeffs[j] = Fraction(rng.choice([-1, 1]), rng.choice([4, 5]))
            rows.append(coeffs)
            targets.append(Fraction(rng.randint(-2, 2)))
        block = cleared_block(rows)
        if not check_small_norm_precondition(block).ok:
            continue
        vertex, _ = find_uncovered_small_norm(block, targets, seed=trial)
        for r, t in zip(rows, targets):
            dot = sum((c for c, b in zip(r, vertex.bits) if b), Fraction(0))
            assert dot != t


# The all-Fraction precondition and the dense Gram build, kept as oracles for
# the cleared-integer precondition and the sparse finder.  Each reads the
# rational rows and works out every row's own squared norm.


def _norm_sq(row):
    return sum((c * c for c in row), Fraction(0))


def _fraction_precondition(rows):
    ell = len(rows)
    if ell == 0:
        return SmallNormCheck(alpha=0, beta=Fraction(0), ell=0, lhs=0.0, ok=True)
    m = len(rows[0])
    supp = [0] * m
    col_sq = [Fraction(0)] * m
    for r in rows:
        if len(r) != m:
            raise ValueError("rows have inconsistent lengths")
        nonzero = [(j, c) for j, c in enumerate(r) if c != 0]
        if not nonzero:
            raise ValueError("zero row")
        for j, c in nonzero:
            supp[j] += 1
            col_sq[j] += c * c / _norm_sq(r)
    alpha = max(supp)
    beta = max(col_sq)
    lhs = 2.0 * alpha * float(beta) * math.log(4.0 * ell)
    return SmallNormCheck(alpha=alpha, beta=beta, ell=ell, lhs=lhs, ok=lhs <= 1.0)


def _dense_find_uncovered(rows, targets, trials, seed):
    """The finder before the sparse Gram build; also returns the sign search's
    arguments and result."""
    ell = len(rows)
    m = len(rows[0])
    vf = []
    for r in rows:
        root = math.sqrt(float(_norm_sq(r)))
        vf.append([float(c) / root if c else 0.0 for c in r])
    mu_f = [float(t) / math.sqrt(float(_norm_sq(r))) for t, r in zip(targets, rows)]
    theta = math.sqrt(2.0 * math.log(4.0 * ell))
    zeta = [2.0 * mu_f[i] - sum(vf[i]) for i in range(ell)]
    gram = [
        [sum(vf[i][j] * vf[i2][j] for j in range(m)) for i2 in range(ell)]
        for i in range(ell)
    ]
    rng = random.Random(seed)
    sv = bang_signs(gram, zeta, [theta] * ell, seed=rng.getrandbits(63))
    y_prime = [
        theta * sum(vf[i][j] * sv.signs[i] for i in range(ell)) for j in range(m)
    ]
    y = [min(1.0, max(0.0, (c + 1.0) / 2.0)) for c in y_prime]
    for attempt in range(1, trials + 1):
        w = [1 if rng.random() < y_j else 0 for y_j in y]
        ok = True
        for i in range(ell):
            dot = sum((rows[i][j] for j in range(m) if w[j]), Fraction(0))
            if dot == targets[i]:
                ok = False
                break
        if ok:
            return (Vertex(tuple(w)), attempt), (gram, zeta), sv
    raise SampleCapError("cap", trials)


MIXED = (Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7), Fraction(-1), Fraction(5, 2))


def _random_block(rng, ell, m, density, shared=(), zero=()):
    """ell rows over m columns: random supports, the ``shared`` columns in every
    row, the ``zero`` columns in none."""
    rows = []
    for _ in range(ell):
        coeffs = [Fraction(0)] * m
        for j in range(m):
            if j not in zero and (j in shared or rng.random() < density):
                coeffs[j] = rng.choice(MIXED)
        if not any(coeffs):
            coeffs[next(j for j in range(m) if j not in zero)] = Fraction(2, 5)
        rows.append(coeffs)
    return rows


def test_precondition_equals_fraction_oracle():
    rng = random.Random(2024)
    blocks = [[], [[Fraction(2, 5), 0, Fraction(-1, 3)]]]
    for trial in range(60):
        ell, m = rng.randint(1, 7), rng.randint(1, 40)
        shared = {rng.randrange(m)} if trial % 2 else set()
        zero = {j for j in range(1, m) if j not in shared and rng.random() < 0.2}
        blocks.append(_random_block(rng, ell, m, rng.choice((0.1, 0.4, 0.9)), shared, zero))
    for rows in blocks:
        assert check_small_norm_precondition(cleared_block(rows)) == _fraction_precondition(rows)
    assert any(_fraction_precondition(rows).ok for rows in blocks)
    assert any(not _fraction_precondition(rows).ok for rows in blocks)


def test_precondition_errors_match_fraction_oracle():
    for rows in ([[1, 2], [1, 2, 3]], [[1, 0], [0, 0]]):
        with pytest.raises(ValueError) as new:
            check_small_norm_precondition(cleared_block(rows))
        with pytest.raises(ValueError) as old:
            _fraction_precondition(rows)
        assert str(new.value) == str(old.value)


# The precondition reads every row as a unit vector: scaling a row by a
# positive rational, or permuting the block's columns, leaves its record as
# it is.
_entries = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3, 7)))
_factors = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))


@st.composite
def _blocks(draw):
    """1-6 nonzero rational rows over 1-12 columns, sparse or dense."""
    ell, m = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    rows = []
    for _ in range(ell):
        row = draw(st.lists(_entries, min_size=m, max_size=m))
        if not any(row):
            row[draw(st.integers(0, m - 1))] = draw(_factors)
        rows.append(row)
    return rows


@settings(max_examples=200, deadline=None)
@given(_blocks(), st.data())
def test_precondition_is_invariant_under_positive_row_scaling(rows, data):
    factors = data.draw(st.lists(_factors, min_size=len(rows), max_size=len(rows)))
    scaled = [[f * c for c in row] for f, row in zip(factors, rows)]
    assert check_small_norm_precondition(cleared_block(scaled)) == check_small_norm_precondition(cleared_block(rows))


@settings(max_examples=200, deadline=None)
@given(_blocks(), st.data())
def test_precondition_is_invariant_under_column_permutation(rows, data):
    order = data.draw(st.permutations(range(len(rows[0]))))
    permuted = [[row[j] for j in order] for row in rows]
    assert check_small_norm_precondition(cleared_block(permuted)) == check_small_norm_precondition(cleared_block(rows))


def _plank_block(rng, ell, s, shared):
    """Consecutive rows share ``shared`` columns; the precondition usually holds."""
    step = s - shared
    m = ell * step + shared
    rows = []
    for i in range(ell):
        coeffs = [Fraction(0)] * m
        for j in range(i * step, i * step + s):
            coeffs[j] = rng.choice(MIXED[:3])
        rows.append(coeffs)
    return rows


def test_sparse_finder_equals_dense_oracle(monkeypatch):
    calls = []
    original = plank_module.bang_signs

    def recording(M, zeta, theta, **kwargs):
        calls.append((M, zeta))
        sv = original(M, zeta, theta, **kwargs)
        calls.append(sv)
        return sv

    monkeypatch.setattr(plank_module, "bang_signs", recording)
    rng = random.Random(31)
    trials = 200
    compared = 0
    for trial in range(40):
        rows = _plank_block(rng, rng.randint(1, 6), rng.randint(8, 40), rng.choice((0, 0, 2, 4)))
        if not _fraction_precondition(rows).ok:
            continue
        targets = []
        for r in rows:
            half = sum(r, Fraction(0)) / 2
            targets.append(rng.choice((half, Fraction(rng.randint(-2, 2)), half + Fraction(1, 3), 1)))
        seed = rng.randrange(1 << 20)
        try:
            expected, (gram, zeta), sv = _dense_find_uncovered(rows, targets, trials, seed)
        except SampleCapError:
            with pytest.raises(SampleCapError):
                find_uncovered_small_norm(cleared_block(rows), targets, trials, seed=seed)
            continue
        calls.clear()
        assert find_uncovered_small_norm(cleared_block(rows), targets, trials, seed=seed) == expected
        (new_gram, new_zeta), new_sv = calls
        assert [[float(c).hex() for c in r] for r in new_gram] == [[float(c).hex() for c in r] for r in gram]
        assert [z.hex() for z in new_zeta] == [z.hex() for z in zeta]
        assert (new_sv.signs, new_sv.flips, new_sv.objective) == (sv.signs, sv.flips, sv.objective)
        compared += 1
    assert compared >= 20


def test_float_targets_are_rejected():
    # A target is exact and on the scale of the coefficients: a float is
    # refused, even one whose binary value is exact.
    block = cleared_block([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match=r"^targets\[1\] = 0\.5 is not rational"):
        find_uncovered_small_norm(block, [Fraction(1, 2), 0.5])
    with pytest.raises(ValueError, match=r"^targets\[0\] = 0\.0 is not rational"):
        find_uncovered_small_norm(block, [0.0, 1])


@pytest.mark.parametrize("sign", (1, -1))
def test_target_beyond_float_range_is_the_limit_of_large_targets(sign):
    # float(10**400) overflows.  Such a target enters the sign search as the
    # infinity of its sign, which gives the vertex of a target as large as a
    # float holds; the rounding still checks every target exactly.
    rng = random.Random(41)
    compared = 0
    for trial in range(30):
        rows = _plank_block(rng, rng.randint(1, 6), rng.randint(8, 40), rng.choice((0, 0, 2, 4)))
        if not _fraction_precondition(rows).ok:
            continue
        targets = [sum(r, Fraction(0)) / 2 for r in rows]
        i, seed = rng.randrange(len(rows)), rng.randrange(1 << 20)
        vertices = []
        for magnitude in (10**300, 10**400):
            targets[i] = sign * magnitude
            vertex, _ = find_uncovered_small_norm(cleared_block(rows), targets, seed=seed)
            for r, t in zip(rows, targets):
                assert sum(c for c, b in zip(r, vertex) if b) != t
            vertices.append(vertex)
        assert vertices[0] == vertices[1]
        compared += 1
    assert compared >= 15


def test_float_sums_round_left_to_right_on_every_version():
    # sum() compensates float rounding from Python 3.12 on (it gives 1.0
    # here); the plank stage keeps the plain left-to-right sum, 0.0, so that
    # its sign search and rounding draws repeat on every supported version.
    from cubecover.plank import _float_sum

    assert _float_sum([1e16, 1.0, -1e16]) == 0.0
    assert _float_sum(x for x in [0.1] * 10) == 0.1 + 0.1 + 0.1 + 0.1 + 0.1 + 0.1 + 0.1 + 0.1 + 0.1 + 0.1
    assert _float_sum([]) == 0 and type(_float_sum([])) is int
