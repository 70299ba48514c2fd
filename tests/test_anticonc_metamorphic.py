"""Metamorphic relations of the exact anti-concentration probabilities.

Each test maps a random vector (and target) to another whose atom or window
probability is known to be the same, and checks that the exact computation
agrees.  The vectors have zero, negative and repeated entries, and their
dimensions cover 0, 1, odd and even.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cubecover import atom_probability, concentration_window_prob

entries = st.fractions(min_value=-4, max_value=4, max_denominator=4)
vectors = st.lists(st.one_of(entries, st.just(Fraction(0)), st.sampled_from([Fraction(1), Fraction(-3, 2)])),
                   max_size=11)


@st.composite
def vector_and_target(draw):
    """A vector and, half the time, one of its subset sums as the target."""
    v = draw(vectors)
    if draw(st.booleans()):
        a = sum((c for c, b in zip(v, draw(st.lists(st.booleans(), min_size=len(v), max_size=len(v)))) if b),
                Fraction(0))
    else:
        a = draw(entries)
    return v, a


@st.composite
def nonzero_vectors(draw):
    v = draw(vectors.filter(len))
    if not any(v):
        v[draw(st.integers(0, len(v) - 1))] = Fraction(1)
    return v


@settings(max_examples=80, deadline=None)
@given(vector_and_target(), st.randoms(use_true_random=False))
def test_atom_probability_is_invariant_under_permutation(va, rnd):
    v, a = va
    w = list(v)
    rnd.shuffle(w)
    assert atom_probability(w, a) == atom_probability(v, a)


@settings(max_examples=80, deadline=None)
@given(vector_and_target())
def test_atom_probability_is_invariant_under_negation(va):
    v, a = va
    assert atom_probability([-c for c in v], -a) == atom_probability(v, a)


@settings(max_examples=80, deadline=None)
@given(vector_and_target())
def test_atom_probability_is_invariant_under_complement(va):
    # x -> 1 - x maps <x, v> = a onto <x, v> = sum(v) - a.
    v, a = va
    assert atom_probability(v, sum(v, Fraction(0)) - a) == atom_probability(v, a)


@settings(max_examples=80, deadline=None)
@given(vector_and_target())
def test_atom_probability_ignores_an_appended_zero(va):
    v, a = va
    assert atom_probability([*v, Fraction(0)], a) == atom_probability(v, a)


@settings(max_examples=80, deadline=None)
@given(vector_and_target(), st.builds(Fraction, st.integers(1, 50), st.integers(1, 30)))
def test_atom_probability_is_invariant_under_positive_scaling(va, scale):
    v, a = va
    assert atom_probability([scale * c for c in v], scale * a) == atom_probability(v, a)


@settings(max_examples=60, deadline=None)
@given(nonzero_vectors(), st.randoms(use_true_random=False), st.sampled_from([None, Fraction(37, 7), Fraction(6)]))
def test_window_probability_is_invariant_under_permutation(v, rnd, c0):
    w = list(v)
    rnd.shuffle(w)
    assert concentration_window_prob(w, C0=c0) == concentration_window_prob(v, C0=c0)


@settings(max_examples=60, deadline=None)
@given(nonzero_vectors(), st.sampled_from([None, Fraction(37, 7), Fraction(6)]))
def test_window_probability_is_invariant_under_negation(v, c0):
    assert concentration_window_prob([-c for c in v], C0=c0) == concentration_window_prob(v, C0=c0)
