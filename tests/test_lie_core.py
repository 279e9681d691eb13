"""Group law and bracket against the independent tensor-algebra oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilwords.lie_core import (
    AlgebraVector,
    _WEIGHTS,
    _bracket,
    _product,
    abelianization_lower_bound,
    bracket,
    element_to_json,
    evaluate_word,
    inverse,
    multiply,
)
from nilwords.scalar import Mode, Scalar, _restored
from nilwords.words import parse_word

from truncated_tensor import oracle_bracket, oracle_evaluate, oracle_multiply

coordinate = st.fractions(
    min_value=Fraction(-12), max_value=Fraction(12), max_denominator=8
)
vectors = st.tuples(*([coordinate] * 5))


def vec(values):
    return AlgebraVector(*(Scalar.exact(Fraction(v)) for v in values))


def raw(v):
    return tuple(c.value for c in v.coords())


def fvec(values):
    return AlgebraVector(*(Scalar.of_float(v) for v in values))


def hexes(values):
    return tuple(v.hex() for v in values)


float_vectors = st.tuples(*([st.floats(min_value=-12, max_value=12)] * 5))

# Coordinates with denominators up to 8 become ints when scaled by
# (L, L, L^2, L^3, L^3) with L = 840 = lcm(1..8), as in the algebra suite.
SCALES = (840, 840, 840**2, 840**3, 840**3)


def scaled(values):
    return tuple(int(v * s) for v, s in zip(values, SCALES))


X = vec((1, 0, 0, 0, 0))
Y = vec((0, 1, 0, 0, 0))
E3 = vec((0, 0, 1, 0, 0))
ZERO = vec((0, 0, 0, 0, 0))


def generator_power(generator, t):
    """X^t or Y^t as an element."""
    return vec((t, 0, 0, 0, 0) if generator == "X" else (0, t, 0, 0, 0))


class TestBracket:
    def test_generators(self):
        assert raw(bracket(X, Y)) == (0, 0, 2, 0, 0)

    def test_x_with_degree_two_basis_vector(self):
        assert raw(bracket(X, E3)) == (0, 0, 0, 6, 0)

    def test_y_with_degree_two_basis_vector(self):
        assert raw(bracket(Y, E3)) == (0, 0, 0, 0, -6)

    @given(vectors)
    def test_antisymmetry_on_self(self, a):
        assert bracket(vec(a), vec(a)) == ZERO

    @given(vectors, vectors)
    def test_matches_tensor_oracle(self, a, b):
        assert raw(bracket(vec(a), vec(b))) == oracle_bracket(a, b)

    @given(vectors, vectors, vectors)
    def test_jacobi_identity(self, a, b, c):
        va, vb, vc = vec(a), vec(b), vec(c)
        terms = (bracket(va, bracket(vb, vc)), bracket(vb, bracket(vc, va)),
                 bracket(vc, bracket(va, vb)))
        assert [sum(c) for c in zip(*map(raw, terms))] == [0] * 5

    @given(vectors, vectors, vectors, vectors)
    def test_step_three_nilpotency(self, a, b, c, d):
        assert bracket(vec(a), bracket(vec(b), bracket(vec(c), vec(d)))) == ZERO


class TestMultiply:
    def test_generator_products(self):
        assert raw(multiply(X, Y)) == (1, 1, 1, 1, 1)
        assert raw(multiply(Y, X)) == (1, 1, -1, 1, 1)

    @given(vectors)
    def test_identity(self, a):
        assert multiply(ZERO, vec(a)) == vec(a)
        assert multiply(vec(a), ZERO) == vec(a)

    @given(vectors)
    def test_inverse_cancels(self, a):
        v = vec(a)
        assert multiply(v, inverse(v)) == ZERO
        assert multiply(inverse(v), v) == ZERO

    def test_inverse_examples(self):
        assert inverse(ZERO) == ZERO
        assert raw(inverse(X)) == (-1, 0, 0, 0, 0)
        g = vec((1, 1, 1, 1, 1))
        assert multiply(g, inverse(g)) == ZERO

    @given(vectors, vectors)
    def test_matches_tensor_oracle(self, a, b):
        assert raw(multiply(vec(a), vec(b))) == oracle_multiply(a, b)

    @given(vectors, vectors, vectors)
    @settings(max_examples=60)
    def test_associativity(self, a, b, c):
        va, vb, vc = vec(a), vec(b), vec(c)
        assert multiply(multiply(va, vb), vc) == multiply(va, multiply(vb, vc))

    @given(vectors, vectors)
    def test_abelianization_homomorphism(self, a, b):
        product = multiply(vec(a), vec(b))
        assert product.c1.value == a[0] + b[0]
        assert product.c2.value == a[1] + b[1]

    def test_float_mode_tracks_exact_mode(self):
        rnd = random.Random(11)
        for _ in range(200):
            a = tuple(Fraction(rnd.randint(-8, 8), rnd.randint(1, 8)) for _ in range(5))
            b = tuple(Fraction(rnd.randint(-8, 8), rnd.randint(1, 8)) for _ in range(5))
            fa = AlgebraVector(*(Scalar.of_float(float(q)) for q in a))
            fb = AlgebraVector(*(Scalar.of_float(float(q)) for q in b))
            got = multiply(fa, fb)
            want = oracle_multiply(a, b)
            for g, w in zip(got.coords(), want):
                assert g.value == pytest.approx(float(w), abs=1e-12)


class TestGeneratorPower:
    def test_unit_powers(self):
        assert evaluate_word(parse_word("X", Mode.EXACT)) == X
        assert evaluate_word(parse_word("Y^0", Mode.EXACT)) == ZERO

    def test_one_parameter_subgroup(self):
        half = generator_power("X", Fraction(1, 2))
        assert multiply(half, half) == X

    @given(coordinate, coordinate)
    def test_same_generator_powers_commute_and_add(self, s, t):
        gs, gt = generator_power("Y", s), generator_power("Y", t)
        assert multiply(gs, gt) == generator_power("Y", s + t)


class TestEvaluateWord:
    def test_seed_words(self):
        w = parse_word("X^1 Y^1", Mode.EXACT)
        assert raw(evaluate_word(w)) == (1, 1, 1, 1, 1)

    def test_empty_word(self):
        assert evaluate_word(parse_word("", Mode.EXACT)) == ZERO

    def test_half_conjugate(self):
        w = parse_word("X^1/2 Y^1 X^1/2", Mode.EXACT)
        assert raw(evaluate_word(w)) == (1, 1, 0, Fraction(-1, 2), 1)

    def test_random_words_match_tensor_oracle(self):
        rnd = random.Random(23)
        for _ in range(300):
            k = rnd.randint(0, 8)
            letters = [
                (rnd.choice("xy"), Fraction(rnd.randint(-8, 8), rnd.randint(1, 6)))
                for _ in range(k)
            ]
            text = " ".join(f"{s.upper()}^{e}" for s, e in letters)
            got = evaluate_word(parse_word(text, Mode.EXACT))
            assert raw(got) == oracle_evaluate(letters)


class TestAbelianizationBound:
    def test_examples(self):
        assert abelianization_lower_bound(vec((1, 1, 0, 0, 0))).value == 2
        assert abelianization_lower_bound(ZERO).value == 0
        assert abelianization_lower_bound(vec((-3, 2, 5, 0, 0))).value == 5

    @given(vectors)
    def test_invariant_under_inverse(self, a):
        v = vec(a)
        assert abelianization_lower_bound(v) == abelianization_lower_bound(inverse(v))


def from_json(data):
    return AlgebraVector(*(Scalar.parse(item, Mode.EXACT) for item in data))


class TestSerialization:
    def test_basis_round_trip(self):
        for i in range(5):
            v = vec([1 if j == i else 0 for j in range(5)])
            assert from_json(element_to_json(v)) == v

    @given(vectors)
    def test_random_round_trip(self, a):
        v = vec(a)
        assert from_json(element_to_json(v)) == v


class TestOneLawTwoDoors:
    """`multiply` and `bracket` are the raw laws on their inputs' values, bit
    for bit; exact inputs also give the same element through the scaled
    integers the algebra suite runs the laws on."""

    @given(vectors, vectors)
    def test_exact_scaled_integers(self, a, b):
        assert raw(multiply(vec(a), vec(b))) == _restored(
            Mode.EXACT, 840, _product(scaled(a), scaled(b)), _WEIGHTS
        )
        assert raw(bracket(vec(a), vec(b))) == _restored(
            Mode.EXACT, 840, _bracket(scaled(a), scaled(b)), _WEIGHTS
        )

    @given(float_vectors, float_vectors)
    def test_float_bits(self, a, b):
        assert hexes(raw(multiply(fvec(a), fvec(b)))) == hexes(_product(a, b))
        assert hexes(raw(bracket(fvec(a), fvec(b)))) == (
            (0.0).hex(), (0.0).hex(), *hexes(_bracket(a, b)[2:])
        )
