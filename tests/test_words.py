"""Word grammar, length bookkeeping, Sigma constraints, rewriting maps."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nilwords.lie_core import evaluate_word
from nilwords.scalar import Mode, ModeMismatchError, Scalar
from nilwords.words import (
    _check_sigma,
    _word_map_a,
    _word_map_b,
    SUM_TOLERANCE,
    Generator,
    Letter,
    RWord,
    SigmaValidationError,
    SigmaWord,
    WordParseError,
    balanced_word,
    coarse_length,
    format_word,
    length,
    normalize,
    parse_word,
    sigma_coarse_length,
    sigma_to_rword,
    validate_sigma,
    word_map_a,
    word_map_b,
    word_to_json,
)

exponents = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=12
)
random_words = st.lists(
    st.tuples(st.sampled_from("XY"), exponents), max_size=12
).map(
    lambda pairs: RWord(
        tuple(Letter(Generator(g), Scalar.exact(e)) for g, e in pairs), Mode.EXACT
    )
)


def ex(text):
    return parse_word(text, Mode.EXACT)


def blocks(w):
    return tuple(tuple(part.value for part in block) for block in w.blocks)


class TestParseAndFormat:
    def test_grammar_examples(self):
        w = ex("X^1/2 Y^1 X^1/2")
        assert [l.generator.value for l in w.letters] == ["X", "Y", "X"]
        assert [l.exponent.value for l in w.letters] == [
            Fraction(1, 2),
            1,
            Fraction(1, 2),
        ]

    def test_bare_letter_means_exponent_one(self):
        assert ex("X Y") == ex("X^1 Y^1")

    def test_empty_text(self):
        assert ex("").letters == ()

    def test_float_mode_decimal(self):
        w = parse_word("X^0.25 Y^-1.5", Mode.FLOAT)
        assert [l.exponent.value for l in w.letters] == [0.25, -1.5]

    def test_bad_tokens_raise(self):
        for text in ("Z^1", "X^", "X^1/0", "X^a", "x^1"):
            with pytest.raises(WordParseError):
                ex(text)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_zero_denominator_is_a_parse_error(self, mode):
        with pytest.raises(WordParseError, match="zero denominator"):
            parse_word("X^1 Y^1/0", mode)

    def test_format_round_trip_exact(self):
        text = "X^1/2 Y^-3 X^7/5"
        assert format_word(ex(text)) == text

    def test_format_drops_integral_float_suffix(self):
        w = parse_word("Y^1.0 X^0.5", Mode.FLOAT)
        assert format_word(w) == "Y^1 X^0.5"

    @given(random_words)
    def test_text_round_trip(self, w):
        assert ex(format_word(w)) == w

    @given(random_words)
    def test_json_round_trip(self, w):
        assert ex(" ".join(f"{g}^{e}" for g, e in word_to_json(w))) == w


class TestLengths:
    def test_examples(self):
        w = ex("X^1/2 Y^1 X^1/2")
        assert length(w).value == 2
        assert coarse_length(w) == 3

    def test_negative_exponents_count_absolutely(self):
        assert length(ex("X^-2 Y^1/3")).value == Fraction(7, 3)

    @given(random_words)
    def test_coarse_length_is_letter_count(self, w):
        assert coarse_length(w) == len(w.letters)


class TestEmptyWords:
    """An empty word has no exponent to take its mode from, so it is given
    one, and every result keeps it."""

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("text", ["", "X^0 Y^0", "X^1 X^-1"])
    def test_normalized_to_empty_keeps_the_mode(self, mode, text):
        # Scalar equality compares the modes too.
        w = normalize(parse_word(text, mode))
        zero = Scalar.zero(mode)
        assert w.letters == () and w.mode is mode
        assert length(w) == zero
        assert evaluate_word(w).coords() == (zero,) * 5

    def test_empty_word_needs_a_mode(self):
        with pytest.raises(ValueError, match="empty word must be given a mode"):
            RWord(())
        assert RWord((), Mode.EXACT).mode is Mode.EXACT

    def test_mode_is_the_exponents_mode(self):
        x_exact = Letter(Generator.X, Scalar.exact(1))
        y_float = Letter(Generator.Y, Scalar.of_float(1.0))
        assert RWord((x_exact,)).mode is Mode.EXACT
        for letters, mode in (((x_exact,), Mode.FLOAT), ((x_exact, y_float), None)):
            with pytest.raises(ModeMismatchError):
                RWord(letters, mode)


class TestNormalize:
    def test_merges_runs(self):
        assert normalize(ex("X^1 X^1 Y^2")) == ex("X^2 Y^2")

    def test_drops_zeros_and_cascades(self):
        assert normalize(ex("X^1 Y^0 X^1")) == ex("X^2")

    def test_cancellation_to_empty(self):
        assert normalize(ex("X^1 X^-1")) == ex("")

    @given(random_words)
    def test_idempotent(self, w):
        assert normalize(normalize(w)) == normalize(w)

    @given(random_words)
    def test_preserves_evaluation(self, w):
        assert evaluate_word(normalize(w)) == evaluate_word(w)

    @given(random_words)
    def test_never_increases_coarse_length(self, w):
        assert coarse_length(normalize(w)) <= coarse_length(w)

    @given(random_words)
    def test_no_zero_letters_or_adjacent_runs_remain(self, w):
        n = normalize(w)
        assert all(l.exponent != 0 for l in n.letters)
        assert all(
            a.generator is not b.generator
            for a, b in zip(n.letters, n.letters[1:])
        )


class TestSigmaWord:
    def test_validate_seed(self):
        assert blocks(validate_sigma(ex("X^1 Y^1"))) == ((1, 1),)

    def test_validate_inserts_zero_blocks(self):
        w = validate_sigma(ex("Y^1/2 X^1 Y^1/2"))
        assert blocks(w) == ((0, Fraction(1, 2)), (1, Fraction(1, 2)))

    def test_validate_trailing_x_run(self):
        w = validate_sigma(ex("X^1/2 Y^1 X^1/2"))
        assert blocks(w) == ((Fraction(1, 2), 1), (Fraction(1, 2), 0))

    def test_validate_merges_runs(self):
        w = validate_sigma(ex("X^1/2 X^1/2 Y^1"))
        assert blocks(w) == ((1, 1),)

    def test_wrong_mass_rejected(self):
        with pytest.raises(SigmaValidationError):
            validate_sigma(ex("X^2 Y^1"))

    def test_negative_exponent_rejected(self):
        with pytest.raises(SigmaValidationError):
            validate_sigma(ex("X^2 X^-1 Y^1"))

    def test_empty_word_rejected(self):
        with pytest.raises(SigmaValidationError):
            validate_sigma(ex(""))

    def test_constructor_checks_sums(self):
        one = Scalar.exact(1)
        half = Scalar.exact(1, 2)
        with pytest.raises(SigmaValidationError):
            SigmaWord(((one, half),))

    def test_constructor_checks_sign(self):
        two = Scalar.exact(2)
        neg = Scalar.exact(-1)
        one = Scalar.exact(1)
        zero = Scalar.zero(Mode.EXACT)
        with pytest.raises(SigmaValidationError):
            SigmaWord(((two, one), (neg, zero)))

    def test_nan_exponent_rejected(self):
        nan = Scalar.of_float(math.nan)
        one = Scalar.of_float(1.0)
        for blocks_ in (((nan, one),), ((one, nan),), ((one, one), (nan, nan))):
            with pytest.raises(SigmaValidationError):
                SigmaWord(blocks_)
        with pytest.raises(SigmaValidationError):
            validate_sigma(RWord((Letter(Generator.X, nan), Letter(Generator.Y, one))))

    def test_float_mass_within_tolerance(self):
        third = Scalar.of_float(1 / 3)
        SigmaWord(((third, third),) * 3)
        with pytest.raises(SigmaValidationError):
            SigmaWord(((Scalar.of_float(1.0 + 1e-9), Scalar.of_float(1.0)),))

    def test_zero_blocks_are_legal(self):
        w = SigmaWord(
            (
                (Scalar.zero(Mode.EXACT), Scalar.exact(1)),
                (Scalar.exact(1), Scalar.zero(Mode.EXACT)),
            )
        )
        assert length(sigma_to_rword(w)).value == 2
        assert sigma_coarse_length(w) == 2

    def test_lengths(self):
        w = balanced_word(3)
        assert length(sigma_to_rword(w)).value == 2
        assert sigma_coarse_length(w) == 6

    def test_coarse_length_skips_degenerate_blocks(self):
        w = validate_sigma(ex("X^1/2 Y^1 X^1/2"))
        degenerate = word_map_b(w, Scalar.exact(1))
        assert blocks(degenerate)[0][1] == 0
        # dropping Y^0 lets the two X^{1/2} runs merge: X^1 Y^1
        assert sigma_coarse_length(degenerate) == 2


class TestRewritingMaps:
    def test_map_a_example(self):
        seed = validate_sigma(ex("X^1 Y^1"))
        image = word_map_a(seed, Scalar.exact(1, 2))
        assert blocks(image) == ((Fraction(1, 2), 1), (Fraction(1, 2), 0))

    def test_map_b_fixes_xy_seed(self):
        # the rescaled tail Y^{1/2} and the appended Y^{1/2} fuse back to Y
        seed = validate_sigma(ex("X^1 Y^1"))
        image = word_map_b(seed, Scalar.exact(1, 2))
        assert blocks(image) == ((1, 1),)

    def test_map_b_example(self):
        seed = validate_sigma(ex("Y^1 X^1"))
        image = word_map_b(seed, Scalar.exact(1, 2))
        assert blocks(image) == (
            (0, Fraction(1, 2)),
            (1, Fraction(1, 2)),
        )
        assert normalize(sigma_to_rword(image)) == ex("Y^1/2 X^1 Y^1/2")

    def test_parameter_zero_changes_nothing_essential(self):
        seed = validate_sigma(ex("X^1 Y^1"))
        zero = Scalar.zero(Mode.EXACT)
        assert normalize(sigma_to_rword(word_map_a(seed, zero))) == ex("X^1 Y^1")
        assert word_map_b(seed, zero) == seed

    def test_parameter_one_degenerates(self):
        seed = validate_sigma(ex("X^1 Y^1"))
        assert blocks(word_map_a(seed, Scalar.exact(1))) == ((0, 1), (1, 0))
        assert blocks(word_map_b(seed, Scalar.exact(1))) == ((1, 1),)

    def test_parameter_out_of_range(self):
        seed = validate_sigma(ex("X^1 Y^1"))
        for bad in (Scalar.exact(-1, 2), Scalar.exact(3, 2), Scalar.of_float(math.nan)):
            with pytest.raises(ValueError):
                word_map_a(seed, bad)
            with pytest.raises(ValueError):
                word_map_b(seed, bad)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=9),
            ),
            min_size=1,
            max_size=6,
        ).filter(lambda bs: sum(s for s, _ in bs) and sum(t for _, t in bs)),
        st.fractions(min_value=0, max_value=1, max_denominator=16),
    )
    def test_maps_preserve_sigma_constraints(self, raw_blocks, t):
        x_total = sum(s for s, _ in raw_blocks)
        y_total = sum(t_ for _, t_ in raw_blocks)
        w = SigmaWord(
            tuple(
                (Scalar.exact(s, x_total), Scalar.exact(t_, y_total))
                for s, t_ in raw_blocks
            )
        )
        p = Scalar.exact(t)
        # constructors re-run the unit-mass checks, so surviving is the test
        a_image = word_map_a(w, p)
        b_image = word_map_b(w, p)
        assert len(a_image.blocks) == len(w.blocks) + 1
        assert len(b_image.blocks) == len(w.blocks)


class TestBalancedWord:
    def test_small_cases(self):
        assert blocks(balanced_word(1)) == ((1, 1),)
        assert blocks(balanced_word(2)) == (
            (Fraction(1, 2), Fraction(1, 2)),
        ) * 2

    def test_recursion(self):
        for n in range(2, 9):
            step = Scalar.exact(1, n)
            built = word_map_b(word_map_a(balanced_word(n - 1), step), step)
            assert built == balanced_word(n)

    def test_lengths(self):
        for n in (1, 2, 5, 16):
            w = balanced_word(n)
            assert length(sigma_to_rword(w)).value == 2
            assert sigma_coarse_length(w) == 2 * n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            balanced_word(0)

    def test_float_mode(self):
        w = balanced_word(4, Mode.FLOAT)
        assert w.mode is Mode.FLOAT
        assert blocks(w) == ((0.25, 0.25),) * 4


E, F = Scalar.exact, Scalar.of_float


def rejection(blocks_):
    with pytest.raises(SigmaValidationError) as excinfo:
        SigmaWord(tuple(blocks_))
    return str(excinfo.value)


class TestSigmaConstructorChecks:
    """The constructor checks raw values; each rejection keeps its message."""

    def test_empty(self):
        assert rejection(()) == "a Sigma word needs at least one block"

    @pytest.mark.parametrize("blocks_", [
        ((E(1), F(1.0)),),
        ((F(1.0), E(1)),),
        ((E(1, 2), E(1)), (E(1, 2), F(0.0))),
        # the mode check comes before the sign check
        ((E(-1), E(1)), (F(2.0), E(0))),
    ], ids=str)
    def test_mixed_modes(self, blocks_):
        assert rejection(blocks_) == "all block exponents must share one mode"

    @pytest.mark.parametrize("bad", [E(-1, 2), F(-0.5), F(math.nan), F(-math.inf)], ids=str)
    @pytest.mark.parametrize("slot", [0, 1])
    def test_negative_or_nan_in_either_slot(self, bad, slot):
        good = E(3, 2) if bad.mode is Mode.EXACT else F(1.5)
        pair = [good, good]
        pair[slot] = bad
        assert rejection([tuple(pair)]) == "negative or NaN block exponent"

    @pytest.mark.parametrize("blocks_, message", [
        (((E(1, 2), E(1)),), "X-exponents sum to 1/2, expected 1"),
        (((E(1), E(1, 3)), (E(0), E(1, 3))), "Y-exponents sum to 2/3, expected 1"),
        (((E(2, 3), E(1)), (E(2, 3), E(1))), "X-exponents sum to 4/3, expected 1"),
        (((F(0.5), F(1.0)),), "X-exponents sum to 0.5, expected 1"),
        (((F(1.0), F(0.1)), (F(0.0), F(0.2))), f"Y-exponents sum to {0.1 + 0.2!r}, expected 1"),
        (((F(math.inf), F(1.0)),), "X-exponents sum to inf, expected 1"),
        # X is checked before Y
        (((E(2), E(2)),), "X-exponents sum to 2, expected 1"),
    ], ids=str)
    def test_mass_off(self, blocks_, message):
        assert rejection(blocks_) == message

    @pytest.mark.parametrize("offset", [0.9e-12, -0.9e-12])
    def test_float_mass_just_inside_tolerance(self, offset):
        near = F(1.0 + offset)
        assert abs(near.value - 1) <= SUM_TOLERANCE
        SigmaWord(((near, F(1.0)),))
        SigmaWord(((F(1.0), near),))

    @pytest.mark.parametrize("offset", [1.1e-12, -1.1e-12])
    def test_float_mass_just_outside_tolerance(self, offset):
        near = F(1.0 + offset)
        assert rejection([(near, F(1.0))]) == f"X-exponents sum to {near.value!r}, expected 1"
        assert rejection([(F(1.0), near)]) == f"Y-exponents sum to {near.value!r}, expected 1"

    def test_float_sum_is_taken_left_to_right(self):
        # Each 2e-17 vanishes when added to 1.0, so X^1 first sums to exactly
        # 1; the tiny blocks first add up to 2e-12 before the 1 arrives,
        # which leaves the sum outside the tolerance.
        one, zero, tiny = F(1.0), F(0.0), F(2e-17)
        SigmaWord(((one, one),) + ((tiny, zero),) * 100_000)
        message = rejection(((tiny, zero),) * 100_000 + ((one, one),))
        assert message.startswith("X-exponents sum to 1.000000000002")

    def test_exact_masses_with_large_coprime_denominators(self):
        p, q = 2**61 - 1, 2**89 - 1  # Mersenne primes
        xs = [Fraction(1, p), Fraction(1, q), 1 - Fraction(1, p) - Fraction(1, q)]
        ys = [Fraction(p - 1, p), Fraction(0), Fraction(1, p)]
        w = SigmaWord(tuple((E(x), E(y)) for x, y in zip(xs, ys)))
        assert sum((s.value for s, _ in w.blocks), Fraction(0)) == 1
        off = Fraction(1, p * q)
        xs[2] += off
        assert rejection([(E(x), E(y)) for x, y in zip(xs, ys)]) == (
            f"X-exponents sum to {1 + off}, expected 1"
        )

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=10**30),
            min_size=1, max_size=6,
        ).filter(lambda v: sum(v) > 0),
        st.integers(1, 10**30),
    )
    def test_exact_mass_is_exactly_one(self, weights, shift):
        total = sum(weights)
        xs = [w / total for w in weights]
        ones = [E(1)] + [E(0)] * (len(xs) - 1)
        SigmaWord(tuple((E(x), y) for x, y in zip(xs, ones)))
        xs[-1] += Fraction(1, shift)
        assert rejection([(E(x), y) for x, y in zip(xs, ones)]) == (
            f"X-exponents sum to {sum(xs)}, expected 1"
        )


int_blocks = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=8
).filter(lambda bs: sum(s for s, _ in bs) and sum(t for _, t in bs))
WORD_MAPS = {"a": (word_map_a, _word_map_a), "b": (word_map_b, _word_map_b)}


def lifted(mode, bs):
    sx, sy = sum(s for s, _ in bs), sum(t for _, t in bs)
    return SigmaWord(tuple((Scalar.lift(s, mode, sx), Scalar.lift(t, mode, sy)) for s, t in bs))


@pytest.mark.parametrize("mode", list(Mode))
@given(bs=int_blocks)
def test_validate_sigma_inverts_sigma_to_rword(mode, bs):
    # zero blocks stay as zero letters, so the letters alternate X, Y, ...
    # and every run is one letter
    w = lifted(mode, bs)
    assert validate_sigma(sigma_to_rword(w)) == w


class TestOneLawTwoDoors:
    """`word_map_a` and `word_map_b` are their raw kernels on the blocks'
    values, bit for bit.  Exact words also map through the ints over one
    common denominator that the commutation suite uses, and the image there
    passes the same Sigma check."""

    @given(st.sampled_from("ab"), int_blocks, st.floats(min_value=0, max_value=1))
    def test_float_bits(self, kind, bs, t):
        public, kernel = WORD_MAPS[kind]
        w = lifted(Mode.FLOAT, bs)
        values = [s.value for s, _ in w.blocks], [y.value for _, y in w.blocks]
        xs, ys, d = kernel(*values, t, 1, 1.0)
        image = public(w, Scalar.of_float(t))
        assert [(s.value.hex(), y.value.hex()) for s, y in image.blocks] == [
            (s.hex(), y.hex()) for s, y in zip(xs, ys)
        ]
        assert d == 1

    @given(
        st.sampled_from("ab"),
        int_blocks,
        st.fractions(min_value=0, max_value=1, max_denominator=97),
    )
    def test_exact_over_one_denominator(self, kind, bs, t):
        public, kernel = WORD_MAPS[kind]
        w = lifted(Mode.EXACT, bs)
        d = math.lcm(*(v.value.denominator for block in w.blocks for v in block))
        xs, ys, image_d = kernel(
            [int(s.value * d) for s, _ in w.blocks],
            [int(y.value * d) for _, y in w.blocks],
            t.numerator,
            t.denominator,
            d,
        )
        _check_sigma(xs, ys, image_d, Mode.EXACT)
        assert blocks(public(w, Scalar.exact(t))) == tuple(
            (Fraction(s, image_d), Fraction(y, image_d)) for s, y in zip(xs, ys)
        )

    def test_sigma_check_on_ints_over_a_denominator(self):
        _check_sigma([1, 2], [0, 3], 3, Mode.EXACT)
        with pytest.raises(SigmaValidationError, match="X-exponents sum to 2/3"):
            _check_sigma([1, 1], [3, 0], 3, Mode.EXACT)
        with pytest.raises(SigmaValidationError, match="negative"):
            _check_sigma([4, -1], [3, 0], 3, Mode.EXACT)
