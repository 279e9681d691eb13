"""Dual-mode scalar arithmetic: exactness, rounding, and the constant s."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from nilwords.scalar import (
    DIAGONAL_FIXED_POINT,
    Mode,
    ModeMismatchError,
    Scalar,
)

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=64
)


def exact(q):
    return Scalar.exact(q)


class TestExactField:
    def test_example_addition(self):
        assert exact(Fraction(1, 3)) + exact(Fraction(1, 6)) == exact(Fraction(1, 2))

    @given(rationals)
    def test_additive_identity(self, q):
        assert exact(q) + Scalar.zero(Mode.EXACT) == exact(q)

    @given(rationals, rationals, rationals)
    def test_associativity_and_distributivity(self, a, b, c):
        sa, sb, sc = exact(a), exact(b), exact(c)
        assert (sa + sb) + sc == sa + (sb + sc)
        assert (sa * sb) * sc == sa * (sb * sc)
        assert sa * (sb + sc) == sa * sb + sa * sc

    @given(rationals, rationals)
    def test_no_rounding(self, a, b):
        sa, sb = exact(a), exact(b)
        assert (sa + sb).value == a + b
        assert (sa - sb).value == a - b
        assert (sa * sb).value == a * b
        if b != 0:
            assert (sa / sb).value == a / b

    @given(rationals, rationals)
    def test_total_order(self, a, b):
        sa, sb = exact(a), exact(b)
        assert (sa < sb) == (a < b)
        assert (sa == sb) == (a == b)
        assert (sa <= sb) or (sa > sb)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            exact(Fraction(1)) / Scalar.zero(Mode.EXACT)

    def test_canonical_reduction(self):
        assert Scalar.exact(2, 6) == Scalar.exact(1, 3)
        assert Scalar.exact(2, 6).to_float() == Scalar.exact(1, 3).to_float()


class TestImmutability:
    @pytest.mark.parametrize("name", ["mode", "value", "other"])
    def test_assignment_raises(self, name):
        for a in (Scalar.exact(1, 3), Scalar.of_float(0.5)):
            before = (a.mode, a.value)
            for change in (lambda: setattr(a, name, 2), lambda: delattr(a, name)):
                with pytest.raises(AttributeError, match="immutable"):
                    change()
                assert (a.mode, a.value) == before

    def test_construction_sets_both_slots(self):
        a = Scalar(Mode.FLOAT, 0.25)
        assert a.mode is Mode.FLOAT and a.value == 0.25


class TestModeDiscipline:
    def test_mode_mismatch_raises(self):
        with pytest.raises(ModeMismatchError):
            exact(Fraction(1, 2)) + Scalar.of_float(0.5)

    def test_int_lifts_into_either_mode(self):
        assert (exact(Fraction(1, 2)) * 2) == exact(Fraction(1))
        assert (Scalar.of_float(0.5) * 2).value == 1.0

    @given(rationals, st.floats(-1e6, 1e6), st.integers(-1000, 1000))
    def test_int_operand_acts_as_its_lift(self, q, x, n):
        for mode, a in ((Mode.EXACT, exact(q)), (Mode.FLOAT, Scalar.of_float(x))):
            m = Scalar.lift(n, mode)
            assert [(a + n).value, (a - n).value, (n - a).value, (a * n).value] == [
                (a + m).value, (a - m).value, (m - a).value, (a * m).value
            ]
            assert (a < n, a <= n, a > n, a >= n) == (a < m, a <= m, a > m, a >= m)

    def test_foreign_types_rejected(self):
        with pytest.raises(ModeMismatchError):
            exact(Fraction(1, 2)) + 0.5  # raw float is ambiguous


LIFT_CASES = [(0, 1), (1, 3), (-9, 49), (5, 8), (14, 27), (2**60 + 1, 3)]


class TestLift:
    @pytest.mark.parametrize("num, den", LIFT_CASES)
    def test_exact_is_the_rational(self, num, den):
        assert Scalar.lift(num, Mode.EXACT, den) == Scalar.exact(num, den)

    @pytest.mark.parametrize("num, den", LIFT_CASES)
    def test_float_is_int_true_division(self, num, den):
        lifted = Scalar.lift(num, Mode.FLOAT, den)
        assert lifted.mode is Mode.FLOAT
        assert lifted.value.hex() == (num / den).hex()

    def test_default_denominator_is_one(self):
        assert Scalar.lift(3, Mode.EXACT) == Scalar.exact(3)
        assert Scalar.lift(3, Mode.FLOAT).value.hex() == (3.0).hex()


class TestCloseTo:
    def test_exact_mode_ignores_tolerance(self):
        third = Scalar.exact(1, 3)
        assert third.close_to(Scalar.exact(2, 6), 0.0)
        assert not third.close_to(third + Scalar.exact(1, 10**30), 1)

    def test_float_mode_within_tolerance(self):
        a = Scalar.of_float(0.5)
        assert a.close_to(Scalar.of_float(0.5 + 1e-13), 1e-12)
        assert a.close_to(Scalar.of_float(0.75), 0.25)
        assert not a.close_to(Scalar.of_float(0.5 + 1e-11), 1e-12)
        assert a.close_to(1, 0.5) and not a.close_to(1, 0.25)

    def test_nan_is_never_close(self):
        nan = Scalar.of_float(math.nan)
        for tol in (0.0, 1.0, math.inf):
            assert not nan.close_to(nan, tol)
            assert not nan.close_to(Scalar.of_float(0.0), tol)
            assert not Scalar.of_float(0.0).close_to(nan, tol)

    def test_mixed_modes_raise(self):
        with pytest.raises(ModeMismatchError):
            Scalar.exact(1, 2).close_to(Scalar.of_float(0.5), 1.0)
        with pytest.raises(ModeMismatchError):
            Scalar.of_float(0.5).close_to(Scalar.exact(1, 2), 1.0)


class TestIsFinite:
    def test_exact_values_are_finite_beyond_the_float_range(self):
        huge = Scalar.exact(10**400)
        assert huge.is_finite() and (huge * huge).is_finite()

    @pytest.mark.parametrize("x, finite", [(1e308, True), (math.inf, False), (math.nan, False)])
    def test_float_values(self, x, finite):
        assert Scalar.of_float(x).is_finite() is finite
        assert (Scalar.of_float(1e200) * Scalar.of_float(1e200)).is_finite() is False


class TestFloatAgreement:
    def test_to_float_examples(self):
        assert exact(Fraction(1, 3)).to_float() == 0.3333333333333333
        assert Scalar.zero(Mode.EXACT).to_float() == 0.0

    @given(rationals, rationals)
    def test_rounded_ops_within_rounding_error(self, a, b):
        sa, sb = exact(a), exact(b)
        fa, fb = Scalar.of_float(sa.to_float()), Scalar.of_float(sb.to_float())
        pairs = [(sa + sb, fa + fb), (sa - sb, fa - fb), (sa * sb, fa * fb)]
        if b != 0:
            pairs.append((sa / sb, fa / fb))
        # Half an ulp per rounded input plus the final rounding; after a
        # cancelling subtraction the error lives at the operand scale, not
        # the result scale, hence the max over both.
        operand_scale = max(abs(fa.value), abs(fb.value))
        for exact_result, float_result in pairs:
            reference = exact_result.to_float()
            scale = max(abs(reference), abs(float_result.value), operand_scale)
            assert abs(reference - float_result.value) <= 3 * math.ulp(scale)


class TestSerialization:
    @given(rationals)
    def test_exact_round_trip(self, q):
        s = exact(q)
        assert Scalar.parse(s.as_json(), Mode.EXACT) == s

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_float_round_trip(self, x):
        s = Scalar.of_float(x)
        assert Scalar.parse(s.as_json(), Mode.FLOAT).value == x

    def test_float_mode_accepts_fraction_text(self):
        assert Scalar.parse("1/3", Mode.FLOAT).value == pytest.approx(1 / 3)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("text", ["1/0", " -3/0 ", "0/0"])
    def test_zero_denominator_is_a_value_error(self, mode, text):
        with pytest.raises(ValueError, match="zero denominator") as caught:
            Scalar.parse(text, mode)
        assert "Fraction" not in str(caught.value)


class TestDiagonalFixedPointConstant:
    def test_against_high_precision_radical(self):
        with mpmath.workdps(60):
            reference = (3 - mpmath.sqrt(5)) / 2
            error = abs(mpmath.mpf(DIAGONAL_FIXED_POINT.value) - reference)
        assert float(error) <= math.ulp(DIAGONAL_FIXED_POINT.value)

    def test_quadratic_residual_is_tiny(self):
        s = DIAGONAL_FIXED_POINT.value
        assert abs(s * s - 3 * s + 1) < 1e-15

    def test_defining_identity_one_minus_s_squared(self):
        s = DIAGONAL_FIXED_POINT.value
        assert (1 - s) ** 2 == pytest.approx(s, abs=1e-15)
