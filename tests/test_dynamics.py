"""Induced point dynamics: extraction, the two maps, projection, trajectories."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilwords.dynamics import (
    UnitMassError,
    UVWPoint,
    XYPoint,
    balanced_trajectory,
    eval_uvw,
    eval_xy,
    extract_uvw,
    map_a_uvw,
    map_a_xy,
    map_b_uvw,
    map_b_xy,
    project,
    xy_distance,
)
from nilwords.lie_core import evaluate_word
from nilwords.scalar import Mode, Scalar
from nilwords.words import (
    SigmaWord,
    balanced_word,
    parse_word,
    sigma_to_rword,
    word_map_a,
    word_map_b,
)

parameters = st.fractions(min_value=0, max_value=1, max_denominator=24)
coordinates = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=16
)
uvw_points = st.builds(
    lambda u, v, w: UVWPoint(Scalar.exact(u), Scalar.exact(v), Scalar.exact(w)),
    coordinates,
    coordinates,
    coordinates,
)
xy_points = st.builds(
    lambda x, y: XYPoint(Scalar.exact(x), Scalar.exact(y)),
    coordinates,
    coordinates,
)
sigma_words = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9)
    ),
    min_size=1,
    max_size=6,
).filter(lambda bs: sum(s for s, _ in bs) and sum(t for _, t in bs)).map(
    lambda bs: SigmaWord(
        tuple(
            (
                Scalar.exact(s, sum(a for a, _ in bs)),
                Scalar.exact(t, sum(b for _, b in bs)),
            )
            for s, t in bs
        )
    )
)


def uvw(u, v, w):
    return UVWPoint(Scalar.exact(u), Scalar.exact(v), Scalar.exact(w))


def xy(x, y):
    return XYPoint(Scalar.exact(x), Scalar.exact(y))


def vals(point):
    return tuple(c.value for c in point.coords())


XY_SEED = uvw(1, 1, 1)
YX_SEED = uvw(-1, 1, 1)


class TestExtract:
    def test_seed_words(self):
        g = evaluate_word(parse_word("X^1 Y^1", Mode.EXACT))
        assert vals(extract_uvw(g)) == (1, 1, 1)
        g = evaluate_word(parse_word("Y^1 X^1", Mode.EXACT))
        assert vals(extract_uvw(g)) == (-1, 1, 1)

    def test_rejects_wrong_masses(self):
        g = evaluate_word(parse_word("X^2 Y^1", Mode.EXACT))
        with pytest.raises(UnitMassError):
            extract_uvw(g)

    def test_float_mode_tolerates_roundoff(self):
        g = evaluate_word(parse_word("X^0.3 Y^1 X^0.7", Mode.FLOAT))
        point = extract_uvw(g)
        assert point.mode is Mode.FLOAT

    @given(sigma_words)
    def test_sigma_words_always_extract(self, w):
        point = eval_uvw(w)
        assert point.mode is Mode.EXACT


class TestMaps:
    def test_formulas_at_half(self):
        assert vals(map_a_uvw(Scalar.exact(1, 2), XY_SEED)) == (
            0,
            Fraction(-1, 2),
            1,
        )
        assert vals(map_b_uvw(Scalar.exact(1, 2), YX_SEED)) == (
            0,
            1,
            Fraction(-1, 2),
        )

    def test_identity_at_zero(self):
        zero = Scalar.zero(Mode.EXACT)
        for p in (XY_SEED, YX_SEED, uvw(2, -3, 5)):
            assert map_a_uvw(zero, p) == p
            assert map_b_uvw(zero, p) == p
        q = xy(Fraction(2, 3), Fraction(-1, 5))
        assert map_a_xy(zero, q) == q
        assert map_b_xy(zero, q) == q

    @given(uvw_points)
    def test_full_parameter_collapses_to_seeds(self, p):
        one = Scalar.exact(1)
        assert map_a_uvw(one, p) == YX_SEED
        assert map_b_uvw(one, p) == XY_SEED

    def test_parameter_out_of_range(self):
        for bad in (Scalar.exact(-1, 10), Scalar.exact(11, 10), Scalar.of_float(math.nan)):
            with pytest.raises(ValueError):
                map_a_uvw(bad, XY_SEED)
            with pytest.raises(ValueError):
                map_b_xy(bad, xy(0, 0))

    def test_planar_fixed_points(self):
        for t in (Fraction(1, 3), Fraction(2, 3), Fraction(9, 10)):
            assert map_a_xy(Scalar.exact(t), xy(0, 1)) == xy(0, 1)
            assert map_b_xy(Scalar.exact(t), xy(1, 0)) == xy(1, 0)

    @given(parameters, parameters, xy_points)
    def test_semigroup_law(self, t, u, p):
        # composing two a-steps is one a-step at 1 - (1-t)(1-u)
        st_, su = Scalar.exact(t), Scalar.exact(u)
        fused = Scalar.exact(1 - (1 - t) * (1 - u))
        assert map_a_xy(su, map_a_xy(st_, p)) == map_a_xy(fused, p)
        assert map_b_xy(su, map_b_xy(st_, p)) == map_b_xy(fused, p)


class TestProjection:
    def test_seed_images(self):
        assert vals(project(XY_SEED)) == (1, 0)
        assert vals(project(YX_SEED)) == (0, 1)

    @given(parameters, uvw_points)
    def test_intertwines_map_a(self, t, p):
        s = Scalar.exact(t)
        assert project(map_a_uvw(s, p)) == map_a_xy(s, project(p))

    @given(parameters, uvw_points)
    def test_intertwines_map_b(self, t, p):
        s = Scalar.exact(t)
        assert project(map_b_uvw(s, p)) == map_b_xy(s, project(p))


def _lifted_sigma_word(mode, int_blocks):
    """Integer block weights scaled to unit mass in the given mode; zero
    weights give zero blocks."""
    sx = sum(s for s, _ in int_blocks)
    sy = sum(t for _, t in int_blocks)
    return SigmaWord(
        tuple((Scalar.lift(s, mode, sx), Scalar.lift(t, mode, sy)) for s, t in int_blocks)
    )


lifted_sigma_words = st.builds(
    _lifted_sigma_word,
    st.sampled_from(Mode),
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=8
    ).filter(lambda bs: sum(s for s, _ in bs) and sum(t for _, t in bs)),
)


def _double_sigma_word(xs, ys):
    """Random doubles divided by their sum: unit mass up to a few ulps."""
    sx, sy = sum(xs), sum(ys)
    return SigmaWord(
        tuple((Scalar.of_float(s / sx), Scalar.of_float(t / sy)) for s, t in zip(xs, ys))
    )


double_sigma_words = st.integers(1, 8).flatmap(
    lambda n: st.builds(
        _double_sigma_word,
        *(st.lists(st.floats(0, 1), min_size=n, max_size=n).filter(
            lambda v: sum(v) >= 1e-3) for _ in range(2)),
    )
)


def bits(point):
    """Coordinates compared bit for bit: floats by their hex form."""
    return tuple(
        (c.mode, c.value.hex() if c.mode is Mode.FLOAT else c.value) for c in point.coords()
    )


class TestBlockEvaluation:
    """`eval_uvw` evaluates the blocks' raw values; it must agree bit for bit
    with evaluating the explicit letter form."""

    @staticmethod
    def via_letters(w):
        return extract_uvw(evaluate_word(sigma_to_rword(w)))

    @given(st.one_of(lifted_sigma_words, double_sigma_words))
    @settings(max_examples=300)
    def test_matches_the_letter_form(self, w):
        assert bits(eval_uvw(w)) == bits(self.via_letters(w))
        assert bits(eval_xy(w)) == bits(project(self.via_letters(w)))

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("int_blocks", [
        ((1, 1),),
        ((0, 1), (1, 0)),
        ((1, 0), (0, 1)),
        ((0, 0), (2, 1), (0, 0), (1, 0)),
        ((3, 0), (0, 0), (0, 5)),
    ], ids=str)
    def test_one_block_and_zero_blocks(self, mode, int_blocks):
        w = _lifted_sigma_word(mode, int_blocks)
        assert bits(eval_uvw(w)) == bits(self.via_letters(w))

    def test_seed_values(self):
        for mode in Mode:
            assert vals(eval_uvw(balanced_word(1, mode))) == (1, 1, 1)
            yx = _lifted_sigma_word(mode, ((0, 1), (1, 0)))
            assert vals(eval_uvw(yx)) == (-1, 1, 1)


class TestWordSpaceCommutation:
    @given(sigma_words, parameters)
    @settings(max_examples=60)
    def test_map_a(self, w, t):
        s = Scalar.exact(t)
        assert eval_uvw(word_map_a(w, s)) == map_a_uvw(s, eval_uvw(w))

    @given(sigma_words, parameters)
    @settings(max_examples=60)
    def test_map_b(self, w, t):
        s = Scalar.exact(t)
        assert eval_uvw(word_map_b(w, s)) == map_b_uvw(s, eval_uvw(w))


class TestBalancedTrajectory:
    def test_checkpoint_values(self):
        assert vals(eval_xy(balanced_word(1))) == (1, 0)
        assert vals(eval_xy(balanced_word(2))) == (
            Fraction(5, 8),
            Fraction(1, 8),
        )
        assert vals(eval_xy(balanced_word(3))) == (
            Fraction(14, 27),
            Fraction(5, 27),
        )

    def test_rows_and_convergence_bound(self):
        rows = balanced_trajectory(64)
        assert [row["n"] for row in rows] == list(range(1, 65))
        for row in rows:
            assert row["distance"] <= 3.0 / row["n"] + 1e-12
        distances = [row["distance"] for row in rows]
        assert all(a > b for a, b in zip(distances, distances[1:]))

    def test_exact_coordinates_stay_rational(self):
        rows = balanced_trajectory(8, Mode.EXACT)
        for row in rows:
            assert isinstance(row["x"].value, Fraction)

    def test_distance_helper(self):
        assert xy_distance(xy(0, 0), xy(3, 4)) == 5.0
