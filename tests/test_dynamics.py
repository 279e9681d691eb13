"""Induced point dynamics: extraction, the two maps, projection, balanced words."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilwords import lie_core
from nilwords.dynamics import (
    _balanced_states,
    _map_a_uvw,
    _map_a_xy,
    _map_b_uvw,
    _map_b_xy,
    _project,
    _sigma_element,
    UnitMassError,
    UVWPoint,
    XYPoint,
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
from nilwords.lie_core import _WEIGHTS, _letters, evaluate_word
from nilwords.scalar import Mode, Scalar, _restored
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
        third = Scalar.exact(1, 3)
        limit = XYPoint(third, third)
        distances = [xy_distance(eval_xy(balanced_word(n)), limit) for n in range(1, 65)]
        for n, distance in enumerate(distances, start=1):
            assert distance <= 3.0 / n + 1e-12
        assert all(a > b for a, b in zip(distances, distances[1:]))

    def test_exact_coordinates_stay_rational(self):
        for n in range(1, 9):
            assert isinstance(eval_xy(balanced_word(n, Mode.EXACT)).x.value, Fraction)

    def test_distance_helper(self):
        assert xy_distance(xy(0, 0), xy(3, 4)) == 5.0

    @pytest.mark.parametrize("mode", list(Mode))
    def test_rows_match_the_word_route(self, mode):
        # `_project` of `_balanced_states`, the route of the convergence
        # suite, against the point `eval_xy(balanced_word(n))`.
        for n, ((_, _, u, v, w), scale) in enumerate(_balanced_states(64, mode), start=1):
            x, y, d = _project(u, v, w, scale)
            point = XYPoint(Scalar.lift(x, mode, d), Scalar.lift(y, mode, d))
            assert bits(point) == bits(eval_xy(balanced_word(n, mode)))


class TestBalancedStates:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_is_the_state_of_the_word(self, mode):
        # Exact: ints scaled by (n, n, n^2, n^3, n^3).  Float: the doubles
        # `_sigma_element` gives, bit for bit.
        for n, (state, scale) in enumerate(_balanced_states(512, mode), start=1):
            want = tuple(c.value for c in _sigma_element(balanced_word(n, mode)).coords())
            if mode is Mode.EXACT:
                assert scale == n and all(type(c) is int for c in state)
                assert _restored(mode, n, state, _WEIGHTS) == want
            else:
                assert scale == 1
                assert hexes(state) == hexes(want)

    def test_exact_rows_are_the_staircase_closed_form(self):
        # The staircase law for (X^{1/n} Y^{1/n})^n: x_n - 1/3 =
        # (3n + 1)/(6n^2) and y_n - 1/3 = -(3n - 1)/(6n^2), exactly.
        states = list(_balanced_states(512, Mode.EXACT))
        assert len(states) == 512
        third = Fraction(1, 3)
        for n, ((c1, c2, u, v, w), scale) in enumerate(states, start=1):
            assert (c1, c2, scale) == (n, n, n)
            x, y, d = _project(u, v, w, scale)
            assert Fraction(x, d) - third == Fraction(3 * n + 1, 6 * n * n)
            assert Fraction(y, d) - third == -Fraction(3 * n - 1, 6 * n * n)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_word_that_misses_unit_mass_stops_the_walk(self, monkeypatch, mode):
        # The unit-mass check runs on every state, extended (exact) or
        # fresh (float): an X-letter lost at word 3 is caught there.
        letters, calls = lie_core._letters, 0

        def lossy(is_x, ts, state):
            nonlocal calls
            calls += 1
            c1, c2, c3, c4, c5 = letters(is_x, ts, state)
            return (c1 - ts[0] if calls == 3 else c1, c2, c3, c4, c5)

        monkeypatch.setattr(lie_core, "_letters", lossy)
        walk = _balanced_states(5, mode)
        next(walk), next(walk)
        with pytest.raises(UnitMassError, match="generator masses"):
            next(walk)


float_parameters = st.floats(min_value=0, max_value=1)
float_coordinates = st.floats(min_value=-4, max_value=4)
PLANAR = {"a": (map_a_xy, _map_a_xy), "b": (map_b_xy, _map_b_xy)}
SPACE = {"a": (map_a_uvw, _map_a_uvw), "b": (map_b_uvw, _map_b_uvw)}


def hexes(values):
    return tuple(v.hex() for v in values)


class TestOneLawTwoDoors:
    """Each public point map, `project` and `eval_uvw` is its raw kernel on
    the inputs' values, bit for bit.  Exact inputs also give the same point
    through the integer forms the verify suites use: planar points as
    triples (x, y, d), (u, v, w) points scaled by (L^2, L^3, L^3)."""

    @given(st.sampled_from("ab"), float_parameters, float_coordinates, float_coordinates)
    def test_planar_float(self, kind, t, x, y):
        public, kernel = PLANAR[kind]
        image = public(Scalar.of_float(t), XYPoint.of_floats(x, y))
        assert hexes(vals(image)) == hexes(kernel(t, 1, x, y, 1)[:2])

    @given(st.sampled_from("ab"), parameters, coordinates, coordinates)
    def test_planar_exact(self, kind, t, x, y):
        public, kernel = PLANAR[kind]
        image = vals(public(Scalar.exact(t), xy(x, y)))
        assert image == kernel(t, 1, x, y, 1)[:2]
        qx, qy = x.denominator, y.denominator
        ix, iy, d = kernel(t.numerator, t.denominator, x.numerator * qy, y.numerator * qx, qx * qy)
        assert image == (Fraction(ix, d), Fraction(iy, d))

    @given(st.sampled_from("ab"), float_parameters, *([float_coordinates] * 3))
    def test_space_and_projection_float(self, kind, t, u, v, w):
        public, kernel = SPACE[kind]
        p = UVWPoint(Scalar.of_float(u), Scalar.of_float(v), Scalar.of_float(w))
        assert hexes(vals(public(Scalar.of_float(t), p))) == hexes(kernel(t, 1, u, v, w, 1))
        x, y, d = _project(u, v, w, 1)
        assert hexes(vals(project(p))) == hexes((x / d, y / d))

    @given(st.sampled_from("ab"), parameters, coordinates, coordinates, coordinates)
    def test_space_and_projection_exact(self, kind, t, u, v, w):
        public, kernel = SPACE[kind]
        p = uvw(u, v, w)
        image = vals(public(Scalar.exact(t), p))
        assert image == kernel(t, 1, u, v, w, 1)
        L = math.lcm(u.denominator, v.denominator, w.denominator)
        scaled = (int(u * L**2), int(v * L**3), int(w * L**3))
        iu, iv, iw = kernel(t.numerator, t.denominator, *scaled, L)
        s = t.denominator * L
        assert image == (Fraction(iu, s**2), Fraction(iv, s**3), Fraction(iw, s**3))
        x, y, d = _project(*scaled, L)
        assert vals(project(p)) == (Fraction(x, d), Fraction(y, d))

    @given(double_sigma_words)
    def test_block_values_float(self, w):
        values = [part.value for block in w.blocks for part in block]
        state = _letters((True, False) * len(w.blocks), values, (0, 0, 0, 0, 0))
        assert hexes(vals(eval_uvw(w))) == hexes(state[2:])

    @given(sigma_words)
    def test_block_values_over_one_denominator(self, w):
        values = [part.value for block in w.blocks for part in block]
        d = math.lcm(*(v.denominator for v in values))
        scaled = [int(v * d) for v in values]
        state = _letters((True, False) * len(w.blocks), scaled, (0, 0, 0, 0, 0))
        assert state[:2] == (d, d)
        assert vals(eval_uvw(w)) == (
            Fraction(state[2], d**2), Fraction(state[3], d**3), Fraction(state[4], d**3)
        )
