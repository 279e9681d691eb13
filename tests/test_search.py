"""Step-budget search, the diagonal gap, and word synthesis."""

import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilwords import search
from nilwords.dynamics import (
    UVWPoint,
    XYPoint,
    eval_uvw,
    eval_xy,
    map_a_uvw,
    map_a_xy,
    map_b_uvw,
    map_b_xy,
    xy_distance,
)
from nilwords.lie_core import evaluate_word
from nilwords.region import Membership, membership
from nilwords.scalar import DIAGONAL_FIXED_POINT, Mode, ModeMismatchError, Scalar
from nilwords.search import (
    DEFAULT_CONFIG,
    MapSequence,
    SearchConfig,
    Seed,
    StepKind,
    SynthesisDomainError,
    apply_sequence,
    coarse_length_profile,
    coarse_length_profile_uvw,
    diagonal_gap,
    nearest_reachable,
    nearest_reachable_uvw,
    seed_point,
    seed_sigma_word,
    seq_to_word,
    synthesize_word,
    _alternating,
    _fold_xy,
    _fold_xyu,
    _forms,
    _landing,
    _landing_problem,
    _origin,
    _origin_xyu,
    _padded,
    _solve,
    _solved_forms,
    _start_vectors,
    _sweep_xy,
    _sweep_xyu,
)
from nilwords.words import (
    balanced_word,
    format_word,
    normalize,
    sigma_to_rword,
    word_map_a,
    word_map_b,
)

S = DIAGONAL_FIXED_POINT.value

FAST = SearchConfig(max_iterations=300)

step_lists = st.lists(
    st.tuples(
        st.sampled_from((StepKind.A, StepKind.B)),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    max_size=5,
)


def target(x, y):
    return XYPoint.of_floats(x, y)


def fold_uvw(origin, kinds, ts):
    """(u, v, w) = (u, 6x - 3u - 2, 6y + 3u - 2) at the end of `_fold_xyu`,
    and the fold's tape."""
    (x, y, u), tape = _fold_xyu(origin, kinds, ts)
    return (u, 6 * x - 3 * u - 2, 6 * y + 3 * u - 2), tape


def sequence(seed, *steps):
    return MapSequence(
        seed, tuple((kind, Scalar.of_float(t)) for kind, t in steps), Mode.FLOAT
    )


def distances(reports):
    return [report.distance.to_float() for report in reports]


def t_values(report):
    return [t.to_float() for _, t in report.best_sequence.steps]


class TestSequences:
    def test_seed_values(self):
        assert seed_point(Seed.XY, Mode.FLOAT).to_floats() == (1.0, 0.0)
        assert seed_point(Seed.YX, Mode.FLOAT).to_floats() == (0.0, 1.0)
        assert _origin_xyu(Seed.XY) == (1.0, 0.0, 1.0)
        assert _origin_xyu(Seed.YX) == (0.0, 1.0, -1.0)
        for seed in Seed:
            uvw = eval_uvw(seed_sigma_word(seed, Mode.EXACT)).coords()
            assert fold_uvw(_origin_xyu(seed), (), ())[0] == tuple(c.value for c in uvw)

    def test_seed_words_evaluate_to_seed_points(self):
        for seed in Seed:
            w = seed_sigma_word(seed, Mode.EXACT)
            assert eval_xy(w) == seed_point(seed, Mode.EXACT)

    def test_yx_seed_block_form(self):
        w = seed_sigma_word(Seed.YX, Mode.EXACT)
        assert [(s.value, t.value) for s, t in w.blocks] == [(0, 1), (1, 0)]

    def test_empty_sequence_is_seed(self):
        assert apply_sequence(sequence(Seed.XY)).to_floats() == (1.0, 0.0)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("seed", list(Seed))
    def test_empty_sequence_keeps_its_mode(self, mode, seed):
        # Scalar equality compares the modes too.
        seq = MapSequence(seed, (), mode)
        assert apply_sequence(seq) == seed_point(seed, mode)
        assert seq_to_word(seq) == seed_sigma_word(seed, mode)

    def test_empty_sequence_needs_a_mode(self):
        with pytest.raises(ValueError, match="empty map sequence must be given a mode"):
            MapSequence(Seed.XY, ())

    def test_mode_is_the_steps_mode(self):
        steps = ((StepKind.A, Scalar.exact(1, 2)),)
        assert MapSequence(Seed.XY, steps).mode is Mode.EXACT
        with pytest.raises(ModeMismatchError):
            MapSequence(Seed.XY, steps, Mode.FLOAT)

    def test_seed_stage_synthesis_is_float(self):
        result = synthesize_word(target(1.0, 0.0))
        assert result.stage == "seed" and result.sequence.steps == ()
        assert result.sequence.mode is Mode.FLOAT
        assert result.achieved.mode is Mode.FLOAT and result.word.mode is Mode.FLOAT

    def test_pattern_string(self):
        seq = sequence(Seed.XY, (StepKind.A, 0.5), (StepKind.B, 0.25))
        assert seq.pattern() == "AB"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sequence(Seed.XY, (StepKind.A, 1.5))

    @pytest.mark.parametrize("t", [math.nan, -0.1, 1.1])
    def test_rejects_parameters_outside_the_unit_interval(self, t):
        with pytest.raises(ValueError, match="outside"):
            sequence(Seed.XY, (StepKind.A, t))

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_accepts_the_interval_ends(self, t):
        assert sequence(Seed.XY, (StepKind.B, t)).steps[0][1].value == t

    def test_single_step_example(self):
        seq = sequence(Seed.XY, (StepKind.A, S))
        x, y = apply_sequence(seq).to_floats()
        assert x == pytest.approx(S, abs=1e-15)
        assert y == pytest.approx(S, abs=1e-15)

    @given(st.sampled_from(Seed), step_lists)
    @settings(max_examples=50, deadline=None)
    def test_word_and_point_paths_agree(self, seed, steps):
        seq = sequence(seed, *steps)
        via_word = eval_xy(seq_to_word(seq))
        via_maps = apply_sequence(seq)
        assert xy_distance(via_word, via_maps) < 1e-10


class TestFoldJacobian:
    @pytest.mark.parametrize("length", range(1, 13))
    def test_matches_central_differences(self, length):
        rnd = random.Random(length)
        h = 1e-6
        for origin in ((1.0, 0.0), (0.0, 1.0)):
            for start in (StepKind.A, StepKind.B):
                kinds = _alternating(start, length)
                # interior parameters, so t +- h stays in [0, 1]
                ts = [rnd.uniform(0.05, 0.95) for _ in range(length)]
                jac = _sweep_xy(_fold_xy(origin, kinds, ts)[1])
                assert [len(column) for column in jac] == [2] * length
                for i in range(length):
                    up, down = list(ts), list(ts)
                    up[i] += h
                    down[i] -= h
                    (xu, yu), _ = _fold_xy(origin, kinds, up)
                    (xd, yd), _ = _fold_xy(origin, kinds, down)
                    assert jac[i][0] == pytest.approx((xu - xd) / (2 * h), abs=1e-7)
                    assert jac[i][1] == pytest.approx((yu - yd) / (2 * h), abs=1e-7)

    def test_empty_pattern(self):
        assert _sweep_xy(_fold_xy((1.0, 0.0), (), ())[1]) == []

    @pytest.mark.parametrize("length", range(1, 7))
    def test_uvw_matches_central_differences(self, length):
        rnd = random.Random(100 + length)
        h = 1e-6
        for seed in Seed:
            origin = _origin_xyu(seed)
            for start in (StepKind.A, StepKind.B):
                kinds = _alternating(start, length)
                ts = [rnd.uniform(0.05, 0.95) for _ in range(length)]
                jac = _sweep_xyu(_fold_xyu(origin, kinds, ts)[1])
                assert [len(column) for column in jac] == [3] * length
                for i in range(length):
                    up, down = list(ts), list(ts)
                    up[i] += h
                    down[i] -= h
                    high, _ = fold_uvw(origin, kinds, up)
                    low, _ = fold_uvw(origin, kinds, down)
                    for row in range(3):
                        assert jac[i][row] == pytest.approx(
                            (high[row] - low[row]) / (2 * h), abs=1e-7
                        )

    def test_uvw_empty_pattern(self):
        assert _sweep_xyu(_fold_xyu((1.0, 0.0, 1.0), (), ())[1]) == []

    def test_uvw_fold_is_the_exact_maps_composed(self):
        # The kernel's (u, v, w) against map_a_uvw / map_b_uvw composed in
        # exact arithmetic on the parameters' Fractions, from the exact seeds.
        rnd = random.Random(27)
        for case in range(240):
            seed = list(Seed)[case % 2]
            kinds = [rnd.choice(list(StepKind)) for _ in range(rnd.randint(0, 12))]
            ts = [rnd.random() for _ in kinds]
            point = eval_uvw(seed_sigma_word(seed, Mode.EXACT))
            for kind, t in zip(kinds, ts):
                exact_t = Scalar.exact(Fraction(t))
                point = (map_a_uvw if kind is StepKind.A else map_b_uvw)(exact_t, point)
            got, _ = fold_uvw(_origin_xyu(seed), kinds, ts)
            want = [c.value for c in point.coords()]
            assert all(abs(a - b) <= 1e-14 for a, b in zip(got, want)), (seed, kinds, ts)


class TestLanding:
    @staticmethod
    def reachable_points(rnd, count):
        """Points a short random sequence reaches: what diagonal_gap feeds
        to its last step."""
        for _ in range(count):
            kinds = _alternating(rnd.choice(list(StepKind)), rnd.randint(0, 4))
            origin = _origin(rnd.choice(list(Seed)))
            yield _fold_xy(origin, kinds, [rnd.uniform(0.05, 0.95) for _ in kinds])[0]

    @staticmethod
    def prefix_end(rnd):
        """The end of a 0..6-step fold whose parameters include the
        endpoints 0 and 1, so that some ends sit on an edge of the square."""
        kinds = _alternating(rnd.choice(list(StepKind)), rnd.randint(0, 6))
        origin = _origin(rnd.choice(list(Seed)))
        ts = [rnd.choice((0.0, 1.0)) if rnd.random() < 0.1 else rnd.random() for _ in kinds]
        return _fold_xy(origin, kinds, ts)[0]

    @staticmethod
    def base_other(kind, x0, y0):
        return (x0, y0) if kind is StepKind.A else (y0, x0)

    @pytest.mark.parametrize("kind", list(StepKind))
    def test_gradient_matches_central_differences(self, kind):
        rnd = random.Random(31 if kind is StepKind.A else 32)
        h = 1e-7
        checked = 0
        for x0, y0 in self.reachable_points(rnd, 200):
            found = _landing(kind, x0, y0)
            if found is None:
                continue
            d, d_x0, d_y0 = found
            assert d > 1 / 3
            for (dx, dy), slope in (((h, 0.0), d_x0), ((0.0, h), d_y0)):
                high = _landing(kind, x0 + dx, y0 + dy)
                low = _landing(kind, x0 - dx, y0 - dy)
                assert slope == pytest.approx((high[0] - low[0]) / (2 * h), abs=1e-6)
            checked += 1
        assert checked > 50

    def test_landing_jacobian_matches_central_differences(self):
        rnd = random.Random(33)
        h = 1e-7
        checked = 0
        for length in range(2, 6):
            for seed in Seed:
                for start in StepKind:
                    residual, jacobian, dim = _landing_problem(seed, _alternating(start, length))
                    assert dim == length - 1
                    ts = [rnd.uniform(0.05, 0.95) for _ in range(dim)]
                    (d,), tape = residual(ts)
                    jac = jacobian(tape)
                    assert [len(column) for column in jac] == [1] * (length - 1)
                    for i in range(length - 1):
                        up, down = list(ts), list(ts)
                        up[i] += h
                        down[i] -= h
                        (high,), _ = residual(up)
                        (low,), _ = residual(down)
                        if d == high == low == 2.0 - 1 / 3:  # no landing: zero gradient
                            assert jac[i][0] == 0.0
                        else:
                            assert jac[i][0] == pytest.approx((high - low) / (2 * h), abs=1e-6)
                            checked += 1
        assert checked > 20

    def test_lands_on_the_diagonal(self):
        # from the XY seed, A(t) gives ((1-t)^2, t): on the diagonal at the
        # fixed point t = s, where (1-s)^2 = s
        d, _, _ = _landing(StepKind.A, 1.0, 0.0)
        assert d == pytest.approx(S, abs=1e-15)
        # B only raises x and lowers y, so from below the diagonal it never
        # lands
        assert _landing(StepKind.B, 0.9, 0.1) is None

    @pytest.mark.parametrize("kind", list(StepKind))
    def test_landing_brackets_the_exact_root(self, kind):
        # d lands where Phi(d) = base (1 - d)^2 - (1 - other)^2 d = 0, in
        # exact arithmetic on the doubles given; Phi changes sign between
        # d (1 - m 2^-53) and d (1 + m 2^-53) with m = 8
        rnd = random.Random(41 if kind is StepKind.A else 42)
        eps = Fraction(8, 2**53)
        # no fold ends at the one landing point with base = 0, the origin
        landings = [((0.0, 0.0), _landing(kind, 0.0, 0.0))]
        while len(landings) <= 2000:
            start = self.prefix_end(rnd)
            found = _landing(kind, *start)
            if found is not None:
                landings.append((start, found))
        for (x0, y0), (d, _, _) in landings:
            base, other = map(Fraction, self.base_other(kind, x0, y0))
            if base == 0:
                assert d == 0.0, (x0, y0)
                continue
            low, high = (Fraction(d) * (1 + sign * eps) for sign in (-1, 1))
            phi = [base * (1 - z) ** 2 - (1 - other) ** 2 * z for z in (low, high)]
            assert phi[0] * phi[1] <= 0, (x0, y0)

    @pytest.mark.parametrize("kind", list(StepKind))
    def test_lands_iff_base_is_at_least_other(self, kind):
        rnd = random.Random(43 if kind is StepKind.A else 44)
        points = [(rnd.random(), rnd.random()) for _ in range(2000)]
        points += [self.prefix_end(rnd) for _ in range(2000)]
        # dyadic points on the diagonal and one dyadic step to either side
        for j in range(17):
            a = j / 16
            points += [(a, a), (a, a + 2**-10), (a, a - 2**-10), (a + 2**-52, a), (a, a + 2**-52)]
        points += [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        for x0, y0 in points:
            base, other = self.base_other(kind, x0, y0)
            assert (_landing(kind, x0, y0) is None) == (base < other), (x0, y0)
        # b = 3/4 and sqrt(b^2 + 4 base) = 5/4 are exact: r = 1 and d = base
        assert _landing(kind, 0.25, 0.25)[0] == 0.25


class TestStartVectors:
    def test_pinned_latin_hypercube_points(self):
        # random.Random seeded with the str "master_seed:dim", which it
        # hashes with SHA-512, so the points do not depend on PYTHONHASHSEED.
        assert _start_vectors(DEFAULT_CONFIG.master_seed, 2) == (
            (0.6781477578756651, 0.8182342536007858),
            (0.793915895460378, 0.40090375855422744),
            (0.3740363437524564, 0.0660519216017679),
            (0.035526443619755155, 0.5470918423419481),
        )
        assert _start_vectors(0, 1) == (
            (0.377403823963038,),
            (0.029214478340714167,),
            (0.5645699237858809,),
            (0.9622469924091372,),
        )
        assert _start_vectors(-1, 1) == (
            (0.5716658832326658,),
            (0.01831621342811257,),
            (0.9785446890745446,),
            (0.4267496587442299,),
        )

    def test_one_start_per_slice_of_each_axis(self):
        points = _start_vectors(DEFAULT_CONFIG.master_seed, 5)
        assert len(points) == 4 and all(len(point) == 5 for point in points)
        for axis in zip(*points):
            assert sorted(int(v * 4) for v in axis) == [0, 1, 2, 3]

    def test_built_once_per_seed_and_dimension_and_read_only(self):
        points = _start_vectors(1729, 3)
        assert _start_vectors(1729, 3) is points
        assert _start_vectors(0, 3) != points
        assert _start_vectors(1729, 4)[0][:3] != points[0]
        with pytest.raises(TypeError):
            points[0][0] = 0.5


class TestSearchConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_iterations", 0),
            ("synthesis_tolerance", math.nan),
            ("synthesis_tolerance", -1e-9),
            ("synthesis_tolerance", 0.0),
            ("synthesis_tolerance", math.inf),
            ("max_synthesis_steps", -1),
        ],
    )
    def test_rejects_values_that_give_wrong_answers(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchConfig(**{field: value})

    def test_smallest_valid_values(self):
        cfg = SearchConfig(
            max_iterations=1,
            synthesis_tolerance=5e-324,
            max_synthesis_steps=0,
            master_seed=0,
        )
        assert cfg.max_synthesis_steps == 0


def fold_problem(seed, kinds, goal):
    """Residual and Jacobian of reaching `goal` with the form (seed, kinds)."""
    origin = _origin(seed)

    def residual(ts):
        (x, y), tape = _fold_xy(origin, kinds, ts)
        return (x - goal[0], y - goal[1]), tape

    return residual, _sweep_xy


class TestSolve:
    def test_iterates_stay_in_the_box(self):
        # r = (t0 + t1 - 3, t2 + 1) pulls t0 and t1 above 1 and t2 below 0;
        # the box minimum is the corner (1, 1, 0), where the gradient points
        # out of the box in every coordinate.
        seen = []

        def residual(ts):
            seen.append(list(ts))
            return (ts[0] + ts[1] - 3.0, ts[2] + 1.0), list(ts)

        def jacobian(ts):
            seen.append(ts)
            return [(1.0, 0.0), (1.0, 0.0), (0.0, 1.0)]

        for x0 in ([0.5, 0.5, 0.5], [0.0, 1.0, 0.3], [0.9, 0.1, 1.0]):
            solved = _solve(residual, jacobian, x0, 500)
            assert solved.converged
            assert solved.point == (1.0, 1.0, 0.0)
            assert solved.cost == math.sqrt(2.0)
        assert len(seen) > 9
        assert all(0.0 <= t <= 1.0 for point in seen for t in point)

    def test_holds_coordinates_pushed_out_of_the_box(self):
        # r = (t0 + 2 t2 - 0.5, t1 - t2 - 2) has its box minimum at
        # (0.5, 1, 0) with cost 1.  Stepping t1 and t2 as if they were free
        # and clipping afterwards stalls short of it.
        jac = [(1.0, 0.0), (0.0, 1.0), (2.0, -1.0)]

        def residual(ts):
            return (ts[0] + 2.0 * ts[2] - 0.5, ts[1] - ts[2] - 2.0), None

        solved = _solve(residual, lambda tape: jac, [0.5, 0.5, 0.5], 500)
        assert solved.converged
        assert solved.iterations < 100
        assert solved.cost == pytest.approx(1.0, abs=1e-12)
        assert solved.point == pytest.approx((0.5, 1.0, 0.0), abs=1e-9)

    def test_underflowing_system_stops_without_dividing(self):
        # Columns of size 1e-155 make J J^T and mu underflow, so the damped
        # 2 x 2 system has determinant 0; the solve ends unconverged at x0.
        scale = 1e-155

        def residual(ts):
            return (scale * ts[0] + 1.0, scale * ts[1] + 1.0), None

        jac = [(scale, 0.0), (0.0, scale)]
        solved = _solve(residual, lambda tape: jac, [0.5, 0.5], 500)
        assert not solved.converged
        assert solved.point == (0.5, 0.5)
        assert solved.cost == math.hypot(*residual([0.5, 0.5])[0])

    def test_cost_never_rises(self):
        rnd = random.Random(11)
        for _ in range(40):
            seed = rnd.choice(list(Seed))
            kinds = _alternating(rnd.choice(list(StepKind)), rnd.randint(1, 8))
            residual, jacobian = fold_problem(seed, kinds, (rnd.random(), rnd.random()))
            x0 = [rnd.random() for _ in kinds]
            solved = _solve(residual, jacobian, x0, 50)
            assert solved.cost <= math.hypot(*residual(x0)[0])
            assert solved.iterations <= 50
            assert all(0.0 <= t <= 1.0 for t in solved.point)
            assert math.hypot(*residual(solved.point)[0]) == solved.cost

    @pytest.mark.parametrize("length", [2, 3])
    def test_reaches_images_of_known_parameters(self, length):
        rnd = random.Random(length)
        for seed in Seed:
            for start in StepKind:
                kinds = _alternating(start, length)
                ts = [rnd.uniform(0.1, 0.9) for _ in kinds]
                goal, _ = _fold_xy(_origin(seed), kinds, ts)
                residual, jacobian = fold_problem(seed, kinds, goal)
                solved = _solve(residual, jacobian, [0.5] * length, 500)
                assert solved.converged
                assert solved.cost < 1e-15, (seed, kinds, ts)

    def test_deterministic(self):
        residual, jacobian = fold_problem(Seed.XY, _alternating(StepKind.A, 5), (0.41, 0.37))
        first = _solve(residual, jacobian, [0.2, 0.9, 0.4, 0.6, 0.1], 500)
        again = _solve(residual, jacobian, [0.2, 0.9, 0.4, 0.6, 0.1], 500)
        assert first == again
        assert [t.hex() for t in first.point] == [t.hex() for t in again.point]

    def test_near_limit_target_stops_within_the_cap(self):
        near = 1 / 3 + 5e-4
        cap = DEFAULT_CONFIG.max_iterations
        for seed in Seed:
            for start in StepKind:
                residual, jacobian = fold_problem(seed, _alternating(start, 12), (near, near))
                solved = _solve(residual, jacobian, [0.5] * 12, cap)
                assert 0 < solved.iterations <= cap
                assert solved.cost > 0.0
        capped = _solve(residual, jacobian, [0.5] * 12, 3)
        assert capped.iterations == 3
        assert not capped.converged


class TestSolveOneAndThreeResiduals:
    @staticmethod
    def counted(residual):
        calls = []

        def wrapped(ts):
            calls.append(list(ts))
            return residual(ts), None

        return wrapped, calls

    def test_one_residual_holds_coordinates_on_the_box(self):
        # r = 2 t0 - t1 + 1.5 cannot reach 0 in the box; its box minimum is
        # the corner (0, 1) with cost 0.5, where both coordinates are held.
        residual, calls = self.counted(lambda ts: (2.0 * ts[0] - ts[1] + 1.5,))
        jac = [(2.0,), (-1.0,)]
        for x0 in ([0.5, 0.5], [0.9, 0.1], [0.0, 0.3]):
            calls.clear()
            solved = _solve(residual, lambda tape: jac, x0, 500)
            assert solved.converged
            assert solved.point == (0.0, 1.0)
            assert solved.cost == 0.5
            assert solved.evaluations == len(calls)
            assert all(0.0 <= t <= 1.0 for point in calls for t in point)
        # r = 100 t0 + t1 - 0.5 from (0, 1): t0 sits on its bound with a
        # steep outward gradient.  Held, it leaves t1 the whole step; left
        # free, its column would shrink t1's step 10^4-fold.
        steep = [(100.0,), (1.0,)]
        solved = _solve(
            lambda ts: ((100.0 * ts[0] + ts[1] - 0.5,), None), lambda tape: steep, [0.0, 1.0], 500
        )
        assert solved.converged
        assert solved.iterations < 10
        assert solved.cost < 1e-15

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_one_residual_reaches_a_known_coordinate(self, length):
        rnd = random.Random(50 + length)
        for seed in Seed:
            origin = _origin(seed)
            for start in StepKind:
                kinds = _alternating(start, length)
                goal = _fold_xy(origin, kinds, [rnd.uniform(0.1, 0.9) for _ in kinds])[0][0]

                def residual(ts):
                    (x, _), tape = _fold_xy(origin, kinds, ts)
                    return (x - goal,), tape

                solved = _solve(
                    residual,
                    lambda tape: [(p,) for p, _ in _sweep_xy(tape)],
                    [0.5] * length,
                    500,
                )
                assert solved.converged
                assert solved.cost < 1e-15, (seed, kinds)

    def test_three_residuals_hold_coordinates_pushed_out_of_the_box(self):
        # r = (t0 + 2 t3 - 0.5, t1 - t3 - 2, t2 + t3 - 0.25) has its box
        # minimum at (0.5, 1, 0.25, 0) with cost 1: t1 and t3 are held.
        jac = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (2.0, -1.0, 1.0)]
        residual, calls = self.counted(
            lambda ts: (ts[0] + 2.0 * ts[3] - 0.5, ts[1] - ts[3] - 2.0, ts[2] + ts[3] - 0.25)
        )
        solved = _solve(residual, lambda tape: jac, [0.5, 0.5, 0.5, 0.5], 500)
        assert solved.converged
        assert solved.iterations < 100
        assert solved.cost == pytest.approx(1.0, abs=1e-12)
        assert solved.point == pytest.approx((0.5, 1.0, 0.25, 0.0), abs=1e-9)
        assert solved.evaluations == len(calls)
        assert all(0.0 <= t <= 1.0 for point in calls for t in point)

    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_three_residuals_reach_uvw_images_of_known_parameters(self, length):
        rnd = random.Random(length)
        for seed in Seed:
            origin = _origin_xyu(seed)
            for start in StepKind:
                kinds = _alternating(start, length)
                goal, _ = fold_uvw(origin, kinds, [rnd.uniform(0.1, 0.9) for _ in kinds])

                def residual(ts):
                    end, tape = fold_uvw(origin, kinds, ts)
                    return tuple(a - b for a, b in zip(end, goal)), tape

                solved = _solve(
                    residual,
                    _sweep_xyu,
                    [0.5] * length,
                    500,
                )
                assert solved.converged
                assert solved.cost < 1e-15, (seed, kinds)

    def test_underflowing_three_by_three_system_stops_without_dividing(self):
        # As in the 2 x 2 case: columns of size 1e-155 make the Gram matrix
        # and mu underflow, so the damped determinant is 0 and the solve
        # ends unconverged at x0.
        scale = 1e-155

        def residual(ts):
            return tuple(scale * t + 1.0 for t in ts), None

        jac = [(scale, 0.0, 0.0), (0.0, scale, 0.0), (0.0, 0.0, scale)]
        solved = _solve(residual, lambda tape: jac, [0.5, 0.5, 0.5], 500)
        assert not solved.converged
        assert solved.point == (0.5, 0.5, 0.5)
        assert solved.cost == math.hypot(*residual([0.5, 0.5, 0.5])[0])
        assert solved.iterations == 1


class TestForms:
    def test_order(self):
        A, B = StepKind.A, StepKind.B
        assert list(_forms(3)) == [
            (Seed.XY, (A,)),
            (Seed.YX, (B,)),
            (Seed.XY, (A, B)),
            (Seed.YX, (B, A)),
            (Seed.XY, (A, B, A)),
            (Seed.YX, (B, A, B)),
        ]

    def test_zero_budget_has_only_the_empty_form(self):
        assert list(_forms(0)) == [(Seed.XY, ()), (Seed.YX, ())]
        assert list(_forms(0, symmetric=True)) == [(Seed.XY, ())]

    def test_symmetric_order_keeps_the_xy_forms(self):
        for k in range(1, 5):
            both = list(_forms(k))
            assert len(both) == 2 * k
            xy = [f for f in both if f[0] is Seed.XY]
            assert list(_forms(k, symmetric=True)) == xy
            assert [len(kinds) for _, kinds in xy] == list(range(1, k + 1))

    def test_padding(self):
        A, B = StepKind.A, StepKind.B
        assert _padded((A, B), (0.5, 0.25), 4) == ((A, A, A, B), (0.5, 0.0, 0.0, 0.25))
        assert _padded((B, A, B), (0.1, 0.2, 0.3), 5) == (
            (B, A, A, A, B),
            (0.1, 0.2, 0.0, 0.0, 0.3),
        )
        assert _padded((B,), (0.7,), 3) == ((B, B, B), (0.7, 0.0, 0.0))
        assert _padded((A, B), (0.5, 0.25), 2) == ((A, B), (0.5, 0.25))


FIXING_STEP = {Seed.XY: StepKind.B, Seed.YX: StepKind.A}


def exact_parameters(count, seed):
    rnd = random.Random(seed)
    for _ in range(count):
        den = rnd.randint(1, 97)
        yield Scalar.exact(rnd.randint(0, den), den)


class TestFixedSeedForms:
    """The b-map fixes the XY seed and the a-map the YX seed, so a form whose
    first step fixes its seed reaches what the form one step shorter reaches,
    and `_forms` leaves it out."""

    def test_maps_fix_their_seeds_exactly(self):
        xy, yx = (seed_point(seed, Mode.EXACT) for seed in Seed)
        uvw_xy, uvw_yx = (eval_uvw(seed_sigma_word(seed, Mode.EXACT)) for seed in Seed)
        for t in exact_parameters(40, 3):
            assert map_b_xy(t, xy) == xy
            assert map_a_xy(t, yx) == yx
            assert map_b_uvw(t, uvw_xy) == uvw_xy
            assert map_a_uvw(t, uvw_yx) == uvw_yx

    def test_word_maps_keep_the_seed_element(self):
        for seed, word_map in ((Seed.XY, word_map_b), (Seed.YX, word_map_a)):
            word = seed_sigma_word(seed, Mode.EXACT)
            element = evaluate_word(sigma_to_rword(word))
            for t in exact_parameters(20, 4):
                assert evaluate_word(sigma_to_rword(word_map(word, t))) == element

    @pytest.mark.parametrize(
        "problem_of",
        [
            search._xy_problem((0.38, 0.36)),
            search._uvw_problem(
                [c.to_float() for c in eval_uvw(balanced_word(8, Mode.FLOAT)).coords()]
            ),
            _landing_problem,
        ],
        ids=["xy", "uvw", "landing"],
    )
    def test_a_fixing_first_step_is_a_dead_parameter(self, problem_of):
        rnd = random.Random(5)
        for seed, kinds in _forms(6):
            residual, _, dim = problem_of(seed, kinds)
            dead_residual, dead_jacobian, dead_dim = problem_of(seed, (FIXING_STEP[seed],) + kinds)
            assert dead_dim == dim + 1
            for _ in range(10):
                ts = [rnd.random() for _ in range(dim)]
                r, _ = residual(ts)
                dead_r, tape = dead_residual([rnd.random(), *ts])
                assert all(abs(a - b) <= 1e-15 for a, b in zip(r, dead_r))
                assert all(abs(c) <= 1e-15 for c in dead_jacobian(tape)[0])


class TestSolvedForms:
    def test_each_form_starts_from_its_predecessor(self):
        # The first start of a form is its predecessor's winner with an
        # identity step appended, so no form costs more than its predecessor.
        costs = {}
        problem_of = search._xy_problem((0.38, 0.36))
        for seed, kinds, solved, spent in _solved_forms(8, problem_of, FAST):
            assert solved.cost <= costs.get(seed, math.inf)
            assert spent >= solved.evaluations
            costs[seed] = solved.cost
        assert len(costs) == 2  # one family per seed

    def test_starts_stop_at_the_first_cost_within_enough(self, monkeypatch):
        solves = []
        solve = search._solve

        def counted_solve(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(search, "_solve", counted_solve)
        reachable = search._xy_problem(((1 - 0.3) ** 2, 0.3))  # XY, A at t = 0.3
        seed, kinds, solved, _ = next(_solved_forms(1, reachable, FAST, enough=1e-9))
        assert (seed, kinds, len(solves)) == (Seed.XY, (StepKind.A,), 1)
        assert solved.cost <= 1e-9
        solves.clear()
        unreachable = search._xy_problem((0.38, 0.36))
        next(_solved_forms(1, unreachable, FAST))
        assert len(solves) == 5  # the all-0.5 vector, then four Latin-hypercube points


def mirrored(kinds):
    """The kinds of the form the X <-> Y swap maps `kinds` to."""
    swap = {StepKind.A: StepKind.B, StepKind.B: StepKind.A}
    return tuple(swap[kind] for kind in kinds)


class TestMirrorPairs:
    """Swapping X and Y maps the YX form (B A B ...) onto the XY form
    (A B A ...); on a diagonal target the two pose the same problem, so only
    the XY forms are solved."""

    @staticmethod
    def seeds_posed(monkeypatch, run, problem="_xy_problem"):
        """The seeds of the forms of `problem` that `run()` poses to the solver."""
        seeds = set()
        make_problem = getattr(search, problem)

        def recording(goal):
            problem_of = make_problem(goal)

            def posed(seed, kinds):
                seeds.add(seed)
                return problem_of(seed, kinds)

            return posed

        monkeypatch.setattr(search, problem, recording)
        run()
        return seeds

    def test_diagonal_targets_solve_only_xy_forms(self, monkeypatch):
        for goal in (target(1 / 3, 1 / 3), target(0.38, 0.38)):
            seeds = self.seeds_posed(monkeypatch, lambda: nearest_reachable(goal, 4, FAST))
            assert seeds == {Seed.XY}
        short = SearchConfig(max_synthesis_steps=3)
        # x + y - 2/3 = 0.022 clears the 3-step floor 1/48, so forms are solved;
        # at 0.002 the floor proves the target out of reach and none is
        for offset, posed in ((0.011, {Seed.XY}), (1e-3, set())):
            near = target(1 / 3 + offset, 1 / 3 + offset)
            assert self.seeds_posed(monkeypatch, lambda: synthesize_word(near, short)) == posed

    def test_off_diagonal_targets_solve_both_seeds(self, monkeypatch):
        for goal in (target(0.38, 0.36), target(1 / 3, math.nextafter(1 / 3, 1))):
            seeds = self.seeds_posed(monkeypatch, lambda: coarse_length_profile(goal, 2, FAST))
            assert seeds == {Seed.XY, Seed.YX}

    @staticmethod
    def twin_costs(problem_of, k):
        """(XY cost, YX mirror cost) of every XY form, both seeds solved."""
        costs = {
            (seed, kinds): solved.cost
            for seed, kinds, solved, _ in _solved_forms(k, problem_of, FAST)
        }
        return [
            (cost, costs[Seed.YX, mirrored(kinds)])
            for (seed, kinds), cost in costs.items()
            if seed is Seed.XY
        ]

    @pytest.mark.parametrize("d", [1 / 3, 0.35, 0.38, 0.5])
    def test_skipped_planar_twins_cost_the_same(self, d):
        pairs = self.twin_costs(search._xy_problem((d, d)), 8)
        assert len(pairs) == 8
        for xy, yx in pairs:
            assert abs(xy - yx) <= 1e-12 * xy

    def test_skipped_landing_twins_cost_the_same_bit_for_bit(self):
        pairs = self.twin_costs(search._landing_problem, 8)
        assert len(pairs) == 8
        assert all(xy == yx for xy, yx in pairs)

    def test_mirror_symmetric_uvw_targets_solve_only_xy_forms(self, monkeypatch):
        # (u, v, w) -> (-u, w, v) fixes a target with u = 0 and v = w
        for goal, posed in (
            ((0.0, 0.0, 0.0), {Seed.XY}),
            ((0.0, 0.1, 0.1), {Seed.XY}),
            ((0.0, 0.1, 0.2), {Seed.XY, Seed.YX}),
            ((0.1, 0.1, 0.1), {Seed.XY, Seed.YX}),
        ):
            point = UVWPoint(*map(Scalar.of_float, goal))
            run = lambda: nearest_reachable_uvw(point, 3, FAST)  # noqa: E731
            assert self.seeds_posed(monkeypatch, run, "_uvw_problem") == posed, goal

    def test_uvw_mirror_walk_matches_the_both_seeds_walk(self):
        # Each row of the (0, 0, 0) profile, XY forms only, against the walk
        # that solves both seeds: the winner is the XY twin of the same cost.
        origin = UVWPoint(*[Scalar.of_float(0.0)] * 3)
        rows = coarse_length_profile_uvw(origin, 16)
        both = search._walk(16, DEFAULT_CONFIG, ("uvw-both",), search._uvw_problem((0.0,) * 3))
        assert len(rows) == len(both) == 16
        for k, (row, (_, _, solved, _)) in enumerate(zip(rows, both), start=1):
            assert row.best_sequence.pattern().startswith("A"), row
            assert abs(row.distance.to_float() - solved.cost) <= 1e-12 * solved.cost, k

    def test_limit_point_reports_the_xy_seed(self):
        for k in range(1, 6):
            assert nearest_reachable(target(1 / 3, 1 / 3), k, FAST).best_sequence.seed is Seed.XY

    def test_diagonal_search_spends_only_the_xy_forms(self):
        # The search reports the XY forms' evaluations and none of their YX
        # twins'.  A twin's solve rounds its own way, so the share saved
        # varies: here the XY forms take 40 evaluations and the twins 71.
        goal = (0.38, 0.38)
        both = list(_solved_forms(4, search._xy_problem(goal), FAST))
        spent = {seed: sum(n for s, _, _, n in both if s is seed) for seed in Seed}
        assert nearest_reachable(target(*goal), 4, FAST).evaluations == spent[Seed.XY]
        assert spent[Seed.YX] >= 4  # each skipped twin would cost at least one


class TestNearestReachable:
    def test_zero_steps(self):
        report = nearest_reachable(target(1.0, 0.0), 0, FAST)
        assert report.distance.to_float() == 0.0
        assert report.best_sequence.steps == ()
        assert report.best_sequence.seed is Seed.XY

    def test_one_step_reaches_fixed_point(self):
        report = nearest_reachable(target(S, S), 1, FAST)
        assert report.distance.to_float() < 1e-9
        (kind, t), = report.best_sequence.steps
        assert {
            Seed.XY: StepKind.A,
            Seed.YX: StepKind.B,
        }[report.best_sequence.seed] is kind
        assert t.to_float() == pytest.approx(S, abs=1e-6)

    def test_two_steps_reach_balanced_word_image(self):
        report = nearest_reachable(target(5 / 8, 1 / 8), 2, FAST)
        assert report.distance.to_float() < 1e-9
        assert report.evaluations > 0

    def test_deterministic(self):
        a = nearest_reachable(target(0.41, 0.37), 2, FAST)
        b = nearest_reachable(target(0.41, 0.37), 2, FAST)
        assert a.distance == b.distance
        assert a.best_sequence == b.best_sequence

    def test_reported_point_matches_sequence(self):
        report = nearest_reachable(target(0.41, 0.37), 3, FAST)
        replay = apply_sequence(report.best_sequence)
        assert xy_distance(replay, report.best_point) < 1e-12
        assert xy_distance(replay, target(0.41, 0.37)) == pytest.approx(
            report.distance.to_float(), abs=1e-12
        )

    def test_large_budget(self):
        # Only k alternating forms per seed exist at budget k, and on the
        # diagonal only the XY seed's are solved, so a budget of 40 steps
        # solves 40 forms, not 2^40 patterns.
        quick = SearchConfig(max_iterations=1)
        report = nearest_reachable(target(0.4, 0.4), 40, quick)
        assert len(report.best_sequence.steps) == 40
        rows = coarse_length_profile(target(0.4, 0.4), 40, quick)
        assert len(rows) == 40
        assert len(rows[-1].best_sequence.pattern()) == 40
        ds = distances(rows)
        assert all(a >= b for a, b in zip(ds, ds[1:]))

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            nearest_reachable(target(0.4, 0.4), -1, FAST)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_targets_are_rejected(self, bad):
        with pytest.raises(ValueError, match="coordinate x"):
            nearest_reachable(target(bad, 0.3), 2, FAST)
        with pytest.raises(ValueError, match="coordinate y"):
            coarse_length_profile(target(0.3, bad), 2, FAST)
        uvw = UVWPoint(Scalar.of_float(0.1), Scalar.of_float(bad), Scalar.of_float(0.1))
        with pytest.raises(ValueError, match="coordinate v"):
            nearest_reachable_uvw(uvw, 2, FAST)
        with pytest.raises(ValueError, match="coordinate v"):
            coarse_length_profile_uvw(uvw, 2, FAST)

    def test_uvw_objective(self):
        report = nearest_reachable_uvw(
            UVWPoint(Scalar.of_float(1.0), Scalar.of_float(1.0), Scalar.of_float(1.0)),
            0,
            FAST,
        )
        assert report.distance.to_float() == 0.0
        assert report.best_sequence.seed is Seed.XY

    def test_uvw_reaches_balanced_word(self):
        goal = eval_uvw(balanced_word(2, Mode.FLOAT))
        report = nearest_reachable_uvw(goal, 2, FAST)
        assert report.distance.to_float() < 1e-7


class TestProfiles:
    def test_profile_rows(self):
        rows = coarse_length_profile(target(0.38, 0.36), 3, FAST)
        assert len(rows) == 3
        for k, row in enumerate(rows, start=1):
            assert len(row.best_sequence.pattern()) == k
            assert len(t_values(row)) == k
            assert xy_distance(apply_sequence(row.best_sequence), row.best_point) < 1e-12
        ds = distances(rows)
        assert all(a >= b for a, b in zip(ds, ds[1:]))

    def test_profile_on_reachable_target(self):
        rows = coarse_length_profile(target(S, S), 2, FAST)
        assert rows[0].distance.to_float() < 1e-9
        assert rows[1].distance.to_float() <= rows[0].distance.to_float()

    def test_uvw_profile(self):
        goal = eval_uvw(balanced_word(2, Mode.FLOAT))
        rows = coarse_length_profile_uvw(goal, 2, FAST)
        assert all(isinstance(row.best_point, UVWPoint) for row in rows)
        ds = distances(rows)
        assert all(a >= b for a, b in zip(ds, ds[1:]))
        assert ds[-1] < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            coarse_length_profile(target(0.4, 0.4), 0, FAST)

    def test_default_profile_at_the_limit_is_tight(self):
        # The optima at (1/3, 1/3) for k = 7 and 8 are 0.0037155 and
        # 0.0029302, the balanced prefix's distances.  A search stuck at the
        # 6-step optimum padded with identity steps reports 0.004866 at
        # k = 7.
        ds = distances(coarse_length_profile(target(1 / 3, 1 / 3), 8))
        assert ds[6] <= 0.0037155 + 1e-9
        assert ds[7] <= 0.0029303

    def test_profile_at_the_limit_follows_the_balanced_prefix(self):
        # The balanced prefix: seed YX, kinds B A B A ..., t_i = 2/(i + 2)
        # for the first k - 1 steps, and the last step at the minimum of the
        # squared distance, a quartic in t, over [0, 1].  The target is on
        # the diagonal, so the profile solves only XY forms and reports the
        # prefix's mirror, seed XY with kinds A B A B ..., at the same
        # distance.  Up to k = 24 the profile matches it, and every winner
        # converged.
        rows = coarse_length_profile(target(1 / 3, 1 / 3), 24)
        for k, row in enumerate(rows, start=1):
            expected = balanced_prefix_distance(k)
            assert abs(row.distance.to_float() - expected) <= 1e-10 * expected, k
            assert row.converged, k


def balanced_prefix_distance(k):
    """Distance to (1/3, 1/3) of the balanced prefix with k steps."""

    def step(kind, t, x, y):
        r = 1 - t
        return (r * r * x, r * y + t) if kind == "A" else (r * x + t, r * r * y)

    kinds = ["B" if i % 2 == 0 else "A" for i in range(k)]
    x, y = 0.0, 1.0
    for i, kind in enumerate(kinds[:-1], start=1):
        x, y = step(kind, 2 / (i + 2), x, y)
    # the squared distance after the last step is a quartic in its t
    px, py = step(kinds[-1], np.polynomial.Polynomial([0.0, 1.0]), x, y)
    roots = ((px - 1 / 3) ** 2 + (py - 1 / 3) ** 2).deriv().roots()
    ts = [0.0, 1.0] + [z.real for z in roots if abs(z.imag) < 1e-12 and 0 <= z.real <= 1]
    return min(math.hypot(u - 1 / 3, v - 1 / 3) for u, v in (step(kinds[-1], t, x, y) for t in ts))


class TestSharedWalk:
    """Profiles and single searches run the same walk over the forms: row k
    of a profile is the whole record a search with budget k returns."""

    def test_planar_profile_rows_are_single_searches(self):
        goal = target(0.38, 0.36)
        rows = coarse_length_profile(goal, 4, FAST)
        assert rows == [nearest_reachable(goal, k, FAST) for k in (1, 2, 3, 4)]

    def test_uvw_profile_rows_are_single_searches(self):
        goal = eval_uvw(balanced_word(2, Mode.FLOAT))
        rows = coarse_length_profile_uvw(goal, 4, FAST)
        assert rows == [nearest_reachable_uvw(goal, k, FAST) for k in (1, 2, 3, 4)]

    def test_exact_tie_goes_to_the_shortest_form(self, monkeypatch):
        # A stub problem whose residual is constant on each form, so the
        # costs tie exactly by construction: the XY form (A,) costs 1 and
        # every other form 1/2.  At k = 2 the one-step YX form (B,) ties
        # with both two-step forms; it comes first and is kept, padded to BB.
        def constant_problem(target_xy):
            def problem_of(seed, kinds):
                r = (1.0, 0.0) if (seed, kinds) == (Seed.XY, (StepKind.A,)) else (0.5, 0.0)
                zero_columns = [(0.0, 0.0)] * len(kinds)
                return (lambda ts: (r, None)), (lambda tape: zero_columns), len(kinds)

            return problem_of

        monkeypatch.setattr(search, "_xy_problem", constant_problem)
        # The stub's walk must not outlive the test in this thread's slot.
        monkeypatch.setattr(search._last_walk, "walk", None, raising=False)
        goal = target(0.6, 0.7)
        one = nearest_reachable(goal, 1, FAST)
        two = nearest_reachable(goal, 2, FAST)
        assert one.best_sequence.seed is Seed.YX
        assert one.best_sequence.pattern() == "B"
        assert two.distance == one.distance
        assert two.best_sequence.seed is Seed.YX
        assert two.best_sequence.pattern() == "BB"
        assert two.best_sequence.steps[0] == one.best_sequence.steps[0]
        assert two.best_sequence.steps[1][1].to_float() == 0.0


def fingerprint(result):
    """A search result by the bits of every field."""
    if isinstance(result, Scalar):
        return result.to_float().hex()
    if isinstance(result, list):
        return [fingerprint(report) for report in result]
    seq = result.best_sequence
    return (
        seq.seed,
        seq.pattern(),
        [t.to_float().hex() for _, t in seq.steps],
        [c.to_float().hex() for c in result.best_point.coords()],
        result.distance.to_float().hex(),
        result.evaluations,
        result.converged,
    )


def cold(call):
    """`call()` from an empty search slot."""
    vars(search._last_walk).clear()
    return call()


class TestResumedWalk:
    """Searches on one problem in one thread extend one walk: a call solves
    only the forms no earlier call solved, and reports what a call from an
    empty slot reports, bit for bit, `evaluations` included."""

    LIMIT = target(1 / 3, 1 / 3)
    UVW = eval_uvw(balanced_word(8, Mode.FLOAT))

    @staticmethod
    def forms_solved(monkeypatch):
        """A function giving the number of forms `_solve` has been run on."""
        residuals = []  # kept alive, so that their ids stay distinct
        solve = search._solve

        def counted_solve(residual, *args):
            residuals.append(residual)
            return solve(residual, *args)

        monkeypatch.setattr(search, "_solve", counted_solve)
        return lambda: len({id(residual) for residual in residuals})

    @staticmethod
    def assert_same_as_cold(calls):
        vars(search._last_walk).clear()
        warm = [fingerprint(call()) for call in calls]
        assert warm == [fingerprint(cold(call)) for call in calls]

    def test_a_ladder_solves_each_form_once(self, monkeypatch):
        solved = self.forms_solved(monkeypatch)
        for k in range(1, 9):
            diagonal_gap(k)
        assert solved() == 8  # 36 when every call walks from length 1
        for k in range(1, 9):
            nearest_reachable(self.LIMIT, k)
        assert solved() == 16

    def test_descending_budgets(self):
        self.assert_same_as_cold(
            [lambda k=k: nearest_reachable(self.LIMIT, k) for k in range(8, 0, -1)]
            + [lambda k=k: diagonal_gap(k) for k in range(8, 0, -1)]
        )

    def test_repeated_budget_solves_nothing_more(self, monkeypatch):
        goal = target(0.41, 0.37)
        self.assert_same_as_cold([lambda: nearest_reachable(goal, 5, FAST)] * 3)
        solved = self.forms_solved(monkeypatch)
        nearest_reachable(goal, 5, FAST)
        nearest_reachable(goal, 0, FAST)  # the empty forms bypass the slot
        assert solved() == 2

    def test_interleaved_ladders(self):
        a, b = target(0.41, 0.37), target(0.38, 0.38)
        calls = []
        for k in range(1, 5):
            calls += [
                lambda k=k: nearest_reachable(a, k, FAST),
                lambda k=k: nearest_reachable(b, k, FAST),
                lambda k=k: nearest_reachable(a, k + 1, FAST),
                lambda k=k: diagonal_gap(k, FAST),
                lambda k=k: nearest_reachable_uvw(self.UVW, k, FAST),
                lambda k=k: nearest_reachable(a, k, SearchConfig(max_iterations=20)),
            ]
        self.assert_same_as_cold(calls)

    def test_profile_then_single_calls(self):
        goal = target(0.38, 0.36)
        self.assert_same_as_cold(
            [lambda: coarse_length_profile(goal, 4, FAST)]
            + [lambda k=k: nearest_reachable(goal, k, FAST) for k in (4, 2, 6, 3)]
            + [lambda: coarse_length_profile(goal, 6, FAST)]
            + [lambda: coarse_length_profile_uvw(self.UVW, 2, FAST)]
            + [lambda k=k: nearest_reachable_uvw(self.UVW, k, FAST) for k in (3, 1)]
        )

    def test_signed_zero_targets(self):
        assert search._key("xy", (0.0, 0.4)) != search._key("xy", (-0.0, 0.4))
        plus, minus = target(0.0, 0.4), target(-0.0, 0.4)
        self.assert_same_as_cold(
            [lambda k=k, goal=goal: nearest_reachable(goal, k, FAST)
             for k in (2, 3) for goal in (plus, minus, plus)]
            + [lambda: nearest_reachable(target(0.0, -0.0), 2, FAST)]
            + [lambda: nearest_reachable(target(-0.0, 0.0), 3, FAST)]
        )

    @pytest.mark.parametrize(
        "call",
        [lambda: nearest_reachable(target(1 / 3, 1 / 3), 6), lambda: diagonal_gap(6)],
        ids=["ladder", "gap"],
    )
    def test_an_interrupted_walk_leaves_a_valid_prefix(self, monkeypatch, call):
        expected = fingerprint(cold(call))
        vars(search._last_walk).clear()
        solve = search._solve
        calls = []

        def interrupted_solve(*args):
            calls.append(args)
            if len(calls) == 13:  # partway through the walk, inside a form
                raise KeyboardInterrupt
            return solve(*args)

        with monkeypatch.context() as patched:
            patched.setattr(search, "_solve", interrupted_solve)
            with pytest.raises(KeyboardInterrupt):
                call()
        solved = self.forms_solved(monkeypatch)
        assert fingerprint(call()) == expected
        assert 0 < solved() < 6  # the forms solved before the interrupt were kept

    def test_synthesis_leaves_the_slot_alone(self, monkeypatch):
        nearest_reachable(self.LIMIT, 4)
        walk = search._last_walk.walk
        forms = list(walk[1])
        assert synthesize_word(target(0.6, 0.2)).stage == "direct"
        assert search._last_walk.walk is walk and walk[1] == forms
        solved = self.forms_solved(monkeypatch)
        nearest_reachable(self.LIMIT, 4)
        assert solved() == 0

    def test_threads_keep_their_own_walks(self):
        # three threads per target: a slot shared between threads would let
        # two walks of one problem append the same form twice
        goals = [target(0.41, 0.37), target(0.38, 0.38)] * 3

        def ladder(goal):
            return [fingerprint(nearest_reachable(goal, k, FAST)) for k in (1, 3, 2, 5, 4, 6)]

        expected = [ladder(goal) for goal in goals]
        results = {}
        threads = [
            threading.Thread(target=lambda i=i: results.__setitem__(i, ladder(goals[i])))
            for i in range(len(goals))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [results.get(i) for i in range(len(goals))] == expected


class TestDiagonalGap:
    def test_one_step_gap_is_fixed_point_offset(self):
        gap = diagonal_gap(1, FAST).to_float()
        assert gap == pytest.approx(S - 1 / 3, abs=1e-9)

    def test_gaps_positive_and_decreasing(self):
        gaps = [diagonal_gap(k, FAST).to_float() for k in range(1, 5)]
        assert all(g > 0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            diagonal_gap(0, FAST)


class TestStaircaseFloor:
    """Every form of k steps evaluates a word of at most k + 2 letters, whose
    image has x + y - 2/3 >= 1/(3(k+1)^2) (the staircase law).  A search row
    below its floor is a bug in the search or in the proof: this check is
    never loosened."""

    def test_planar_profile_rows_stay_above_the_floor(self):
        rows = coarse_length_profile(target(1 / 3, 1 / 3), 64)
        assert len(rows) == 64
        for k, row in enumerate(rows, start=1):
            assert row.distance.to_float() * (k + 1) ** 2 >= math.sqrt(2) / 6, row

    def test_diagonal_gaps_stay_above_the_floor(self):
        for k in range(1, 49):
            assert diagonal_gap(k).to_float() * (k + 1) ** 2 >= 1 / 6, k

    def test_uvw_profile_rows_stay_above_the_floor(self):
        # v + w = 6(x + y - 2/3), so the (u, v, w) distance to (0, 0, 0),
        # the image of X + Y, is at least 6/sqrt(2) times the planar excess
        origin = UVWPoint(*[Scalar.of_float(0.0)] * 3)
        rows = coarse_length_profile_uvw(origin, 32)
        for k, row in enumerate(rows, start=1):
            assert row.distance.to_float() * (k + 1) ** 2 >= math.sqrt(2), row


class TestSynthesis:
    def test_endpoint_target(self):
        result = synthesize_word(target(1.0, 0.0), FAST)
        assert result.success
        assert result.stage == "seed"
        assert result.residual == 0.0
        assert result.sequence.steps == ()
        assert format_word(normalize(sigma_to_rword(result.word))) == "X^1 Y^1"

    def test_seed_orbit_target(self):
        result = synthesize_word(target(0.25, 0.5), FAST)
        assert result.success
        assert result.stage == "seed-orbit"
        assert result.residual <= 1e-9
        text = format_word(normalize(sigma_to_rword(result.word)))
        assert text == "X^0.5 Y^1 X^0.5"

    def test_fixed_point_target(self):
        result = synthesize_word(target(S, S), FAST)
        assert result.success
        assert result.stage == "seed-orbit"
        (kind, t), = result.sequence.steps
        assert kind is StepKind.A
        assert t.to_float() == pytest.approx(S, abs=1e-12)
        exponents = [
            letter.exponent.to_float()
            for letter in normalize(sigma_to_rword(result.word)).letters
        ]
        assert exponents == pytest.approx([1 - S, 1.0, S], abs=1e-12)

    def test_diagonal_target_goes_direct(self):
        # off the seed orbits, so the numeric reach of the target solves it
        result = synthesize_word(target(0.36, 0.36), FAST)
        assert result.success
        assert result.stage == "direct"
        assert result.residual <= 1e-9

    def test_fixed_point_offset_is_on_seed_orbit(self):
        # s = (1-s)^2 puts the whole b-orbit through (s, s) on the curve
        # y = (1-x)^2, so stepping off the fixed point stays one step deep
        p = target(0.75 * S + 0.25, 0.5625 * S)
        result = synthesize_word(p, FAST)
        assert result.success
        assert result.stage == "seed-orbit"
        assert result.residual <= 1e-9

    def test_diagonal_step_target(self):
        # one b-step at t = 0.25 off the interior diagonal point (0.37, 0.37);
        # the direct reach ends in one b-step that fuses it with the b-step
        # landing on (0.37, 0.37), so splitting it at 0.25 lands there
        p = target(0.75 * 0.37 + 0.25, 0.5625 * 0.37)
        result = synthesize_word(p, FAST)
        assert result.success
        assert result.stage == "direct"
        assert result.sequence.pattern() == "AB"
        assert result.residual <= 1e-9
        first, (final_kind, final_t) = result.sequence.steps
        assert final_kind is StepKind.B
        landing_t = 1 - (1 - final_t.to_float()) / 0.75
        assert 0 <= landing_t <= 1
        landing = MapSequence(
            result.sequence.seed, (first, (StepKind.B, Scalar.of_float(landing_t)))
        )
        assert xy_distance(apply_sequence(landing), target(0.37, 0.37)) <= 1e-9

    @pytest.mark.parametrize("cap", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "x, y, shortest",
        [
            (0.019420809828158525, 0.865412341496933, 2),
            (0.23928492289067993, 0.46116458327848064, 3),
            (0.5152680043143939, 0.22323688358029925, 2),
            (0.75 * 0.37 + 0.25, 0.5625 * 0.37, 2),
        ],
    )
    def test_step_budget_is_honoured(self, x, y, shortest, cap):
        result = synthesize_word(target(x, y), SearchConfig(max_synthesis_steps=cap))
        assert result.success == (cap >= shortest), result.message
        if result.success:
            pattern = result.sequence.pattern()
            assert len(pattern) <= cap
            assert all(a != b for a, b in zip(pattern, pattern[1:])), pattern
            assert result.residual <= 1e-9
        else:
            assert result.stage == "exhausted"

    def test_zero_step_budget_leaves_only_the_seeds(self):
        no_steps = SearchConfig(max_synthesis_steps=0)
        assert synthesize_word(target(1.0, 0.0), no_steps).stage == "seed"
        # (0.25, 0.5) is one a-step from (1, 0), a step the budget does not allow
        assert synthesize_word(target(0.25, 0.5), no_steps).stage == "exhausted"

    def test_generic_targets(self):
        for x, y in ((0.6, 0.2), (0.9, 0.05), (0.45, 0.3)):
            result = synthesize_word(target(x, y), FAST)
            assert result.success, (x, y, result.message)
            assert result.residual <= 1e-9

    def test_word_is_faithful(self):
        result = synthesize_word(target(0.6, 0.2), FAST)
        through_word = eval_xy(result.word)
        assert xy_distance(through_word, target(0.6, 0.2)) <= 2e-9
        assert xy_distance(through_word, result.achieved) < 1e-10
        assert result.residual == pytest.approx(
            xy_distance(result.achieved, target(0.6, 0.2)), abs=1e-15
        )

    def test_outside_target_raises(self):
        with pytest.raises(SynthesisDomainError):
            synthesize_word(target(0.5, 0.5), FAST)
        with pytest.raises(SynthesisDomainError):
            synthesize_word(target(1 / 3, 1 / 3), FAST)

    def test_near_limit_budget_exhaustion_is_reported(self):
        tight = SearchConfig(max_synthesis_steps=3, synthesis_tolerance=1e-9)
        near = 1 / 3 + 1e-6
        assert membership(target(near, near)).status is Membership.INTERIOR_MEMBER
        result = synthesize_word(target(near, near), tight)
        assert not result.success
        assert result.stage == "exhausted"
        assert result.word is None
        assert math.isinf(result.residual)
        assert "3" in result.message

    @pytest.mark.parametrize(
        "x, y, cfg, floor",
        [
            (1 / 3 + 5e-4, 1 / 3 + 5e-4, DEFAULT_CONFIG, "0.000687581"),
            (1 / 3 + 5e-4, 1 / 3 + 2e-4, DEFAULT_CONFIG, "0.000899713"),
            (1 / 3 + 1e-6, 1 / 3 + 1e-6, SearchConfig(max_synthesis_steps=3), "0.01473"),
        ],
    )
    def test_the_floor_proves_exhaustion_without_solving(self, monkeypatch, x, y, cfg, floor):
        solved = TestResumedWalk.forms_solved(monkeypatch)
        result = synthesize_word(target(x, y), cfg)
        assert (result.stage, result.success, solved()) == ("exhausted", False, 0)
        cap = cfg.max_synthesis_steps
        assert f"the staircase floor proves that no sequence of <= {cap} steps" in result.message
        assert f"the floor is {floor} from the target" in result.message

    def test_a_diagonal_target_past_the_floor_solves_every_form(self, monkeypatch):
        # x + y - 2/3 = 0.0022 clears the cap-12 floor 1/(3 * 13^2) = 0.00197
        t = 1 / 3 + 0.0011
        assert search._floor_distance((t, t), DEFAULT_CONFIG) is None
        solved = TestResumedWalk.forms_solved(monkeypatch)
        result = synthesize_word(target(t, t))
        assert solved() == DEFAULT_CONFIG.max_synthesis_steps
        assert (result.stage, result.sequence.pattern()) == ("direct", "AB" * 6)

    def test_a_budget_limited_exhaustion_says_so(self, monkeypatch):
        # two steps reach this target, and the floor of one step is below it
        x, y = 0.019420809828158525, 0.865412341496933
        solved = TestResumedWalk.forms_solved(monkeypatch)
        result = synthesize_word(target(x, y), SearchConfig(max_synthesis_steps=1))
        assert (result.stage, solved()) == ("exhausted", 2)
        assert result.message.startswith("no sequence of <= 1 steps reached the target")

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_the_floor_rules_out_only_what_the_solver_misses(self, monkeypatch, cap):
        # Region targets with x + y - 2/3 up to 1.5 times the floor of the
        # cap, 1/(3(cap+1)^2): each the floor proves exhausted is exhausted
        # with the floor switched off too.
        cfg = SearchConfig(max_iterations=300, max_synthesis_steps=cap)
        rnd = random.Random(cap)
        band = 1.5 / (3 * (cap + 1) ** 2)
        proven = 0
        for _ in range(30):
            while True:
                x = rnd.uniform(1 / 3, 0.45)
                y = 2 / 3 - x + rnd.uniform(0.0, band)
                if membership(target(x, y)).status is Membership.INTERIOR_MEMBER:
                    break
            if search._floor_distance((x, y), cfg) is None:
                continue
            proven += 1
            with monkeypatch.context() as unproven:
                unproven.setattr(search, "_floor_distance", lambda *args: None)
                assert synthesize_word(target(x, y), cfg).stage == "exhausted", (x, y)
        assert proven >= 10

    def test_deterministic(self):
        a = synthesize_word(target(0.36, 0.36), FAST)
        b = synthesize_word(target(0.36, 0.36), FAST)
        assert a.sequence == b.sequence
        assert a.residual == b.residual

    def test_random_admissible_targets(self):
        rnd = random.Random(404)
        done = 0
        while done < 10:
            x, y = rnd.uniform(0.0, 1.0), rnd.uniform(0.0, 1.0)
            p = target(x, y)
            if max(x, y) < 0.45 or x == y:
                continue
            if membership(p).status is not Membership.INTERIOR_MEMBER:
                continue
            result = synthesize_word(p, FAST)
            assert result.success, (x, y, result.message)
            assert result.residual <= 1e-9
            done += 1


class TestOneForwardPass:
    """Each point the solver evaluates costs one fold: the Jacobian only
    sweeps the tape of the residual call back."""

    @staticmethod
    def counting(monkeypatch, name):
        calls = []
        original = getattr(search, name)

        def wrapped(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(search, name, wrapped)
        return calls

    def test_planar_search_folds_once_per_evaluation(self, monkeypatch):
        folds = self.counting(monkeypatch, "_fold_xy")
        report = nearest_reachable(target(1 / 3, 1 / 3), 4, FAST)
        # one more fold builds the report's point
        assert len(folds) == report.evaluations + 1

    def test_uvw_search_folds_once_per_evaluation(self, monkeypatch):
        folds = self.counting(monkeypatch, "_fold_xyu")
        report = nearest_reachable_uvw(eval_uvw(balanced_word(8, Mode.FLOAT)), 3, FAST)
        assert len(folds) == report.evaluations + 1

    def test_each_objective_folds_with_its_own_kernel(self, monkeypatch):
        planar = self.counting(monkeypatch, "_fold_xy")
        area = self.counting(monkeypatch, "_fold_xyu")
        coarse_length_profile_uvw(eval_uvw(balanced_word(8, Mode.FLOAT)), 3, FAST)
        assert (len(planar), len(area) > 0) == (0, True)
        area.clear()
        coarse_length_profile(target(0.38, 0.36), 3, FAST)
        nearest_reachable(target(1 / 3, 1 / 3), 3, FAST)
        diagonal_gap(3, FAST)
        synthesize_word(target(0.36, 0.36), FAST)
        assert (len(area), len(planar) > 0) == (0, True)

    def test_diagonal_gap_lands_once_per_evaluation(self, monkeypatch):
        landings = self.counting(monkeypatch, "_landing")
        folds = self.counting(monkeypatch, "_fold_xy")
        evaluations = []
        solve = search._solve

        def counted_solve(*args):
            solved = solve(*args)
            evaluations.append(solved.evaluations)
            return solved

        monkeypatch.setattr(search, "_solve", counted_solve)
        diagonal_gap(4, FAST)
        assert len(landings) == len(folds) == sum(evaluations) > 0


class TestPinnedAnswers:
    """Answers of the default configuration, bit for bit, from the start
    rule of `_solved_forms`; a change to the solver's arithmetic or to the
    starts shows here first."""

    def test_diagonal_gaps(self):
        assert [diagonal_gap(k).to_float().hex() for k in range(1, 9)] == [
            "0x1.8e661e256c058p-5",
            "0x1.43cbb5b0e43c0p-6",
            "0x1.61d2afdd09080p-7",
            "0x1.befd5e9bf1600p-8",
            "0x1.343b6720de2c0p-8",
            "0x1.c301d7a9c5980p-9",
            "0x1.585cea0196080p-9",
            "0x1.0f953b0ed3e00p-9",
        ]

    def test_planar_profile_off_the_diagonal(self):
        # Row 1 is the YX form (B,); from k = 2 on, the XY form (A, B) reaches
        # the target and is padded after its A step.
        rows = coarse_length_profile(target(0.38, 0.36), 6)
        a, b = "0x1.da52217cb0c76p-1", "0x1.81a9b3467ab60p-2"
        assert [(row.distance.to_float().hex(), row.best_sequence.pattern()) for row in rows] == [
            ("0x1.f8d93ecefa176p-7", "B"),
            *(("0x0.0p+0", "A" * (k - 1) + "B") for k in range(2, 7)),
        ]
        assert [t.hex() for t in t_values(rows[0])] == ["0x1.914e5d9cfc323p-2"]
        for k, row in enumerate(rows[1:], start=2):
            assert [t.hex() for t in t_values(row)] == [a] + ["0x0.0p+0"] * (k - 2) + [b]

    @pytest.mark.parametrize(
        "k, distance, evaluations, seed, pattern, ts",
        [
            # The forms (XY; A) and (YX; B) tie but for rounding at k = 1.
            (1, "0x1.0ec7589a55417p+0", 278, Seed.YX, "B", ["0x1.6e640874162bep-1"]),
            (
                2,
                "0x1.14ea0d4e8ccfdp-3",
                596,
                Seed.XY,
                "AB",
                ["0x1.5350033893df8p-1", "0x1.595ff98eae413p-2"],
            ),
        ],
    )
    def test_uvw_search_at_a_balanced_word(self, k, distance, evaluations, seed, pattern, ts):
        report = nearest_reachable_uvw(eval_uvw(balanced_word(8, Mode.FLOAT)), k)
        assert report.distance.to_float().hex() == distance
        assert report.evaluations == evaluations
        assert report.best_sequence.seed is seed
        assert report.best_sequence.pattern() == pattern
        assert [t.to_float().hex() for _, t in report.best_sequence.steps] == ts

    @pytest.mark.parametrize(
        "x, y, stage, pattern, ts",
        [
            (
                0.019420809828158525,
                0.865412341496933,
                "direct",
                "AB",
                ["0x1.bd5075dc5d269p-1", "0x1.479716df0a574p-9"],
            ),
            (
                0.23928492289067993,
                0.46116458327848064,
                "direct",
                "ABA",
                ["0x1.4195ca4797e9ep-1", "0x1.410f4848f8543p-2", "0x1.e085bd6738c89p-3"],
            ),
            (
                0.5152680043143939,
                0.22323688358029925,
                "direct",
                "AB",
                ["0x1.b1a7ce7af9313p-2", "0x1.1888fab9519f5p-2"],
            ),
        ],
    )
    def test_synthesis_of_criterion_10_targets(self, x, y, stage, pattern, ts):
        result = synthesize_word(target(x, y))
        assert result.stage == stage
        assert result.sequence.seed is Seed.XY
        assert result.sequence.pattern() == pattern
        assert [t.to_float().hex() for _, t in result.sequence.steps] == ts

    def test_synthesis_near_the_limit_is_exhausted(self):
        near = 1 / 3 + 5e-4
        result = synthesize_word(target(near, near))
        assert (result.stage, result.success, result.sequence) == ("exhausted", False, None)
