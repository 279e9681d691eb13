"""The randomized verification suites at reduced trial counts."""

import math
import random
import re

import pytest

from nilwords import dynamics, lie_core, verify, words
from nilwords.dynamics import XYPoint
from nilwords.region import _INTERIOR, EpsilonPolicy, Membership, _classify, membership
from nilwords.scalar import Mode, Scalar
from nilwords.verify import SUITE_NAMES, _random_interior_point, run_suite
from nilwords.words import SigmaValidationError


def test_suite_names():
    assert SUITE_NAMES == ("algebra", "commutation", "invariance", "convergence")


CHECK_NAMES = {
    "algebra": ("associativity", "jacobi", "step3", "abelianization", "identity-inverse"),
    "commutation": ("word-vs-space-a", "word-vs-space-b", "projection-a", "projection-b"),
    "invariance": ("invariance-a", "invariance-b"),
    "convergence": ("rate-3-over-n", "monotone-norm", "planar-rate", "checkpoints-n2-n3"),
}
DETAILS = {
    "algebra": "0 violations in 40 trials",
    "commutation": "0 violations in 40 trials",
    "invariance": "0 Outside verdicts in 40 trials",
}


@pytest.mark.parametrize("suite", SUITE_NAMES)
@pytest.mark.parametrize("mode", (Mode.EXACT, Mode.FLOAT))
@pytest.mark.parametrize("seed", (1, 7, 1729))
def test_small_runs_pass(suite, mode, seed):
    # The check results are pinned: every check passes with no violation,
    # whatever inputs the samplers draw from the seed.
    result = run_suite(suite, mode=mode, trials=40, seed=seed)
    assert result.passed, [c for c in result.checks if not c.passed]
    assert result.suite == suite
    assert result.mode is mode
    assert result.trials == 40
    assert result.seconds >= 0.0
    details = [DETAILS.get(suite, "n up to 40")] * len(CHECK_NAMES[suite])
    if suite == "convergence":
        details[-1] = "exact small cases"
    assert [(c.name, c.passed, c.detail) for c in result.checks] == list(
        zip(CHECK_NAMES[suite], [True] * len(details), details)
    )


def test_deterministic_given_seed():
    a = run_suite("algebra", mode=Mode.FLOAT, trials=25, seed=99)
    b = run_suite("algebra", mode=Mode.FLOAT, trials=25, seed=99)
    assert [c.detail for c in a.checks] == [c.detail for c in b.checks]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense", trials=1)


def _unit_square_point(rnd):
    """The reference float draw: candidates from the unit square, classified
    as points by `membership`, until one is an interior member."""
    policy = EpsilonPolicy.for_mode(Mode.FLOAT)
    while True:
        x, y = rnd.random(), rnd.random()
        if membership(XYPoint.of_floats(x, y), policy).status is Membership.INTERIOR_MEMBER:
            return x, y


def _in_float_cover(x, y):
    """Whether the double (x, y) of the unit square lies in a cell of the
    float sampler's cover: cell u of strip j is column u + shifts[j]."""
    firsts, shifts = verify._float_cover()
    i, j = int(x * 1024), int(y * 1024)  # exact: 1024 is a power of 2
    return firsts[j] <= i - shifts[j] < firsts[j + 1]


def _ulp_walk(v, steps):
    """The doubles within `steps` ulps of v, v included."""
    below, above = [v], [v]
    for _ in range(steps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


# The four curves that bound the interior, each as a function of its free
# coordinate t, with the coordinate it gives: 0 for x, 1 for y.
CURVES = (
    (lambda t: (0.75 * (1 - t) ** 2, t), 0),
    (lambda t: (t, 0.75 * (1 - t) ** 2), 1),
    (lambda t: ((1 - t) ** 2, t), 0),
    (lambda t: (t, (1 - t) ** 2), 1),
)


def test_every_float_interior_double_lies_in_the_cover():
    # Uniform doubles, then every double within 4 ulps of each curve, in
    # the coordinate the curve gives, at seeded values of the free one:
    # there float and exact `_classify` can disagree.
    rnd = random.Random(2024)
    uniform = [(rnd.random(), rnd.random()) for _ in range(200_000)]
    near = []
    for curve, given in CURVES:
        for _ in range(5_000):
            point = list(curve(rnd.random()))
            for v in _ulp_walk(point[given], 4):
                point[given] = v
                near.append(tuple(point))
    for points, at_least in ((uniform, 20_000), (near, 90_000)):
        interior = [p for p in points if _classify(*p, 1, 0) is _INTERIOR]
        assert len(interior) >= at_least
        assert [p for p in interior if not _in_float_cover(*p)] == []


def test_float_draws_are_interior_members():
    rnd = random.Random(31)
    policy = EpsilonPolicy.for_mode(Mode.FLOAT)
    for _ in range(5_000):
        x, y, d = _random_interior_point(rnd, Mode.FLOAT)
        assert d == 1 and type(x) is float and type(y) is float
        verdict = membership(XYPoint.of_floats(x, y), policy)
        assert verdict.status is Membership.INTERIOR_MEMBER


def test_float_draws_are_distributed_as_unit_square_draws():
    # A two-sample chi-square on a 32 x 32 grid: equal sample sizes give
    # sum (a - b)^2 / (a + b) over the cells either sample hits, with one
    # degree of freedom fewer than cells.  It has mean df and standard
    # deviation sqrt(2 df), about 18 here; the bound is 4 of those above.
    n = 20_000
    new, old = random.Random(5), random.Random(6)
    counts = {}
    for sample, draw in ((0, lambda: _random_interior_point(new, Mode.FLOAT)[:2]),
                         (1, lambda: _unit_square_point(old))):
        for _ in range(n):
            x, y = draw()
            cell = counts.setdefault((int(32 * x), int(32 * y)), [0, 0])
            cell[sample] += 1
    df = len(counts) - 1
    chi2 = sum((a - b) ** 2 / (a + b) for a, b in counts.values())
    assert df > 150
    assert chi2 < df + 4 * math.sqrt(2 * df)


def test_a_float_draw_classifies_few_candidates(monkeypatch):
    # A count, not a timing: the cover holds 113 259 cells and the interior
    # about 0.96 of their area, so a draw classifies about 1.04 candidates;
    # the unit square took about 9.6.
    _random_interior_point(random.Random(0), Mode.FLOAT)
    count = _counting_classify(monkeypatch)
    rnd = random.Random(17)
    for _ in range(10_000):
        _random_interior_point(rnd, Mode.FLOAT)
    assert count[0] <= 11_000


def test_both_tables_bisect_each_grid_row_once(monkeypatch):
    tables = (verify._grid_runs, verify._interior_grid, verify._float_cover)
    for table in tables:
        table.cache_clear()
    interior_run, rows = verify._interior_run, []

    def counting(columns, y, d, eps):
        rows.append(y)
        return interior_run(columns, y, d, eps)

    monkeypatch.setattr(verify, "_interior_run", counting)
    try:
        for mode in (Mode.FLOAT, Mode.EXACT, Mode.FLOAT):
            _random_interior_point(random.Random(1), mode)
        assert rows == list(range(1, 1024))
        assert verify._float_cover()[0][-1] == 113_259
    finally:
        for table in tables:
            table.cache_clear()


def test_float_algebra_draws_are_uniform_draws_bit_for_bit():
    new, old = random.Random(1729), random.Random(1729)
    for _ in range(2_000):
        vector = verify._rand_vector(new, Mode.FLOAT)
        assert [v.hex() for v in vector] == [old.uniform(-1.0, 1.0).hex() for _ in range(5)]
    assert new.getstate() == old.getstate()


class _Fixed:
    """A generator whose only method returns u and records its bound."""

    def __init__(self, u):
        self.u, self.bounds = u, []

    def randrange(self, n):
        self.bounds.append(n)
        return self.u


def _every_exact_draw():
    """The exact draws for u = 0 .. N-1, N the bound the sampler asks for,
    with the bounds of each draw's `randrange` calls."""
    probe = _Fixed(0)
    _random_interior_point(probe, Mode.EXACT)
    draws, bounds = [], []
    for u in range(probe.bounds[0]):
        rnd = _Fixed(u)
        draws.append(_random_interior_point(rnd, Mode.EXACT))
        bounds.append(rnd.bounds)
    return draws, bounds


def test_exact_interior_points_are_the_membership_interior_in_row_major_order():
    # Brute force: classify every point of the grid {1..1023}^2 / 1024 by
    # `membership`, row by row.
    policy = EpsilonPolicy.for_mode(Mode.EXACT)
    grid = [(i, Scalar.exact(i, 1024)) for i in range(1, 1024)]
    interior = [
        (px, py, 1024)
        for py, y in grid
        for px, x in grid
        if membership(XYPoint(x, y), policy).status is Membership.INTERIOR_MEMBER
    ]
    draws, _ = _every_exact_draw()
    assert len(interior) == 109_202
    assert draws == interior


def test_exact_draws_are_uniform_over_the_grid_interior():
    # One randrange(N) call per draw, and u -> point one-to-one from
    # range(N) onto N points: every interior point has probability 1/N.
    draws, bounds = _every_exact_draw()
    n = len(draws)
    assert bounds == [[n]] * n
    assert len(set(draws)) == n
    assert all(0 < x < 1024 and 0 < y < 1024 and d == 1024 for x, y, d in draws)


def _counting_classify(monkeypatch):
    """Replace the `_classify` the sampler calls by one that counts."""
    classify, count = verify._classify, [0]

    def counting(*args):
        count[0] += 1
        return classify(*args)

    monkeypatch.setattr(verify, "_classify", counting)
    return count


def test_an_exact_invariance_trial_classifies_only_its_two_images(monkeypatch):
    # Once the table of the grid's interior is built, a trial draws its
    # point without classifying candidates: only the two images are.
    _random_interior_point(random.Random(0), Mode.EXACT)
    count = _counting_classify(monkeypatch)
    counts = []
    for trials in (10, 60):
        count[0] = 0
        run_suite("invariance", Mode.EXACT, trials, 1)
        counts.append(count[0])
    assert counts[1] - counts[0] == 100


@pytest.mark.parametrize("suite", SUITE_NAMES)
@pytest.mark.parametrize("trials", (-5, 0, True, 2.0, "3"))
def test_trials_must_be_a_positive_int(suite, trials):
    with pytest.raises(ValueError, match=re.escape(repr(trials))):
        run_suite(suite, Mode.EXACT, trials, 1)


@pytest.mark.parametrize("mode", (Mode.EXACT, Mode.FLOAT))
def test_one_trial_runs(mode):
    for suite in SUITE_NAMES:
        assert run_suite(suite, mode, 1, 1).passed


# Each mutant adds a small wrong term to one kernel a suite checks, keeping
# the law's weights so that exact trials still run on ints.
def _product_mutant(product):
    def mutant(a, b):
        c1, c2, c3, c4, c5 = product(a, b)
        return (c1, c2, c3, c4 + a[0] * b[0] * b[1], c5)
    return mutant


def _bracket_mutant(bracket):
    def mutant(a, b):
        c1, c2, c3, c4, c5 = bracket(a, b)
        return (c1, c2, c3 + a[0] * b[0], c4, c5)
    return mutant


def _uvw_mutant(map_uvw):
    def mutant(k, q, u, v, w, scale):
        u, v, w = map_uvw(k, q, u, v, w, scale)
        return (u, v, w + k * q * q * scale**3)
    return mutant


def _word_mutant(word_map):
    # Still a Sigma word, but with the Y-blocks in reverse order.
    def mutant(xs, ys, k, q, d):
        xs, ys, d = word_map(xs, ys, k, q, d)
        return xs, ys[::-1], d
    return mutant


def _planar_mutant(map_xy):
    # Adds t to y, which sends points near y = 1 out of the region.
    def mutant(k, q, x, y, d):
        image_x, image_y, image_d = map_xy(k, q, x, y, d)
        return (image_x, image_y + k * q * d, image_d)
    return mutant


def _project_mutant(to_plane):
    def mutant(u, v, w, scale):
        x, y, d = to_plane(u, v, w, scale)
        return (x + d, y, d)
    return mutant


def _letters_mutant(letters):
    # Adds 1 to w = c5 of every unit-mass state, as c1^2 c2 of weight 3.  The
    # term added to the start state (s1, s2, ...) is taken back, so a state
    # extended from a mutant state is off by c1^2 c2 too, not by a sum.
    def mutant(is_x, ts, state):
        c1, c2, c3, c4, c5 = letters(is_x, ts, state)
        s1, s2 = state[:2]
        return (c1, c2, c3, c4, c5 + c1 * c1 * c2 - s1 * s1 * s2)
    return mutant


MUTANTS = [
    ("algebra", lie_core, "_product", _product_mutant, {"associativity", "identity-inverse"}),
    ("algebra", lie_core, "_bracket", _bracket_mutant, {"jacobi"}),
    ("commutation", dynamics, "_map_a_uvw", _uvw_mutant, {"word-vs-space-a", "projection-a"}),
    ("commutation", words, "_word_map_b", _word_mutant, {"word-vs-space-b"}),
    ("invariance", dynamics, "_map_a_xy", _planar_mutant, {"invariance-a"}),
    ("convergence", dynamics, "_project", _project_mutant, {"planar-rate", "checkpoints-n2-n3"}),
    ("convergence", lie_core, "_letters", _letters_mutant,
     {"rate-3-over-n", "planar-rate", "checkpoints-n2-n3"}),
]


@pytest.mark.parametrize("mode", (Mode.EXACT, Mode.FLOAT))
@pytest.mark.parametrize(
    "suite, module, kernel, mutate, tripped", MUTANTS, ids=[m[2] for m in MUTANTS]
)
def test_every_suite_catches_a_broken_kernel(
    monkeypatch, mode, suite, module, kernel, mutate, tripped
):
    monkeypatch.setattr(module, kernel, mutate(getattr(module, kernel)))
    result = run_suite(suite, mode, 60, 7)
    assert not result.passed
    failed = {c.name for c in result.checks if not c.passed}
    assert failed == tripped
    for check in result.checks:
        if check.name in tripped:
            assert not check.detail.startswith("0 ")


@pytest.mark.parametrize("mode", (Mode.EXACT, Mode.FLOAT))
def test_commutation_checks_the_sigma_rules_of_mapped_words(monkeypatch, mode):
    word_map = words._word_map_a

    def heavy(xs, ys, k, q, d):
        xs, ys, d = word_map(xs, ys, k, q, d)
        return xs[:-1] + [2 * xs[-1]], ys, d

    monkeypatch.setattr(words, "_word_map_a", heavy)
    with pytest.raises(SigmaValidationError, match="X-exponents sum to"):
        run_suite("commutation", mode, 60, 7)


@pytest.mark.parametrize("mode", (Mode.EXACT, Mode.FLOAT))
def test_convergence_checks_the_unit_mass_of_the_states(monkeypatch, mode):
    letters = lie_core._letters

    def heavy(is_x, ts, state):
        c1, c2, c3, c4, c5 = letters(is_x, ts, state)
        return (2 * c1, c2, c3, c4, c5)

    monkeypatch.setattr(lie_core, "_letters", heavy)
    with pytest.raises(dynamics.UnitMassError, match=r"masses \(2(\.0)?, 1(\.0)?\)"):
        run_suite("convergence", mode, 60, 7)


@pytest.mark.parametrize("mode", (Mode.EXACT, Mode.FLOAT))
@pytest.mark.parametrize("suite", ("algebra", "commutation", "invariance", "convergence"))
def test_no_scalar_is_made_per_trial(monkeypatch, suite, mode):
    made = 0
    init = Scalar.__init__

    def counting(self, *args):
        nonlocal made
        made += 1
        init(self, *args)

    monkeypatch.setattr(Scalar, "__init__", counting)
    counts = []
    for trials in (10, 60):
        made = 0
        run_suite(suite, mode, trials, 3)
        counts.append(made)
    assert counts[0] == counts[1]


def _counting_kernels(monkeypatch):
    """Wrap `_letters` and `_check_sigma`, and count the letters and calls."""
    letters, check_sigma = lie_core._letters, words._check_sigma
    counts = {"letters": 0, "check_sigma": 0}

    def counting_letters(is_x, ts, state):
        counts["letters"] += len(ts)
        return letters(is_x, ts, state)

    def counting_check_sigma(*args):
        counts["check_sigma"] += 1
        return check_sigma(*args)

    monkeypatch.setattr(lie_core, "_letters", counting_letters)
    monkeypatch.setattr(words, "_check_sigma", counting_check_sigma)
    return counts


@pytest.mark.parametrize("mode", (Mode.EXACT, Mode.FLOAT))
@pytest.mark.parametrize("n_max", (1, 2, 3, 512))
def test_convergence_letter_and_sigma_counts(monkeypatch, mode, n_max):
    # A count, not a timing, over words 1 .. n = max(n_max, 3); words 2 and 3
    # are the checkpoints.  An exact word is the one before it and one unit
    # block: two letters each, and the Sigma rules of word 1 only.  A float
    # word has its own block 1/n: 2n letters and one Sigma check each.
    counts = _counting_kernels(monkeypatch)
    assert run_suite("convergence", mode, n_max, 1).passed
    n = max(n_max, 3)
    if mode is Mode.EXACT:
        assert counts == {"letters": 2 * n, "check_sigma": 1}
    else:
        assert counts == {"letters": n * (n + 1), "check_sigma": n}


def test_each_algebra_table_is_every_scaled_draw_with_duplicates():
    # A uniform choice from a table is a uniform pair (p, q) only if every
    # pair keeps its entry: 0 appears 8 times, 840 as 1 * 840 and 2 * 420.
    scales = (840, 840, 840**2, 840**3, 840**3)
    assert len(verify._ALGEBRA_TABLES) == 5
    for table, s in zip(verify._ALGEBRA_TABLES, scales):
        assert len(table) == 200
        assert sorted(table) == sorted(p * (s // q) for p in range(-12, 13) for q in range(1, 9))
        assert table.count(0) == 8
        assert len(set(table)) < 200


class _Recording:
    """A generator whose `choice` records the sequences it draws from."""

    def __init__(self):
        self.drawn_from = []

    def choice(self, table):
        self.drawn_from.append(table)
        return table[-1]


def test_an_exact_algebra_coordinate_is_one_choice_from_its_table():
    rnd = _Recording()
    vector = verify._rand_vector(rnd, Mode.EXACT)
    assert rnd.drawn_from == list(verify._ALGEBRA_TABLES)
    assert vector == (12 * 105, 12 * 105, 12 * 840**2 // 8, 12 * 840**3 // 8, 12 * 840**3 // 8)
