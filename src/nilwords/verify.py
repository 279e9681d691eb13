"""Verification suites: randomized property checks runnable from the CLI.

Four suites cover the load-bearing identities: `algebra` (group and bracket
axioms), `commutation` (word-level maps against the induced point maps),
`invariance` (the region is closed under the maps for t < 1), and
`convergence` (the balanced words approach the limit element at rate 3/n).
Exact mode demands equality; float mode uses the documented tolerances.

All four suites run on raw values, through the private kernels that the
public functions wrap, so each law has one copy: `lie_core._product` and
`_bracket` (`multiply`, `bracket`), `lie_core._letters` (`evaluate_word`,
`eval_uvw`), `words._word_map_a`, `_word_map_b` and `_check_sigma`
(`word_map_a`, `word_map_b`, `SigmaWord`), `dynamics._map_a_uvw`,
`_map_b_uvw`, `_project`, `_map_a_xy` and `_map_b_xy` (the point maps and
`project`), and `region._classify` (`membership`).  The convergence suite's
kernels are `_letters`, `_check_sigma` and `_project`: it walks the states
of `balanced_word(n)` for n = 1 .. n_max through `dynamics._balanced_states`.
An exact word n is word n - 1 and one more unit block, so the exact suite
extends one integer state by two letters a word and is O(n_max); a float
word has its own block 1/n and is evaluated afresh, O(n_max^2) in all.
Exact trials run the kernels on ints scaled by a common denominator, so
every exact check compares ints; float trials run them on the doubles the
public functions would see.  Only the samplers, which draw different inputs
per mode, and the float division of the commutation suite test the mode;
every check is one computation for both modes.  An exact algebra
coordinate is one `choice` from a table of its 200 scaled values, and an
exact invariance point one `randrange` call, an index into a table of the
interior run of each row of the grid {1..1023}^2 / 1024.  A float point is
drawn by rejection from a cover of the region: the cells [i, i+1) x
[j, j+1) / 1024 that can hold an interior double, one run of columns per
strip, read off the same grid rows with one column of margin on each side.
That margin is about 10^12 times the ulp-level disagreement between float
and exact `_classify` near a curve.  A candidate is one `randrange` call
for the cell and two `random` calls inside it, and `_classify` accepts
about 1 in 1.04 of them (1 in 9.6 from the unit square).  Both tables are
built from one pass over the rows on the first draw and cached.  Each
suite looks up the laws and maps it checks in their modules when it
starts (and `_balanced_states` reads `_letters` and `_check_sigma` at each
word), so a test can replace one.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from . import dynamics, lie_core, words
from .region import _INTERIOR, Membership, _classify, _interior_run
from .scalar import Mode, _close, _lift

__all__ = ["CheckResult", "SuiteResult", "SUITE_NAMES", "run_suite"]

FLOAT_ALGEBRA_TOL = 1e-12
FLOAT_COMMUTATION_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    mode: Mode
    trials: int
    passed: bool
    checks: List[CheckResult]
    seconds: float


def _tuples_close(mode: Mode, tol: float) -> Callable[[tuple, tuple], bool]:
    """Coordinatewise `Scalar.close_to` of two raw tuples."""
    return lambda a, b: all(_close(mode, x, y, tol) for x, y in zip(a, b))


# Exact algebra draws are p/q with p in -12..12 and q in 1..8, and 840 =
# lcm(1..8), so scaling a draw of weight w by s = 840**w gives the int
# p * (s // q).  Each weight's table holds that int for all 200 pairs (p, q),
# duplicates kept, so a uniform choice from it is a uniform pair.
_ALGEBRA_TABLES = tuple(
    tuple(p * (s // q) for p in range(-12, 13) for q in range(1, 9))
    for s in (840, 840, 840**2, 840**3, 840**3)
)


def _rand_vector(rnd: random.Random, mode: Mode) -> tuple:
    """Five raw coordinates: p/q with p in -12..12 and q in 1..8, scaled by
    (L, L, L^2, L^3, L^3) with L = 840 and drawn with one `choice` each from
    `_ALGEBRA_TABLES`, or five doubles from [-1, 1]: 2 random() - 1, the
    doubles and generator state of `rnd.uniform(-1.0, 1.0)`, which computes
    -1 + 2 random(), without its call."""
    if mode is Mode.EXACT:
        return tuple(rnd.choice(table) for table in _ALGEBRA_TABLES)
    r = rnd.random
    return (2.0 * r() - 1.0, 2.0 * r() - 1.0, 2.0 * r() - 1.0, 2.0 * r() - 1.0,
            2.0 * r() - 1.0)


def _suite_algebra(mode: Mode, trials: int, seed: int) -> List[CheckResult]:
    """The group and bracket axioms on `_product` and `_bracket`.  Both laws
    are weighted-homogeneous, so exact draws scaled by a common L stay ints
    under every product, bracket, sum and negation, and each exact check is
    the equality of the scaled results."""
    rnd = random.Random(seed)
    product, bracket = lie_core._product, lie_core._bracket
    close = _tuples_close(mode, FLOAT_ALGEBRA_TOL)
    zero = (0, 0, 0, 0, 0)
    failures = {"associativity": 0, "jacobi": 0, "step3": 0, "abelianization": 0,
                "identity-inverse": 0}
    for _ in range(trials):
        a = _rand_vector(rnd, mode)
        b = _rand_vector(rnd, mode)
        c = _rand_vector(rnd, mode)
        d = _rand_vector(rnd, mode)
        if not close(product(product(a, b), c), product(a, product(b, c))):
            failures["associativity"] += 1
        jac = tuple(
            x + y + z
            for x, y, z in zip(
                bracket(a, bracket(b, c)), bracket(b, bracket(c, a)), bracket(c, bracket(a, b))
            )
        )
        if not close(jac, zero):
            failures["jacobi"] += 1
        if bracket(a, bracket(b, bracket(c, d))) != zero:
            failures["step3"] += 1
        ab = product(a, b)
        if not close(ab[:2], (a[0] + b[0], a[1] + b[1])):
            failures["abelianization"] += 1
        unit = product(a, tuple(-x for x in a))
        if not (close(unit, zero) and close(product(zero, a), a)):
            failures["identity-inverse"] += 1
    return [
        CheckResult(name, count == 0, f"{count} violations in {trials} trials")
        for name, count in failures.items()
    ]


def _random_sigma_word(rnd: random.Random, mode: Mode, max_blocks: int = 20) -> tuple:
    """Block exponents (xs, ys, d) of a random Sigma word, each exponent over
    d: ints over the lcm of the two sums in exact mode, doubles over 1."""
    n = rnd.randint(1, max_blocks)
    xs = [rnd.randint(0, 9) for _ in range(n)]
    ys = [rnd.randint(0, 9) for _ in range(n)]
    if sum(xs) == 0:
        xs[rnd.randrange(n)] = 1
    if sum(ys) == 0:
        ys[rnd.randrange(n)] = 1
    sx, sy = sum(xs), sum(ys)
    if mode is Mode.EXACT:
        d = math.lcm(sx, sy)
        return [a * (d // sx) for a in xs], [b * (d // sy) for b in ys], d
    return [a / sx for a in xs], [b / sy for b in ys], 1


def _rand_parameter(rnd: random.Random, mode: Mode) -> tuple:
    """A map parameter t = k/97, k in 0..96, as (k, 97) in exact mode and as
    (t, 1) in float mode."""
    k = rnd.randint(0, 96)
    return (k, 97) if mode is Mode.EXACT else (k / 97, 1)


def _suite_commutation(mode: Mode, trials: int, seed: int) -> List[CheckResult]:
    """Word maps against the (u, v, w) maps, and those against the planar
    maps under `project`.  A word (xs, ys, d) and its images are checked by
    the Sigma rules, as `SigmaWord` checks them, and evaluated by `_letters`
    to their (u, v, w) scaled by d; the unit masses that `extract_uvw`
    checks on the element follow from those rules.  Exact images of scale d under t = k/q
    have scale q d on both routes, so they compare as ints; planar triples
    compare by cross-multiplying.  Float triples are divided out first, as
    `project` does, so each float check sees the public functions' doubles."""
    rnd = random.Random(seed)
    check_sigma, letters = words._check_sigma, lie_core._letters
    word_map_a, word_map_b = words._word_map_a, words._word_map_b
    map_a_uvw, map_b_uvw = dynamics._map_a_uvw, dynamics._map_b_uvw
    to_plane, map_a_xy, map_b_xy = dynamics._project, dynamics._map_a_xy, dynamics._map_b_xy
    close = _tuples_close(mode, FLOAT_COMMUTATION_TOL)
    divide = mode is Mode.FLOAT

    def uvw(xs, ys, d):
        check_sigma(xs, ys, d, mode)
        pairs = [v for pair in zip(xs, ys) for v in pair]
        return letters((True, False) * len(xs), pairs, (0, 0, 0, 0, 0))[2:]

    def plane(p, scale):
        x, y, d = to_plane(*p, scale)
        return (x / d, y / d, 1) if divide else (x, y, d)

    def same_point(a, b):
        return close((a[0] * b[2], a[1] * b[2]), (b[0] * a[2], b[1] * a[2]))

    failures = {"word-vs-space-a": 0, "word-vs-space-b": 0, "projection-a": 0,
                "projection-b": 0}
    for _ in range(trials):
        xs, ys, d = _random_sigma_word(rnd, mode)
        k, q = _rand_parameter(rnd, mode)
        p = uvw(xs, ys, d)
        via_space_a = map_a_uvw(k, q, *p, d)
        if not close(uvw(*word_map_a(xs, ys, k, q, d)), via_space_a):
            failures["word-vs-space-a"] += 1
        via_space_b = map_b_uvw(k, q, *p, d)
        if not close(uvw(*word_map_b(xs, ys, k, q, d)), via_space_b):
            failures["word-vs-space-b"] += 1
        p_xy = plane(p, d)
        if not same_point(plane(via_space_a, q * d), map_a_xy(k, q, *p_xy)):
            failures["projection-a"] += 1
        if not same_point(plane(via_space_b, q * d), map_b_xy(k, q, *p_xy)):
            failures["projection-b"] += 1
    return [
        CheckResult(name, count == 0, f"{count} violations in {trials} trials")
        for name, count in failures.items()
    ]


# Exact invariance points are drawn from the grid {1..1023}^2 / 1024, and
# float points from the cells [i, i+1) x [j, j+1) / 1024 that cover the
# region.
_GRID = 1024


@functools.lru_cache(maxsize=None)
def _grid_runs() -> tuple:
    """The interior of each row y = 1..1023 of the grid {1..1023}^2 / 1024,
    as the range of the numerators x of its interior points (x/1024,
    y/1024): one run per row (`region._interior_run`), found by two
    bisections on exact ints.  Both sampler tables are read off these rows,
    built once, on the first draw of either mode, not at import."""
    columns = range(1, _GRID)
    return tuple(
        range(run.start + 1, run.stop + 1)  # column i is x = i + 1
        for run in (_interior_run(columns, y, _GRID, 0) for y in columns)
    )


def _row_table(rows) -> tuple:
    """Ranges of ints, one per row, counted in row-major order, as (firsts,
    shifts): the u-th int lies in the row j = bisect_right(firsts, u) - 1,
    whose first int is number firsts[j], and is u + shifts[j].  The table
    holds two ints per row and never the ints themselves."""
    firsts, shifts = [], []
    count = 0
    for row in rows:
        firsts.append(count)
        shifts.append(row.start - count)
        count += len(row)
    firsts.append(count)  # the number of ints, past the last row
    return tuple(firsts), tuple(shifts)


@functools.lru_cache(maxsize=None)
def _interior_grid() -> tuple:
    """The interior points of the exact grid as a `_row_table` of the
    `_grid_runs`: point u is (u + shifts[j], j + 1) / 1024."""
    return _row_table(_grid_runs())


@functools.lru_cache(maxsize=None)
def _float_cover() -> tuple:
    """The cells [i, i+1) x [j, j+1) / 1024 that can hold an interior point,
    as a `_row_table` of one range of columns i per strip j = 0..1023:
    cell u is column u + shifts[j] of strip j.

    Both boundary abscissae fall as y rises: the left one is
    max(3/4 (1-y)^2, 1 - sqrt(4y/3)) and the right one max((1-y)^2,
    1 - sqrt(y)).  So an interior point of strip j lies right of the last
    outside point (a - 1)/1024 before grid row j + 1's run range(a, b), and
    left of the first outside point b'/1024 after grid row j's run
    range(a', b'): in the columns a - 1 .. b' - 1.  The strip takes one
    more column on each side, clipped to 0..1023; the bottom strip has no
    row below it and runs to column 1023, the top one no row above it and
    starts at column 0.  That margin is 2^-10 wide, about 10^12 times the
    ulp-level disagreements between float and exact `_classify` near a
    curve, so every double that float `_classify` calls interior lies in a
    cell of the cover."""
    runs = _grid_runs()  # runs[j] is grid row j + 1
    last = _GRID - 1
    return _row_table(
        range(
            max(0, runs[j].start - 2) if j < last else 0,
            min(_GRID, runs[j - 1].stop + 1) if j > 0 else _GRID,
        )
        for j in range(_GRID)
    )


def _random_interior_point(rnd: random.Random, mode: Mode) -> tuple:
    """A uniformly drawn interior member, as a planar triple: (px, py, 1024)
    for an exact point (px/1024, py/1024), (x, y, 1) for a float one.  A
    triple gets the verdict of the point it stands for.

    An exact draw is one `randrange` call u, and the point is the u-th
    interior point of the grid {1..1023}^2 / 1024 in row-major order,
    looked up in `_interior_grid`.  A float draw picks a cell of
    `_float_cover` with one `randrange` call, and a point in it with two
    `random` calls r and s: ((i + r)/1024, (j + s)/1024).  r and s are
    multiples of 2^-53, so each coordinate is a point of the grid of step
    2^-63 rounded once to the nearest double: one of at least 2^-10 can be
    any double, and a smaller one is a multiple of 2^-63, where a
    unit-square draw is a multiple of 2^-53.  It draws again until
    `_classify` calls the point interior; the cover holds every interior
    double, so the accepted points are uniform over the float interior, at
    about 1.04 candidates each."""
    if mode is Mode.EXACT:
        firsts, shifts = _interior_grid()
        u = rnd.randrange(firsts[-1])
        row = bisect.bisect_right(firsts, u) - 1
        return u + shifts[row], row + 1, _GRID
    firsts, shifts = _float_cover()
    cells, random_ = firsts[-1], rnd.random
    while True:
        u = rnd.randrange(cells)
        row = bisect.bisect_right(firsts, u) - 1
        x = (u + shifts[row] + random_()) / _GRID
        y = (row + random_()) / _GRID
        if _classify(x, y, 1, 0) is _INTERIOR:
            return x, y, 1


def _suite_invariance(mode: Mode, trials: int, seed: int) -> List[CheckResult]:
    """The planar maps' images of interior points, classified as triples."""
    rnd = random.Random(seed)
    map_a_xy, map_b_xy = dynamics._map_a_xy, dynamics._map_b_xy
    outside = Membership.OUTSIDE
    violations_a = 0
    violations_b = 0
    for _ in range(trials):
        p = _random_interior_point(rnd, mode)
        k, q = _rand_parameter(rnd, mode)
        if _classify(*map_a_xy(k, q, *p), 0).status is outside:
            violations_a += 1
        if _classify(*map_b_xy(k, q, *p), 0).status is outside:
            violations_b += 1
    return [
        CheckResult(
            "invariance-a", violations_a == 0,
            f"{violations_a} Outside verdicts in {trials} trials",
        ),
        CheckResult(
            "invariance-b", violations_b == 0,
            f"{violations_b} Outside verdicts in {trials} trials",
        ),
    ]


def _suite_convergence(mode: Mode, n_max: int, seed: int) -> List[CheckResult]:
    """Balanced words against the limit element (1, 1, 0, 0, 0) and its
    planar image (1/3, 1/3).  `dynamics._balanced_states` walks the states
    of words 1 .. max(n_max, 3), scaled by (s, s, s^2, s^3, s^3) with s = n
    in exact mode and s = 1 in float mode: it extends one exact state by two
    letters a word, and evaluates each float word afresh through
    `_check_sigma` and `_letters`.  `_project` gives each state's planar
    triple (x, y, d).  One computation serves both modes: the gap to the
    limit times s^6 is G = ((c1 - s)^2 + (c2 - s)^2) s^4 + c3^2 s^2 + c4^2 +
    c5^2, the rate check fails when G n^2 > 9 s^6, the monotone check when
    G s_prev^6 > G_prev s^6, and the planar one when ((3x - d)^2 +
    (3y - d)^2) n^2 > 81 d^2, each for n <= n_max.  Words 2 and 3 are the
    checkpoints.  Exact checks compare ints; float checks run on the doubles
    of the public path."""
    del seed  # deterministic suite
    to_plane = dynamics._project
    rate_ok = monotone_ok = xy_rate_ok = True
    previous = None
    checkpoints = {}
    for n, ((c1, c2, c3, c4, c5), s) in enumerate(
        dynamics._balanced_states(max(n_max, 3), mode), start=1
    ):
        x, y, d = to_plane(c3, c4, c5, s)
        if n in (2, 3):
            checkpoints[n] = (_lift(mode, x, d), _lift(mode, y, d))
        if n > n_max:
            continue
        s2 = s * s
        s6 = s2 * s2 * s2
        e1, e2 = c1 - s, c2 - s
        gap = (e1 * e1 + e2 * e2) * s2 * s2 + c3 * c3 * s2 + c4 * c4 + c5 * c5
        far = gap * n * n > 9 * s6
        rose = previous is not None and gap * previous[1] > previous[0] * s6
        ex, ey = 3 * x - d, 3 * y - d
        off = (ex * ex + ey * ey) * n * n > 81 * d * d
        previous = (gap, s6)
        rate_ok = rate_ok and not far
        monotone_ok = monotone_ok and not rose
        xy_rate_ok = xy_rate_ok and not off

    # The balanced words for n = 2, 3 land at (5, 1)/8 and (14, 5)/27.
    checkpoint_ok = all(
        _close(mode, c, _lift(mode, v, n**3), 1e-12)
        for n, x, y in ((2, 5, 1), (3, 14, 5))
        for c, v in zip(checkpoints[n], (x, y))
    )
    return [
        CheckResult("rate-3-over-n", rate_ok, f"n up to {n_max}"),
        CheckResult("monotone-norm", monotone_ok, f"n up to {n_max}"),
        CheckResult("planar-rate", xy_rate_ok, f"n up to {n_max}"),
        CheckResult("checkpoints-n2-n3", checkpoint_ok, "exact small cases"),
    ]


_SUITES: Dict[str, Callable[[Mode, int, int], List[CheckResult]]] = {
    "algebra": _suite_algebra,
    "commutation": _suite_commutation,
    "invariance": _suite_invariance,
    "convergence": _suite_convergence,
}

_DEFAULT_TRIALS = {
    "algebra": 10_000,
    "commutation": 10_000,
    "invariance": 100_000,
    "convergence": 256,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(
    name: str,
    mode: Mode = Mode.EXACT,
    trials: Optional[int] = None,
    seed: int = 1729,
) -> SuiteResult:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    count = trials if trials is not None else _DEFAULT_TRIALS[name]
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ValueError(f"trials must be an int >= 1, got {count!r}")
    started = time.perf_counter()
    checks = _SUITES[name](mode, count, seed)
    elapsed = time.perf_counter() - started
    return SuiteResult(
        suite=name,
        mode=mode,
        trials=count,
        passed=all(check.passed for check in checks),
        checks=checks,
        seconds=elapsed,
    )
