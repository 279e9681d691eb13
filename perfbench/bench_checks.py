"""Independent references and the output checks of every workload.

Nothing here calls into the group law, the region test or the fold that
nilwords uses.  The group law is recomputed as log(exp(a) exp(b)) in the
free associative algebra on x, y truncated above degree 3; region
membership is the five defining conditions evaluated in Fractions; and the
k <= 2 reach minima come from a brute-force grid over the planar maps.

Every check returns a list of problems; an empty list means the output
passed.  A check that found nothing to examine reports that as a problem,
so no check can pass vacuously.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Dict, List, Sequence, Tuple

import numpy as np

# -- truncated tensor algebra ---------------------------------------------

# All words of length <= 3 over {x, y}; an element is a list of 15
# coefficients in this order.
WORDS: Tuple[str, ...] = tuple(
    "".join(p) for d in range(4) for p in product("xy", repeat=d)
)
_INDEX: Dict[str, int] = {w: i for i, w in enumerate(WORDS)}
# Pairs (i, j, k) with WORDS[i] + WORDS[j] == WORDS[k], degree <= 3.
_PRODUCT_TABLE = tuple(
    (i, j, _INDEX[a + b])
    for i, a in enumerate(WORDS)
    for j, b in enumerate(WORDS)
    if len(a) + len(b) <= 3
)


def _tmul(a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
    out = [Fraction(0)] * len(WORDS)
    for i, j, k in _PRODUCT_TABLE:
        if a[i] and b[j]:
            out[k] += a[i] * b[j]
    return out


def _tadd(*terms: Tuple[Fraction, Sequence[Fraction]]) -> List[Fraction]:
    out = [Fraction(0)] * len(WORDS)
    for factor, t in terms:
        for i, v in enumerate(t):
            out[i] += factor * v
    return out


_ONE = [Fraction(1)] + [Fraction(0)] * (len(WORDS) - 1)


def _texp(n: Sequence[Fraction]) -> List[Fraction]:
    n2 = _tmul(n, n)
    n3 = _tmul(n2, n)
    return _tadd((1, _ONE), (1, n), (Fraction(1, 2), n2), (Fraction(1, 6), n3))


def _tlog(m: Sequence[Fraction]) -> List[Fraction]:
    n = _tadd((1, m), (-1, _ONE))
    n2 = _tmul(n, n)
    n3 = _tmul(n2, n)
    return _tadd((1, n), (Fraction(-1, 2), n2), (Fraction(1, 3), n3))


def _word_vector(coeffs: Dict[str, int]) -> List[Fraction]:
    out = [Fraction(0)] * len(WORDS)
    for word, c in coeffs.items():
        out[_INDEX[word]] += c
    return out


# The coordinate basis of nilwords: X, Y, [X,Y]/2, [X,[X,Y]]/12, [Y,[Y,X]]/12,
# written out as noncommutative polynomials.
_BASIS = (
    _word_vector({"x": 1}),
    _word_vector({"y": 1}),
    _tadd((Fraction(1, 2), _word_vector({"xy": 1, "yx": -1}))),
    _tadd((Fraction(1, 12), _word_vector({"xxy": 1, "xyx": -2, "yxx": 1}))),
    _tadd((Fraction(1, 12), _word_vector({"yyx": 1, "yxy": -2, "xyy": 1}))),
)


def _lie_element(coords: Sequence[Fraction]) -> List[Fraction]:
    return _tadd(*((Fraction(c), b) for c, b in zip(coords, _BASIS)))


def _lie_coords(n: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    coords = (
        n[_INDEX["x"]],
        n[_INDEX["y"]],
        2 * n[_INDEX["xy"]],
        12 * n[_INDEX["xxy"]],
        12 * n[_INDEX["yyx"]],
    )
    if _lie_element(coords) != list(n):
        raise ArithmeticError("tensor is not in the span of the Lie basis")
    return coords


def tensor_multiply(a: Sequence[Fraction], b: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Group product in nilwords coordinates, as log(exp(a) exp(b))."""
    return _lie_coords(_tlog(_tmul(_texp(_lie_element(a)), _texp(_lie_element(b)))))


def tensor_evaluate(letters: Sequence[Tuple[str, Fraction]]) -> Tuple[Fraction, ...]:
    """Product of exp(t g) over the letters (g in {"x", "y"}), as coordinates."""
    total = _ONE
    for generator, t in letters:
        total = _tmul(total, _texp(_tadd((Fraction(t), _word_vector({generator: 1})))))
    return _lie_coords(_tlog(total))


# -- the admissible region ------------------------------------------------


def region_margins(x: Fraction, y: Fraction) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """Margins of the four strict conditions x < 1, y < 1, 4x > 3(1-y)^2,
    4y > 3(1-x)^2; each must be positive inside the region."""
    return (1 - x, 1 - y, 4 * x - 3 * (1 - y) ** 2, 4 * y - 3 * (1 - x) ** 2)


def in_region(x: Fraction, y: Fraction, eps: Fraction = Fraction(0)) -> bool:
    """Interior membership: strict margins above eps and the non-strict
    disjunction x <= (1-y)^2 or y <= (1-x)^2."""
    if min(region_margins(x, y)) <= eps:
        return False
    return x <= (1 - y) ** 2 or y <= (1 - x) ** 2


def boundary_distance(x: Fraction, y: Fraction) -> Fraction:
    """Smallest absolute value of any defining condition at (x, y)."""
    clauses = region_margins(x, y) + ((1 - y) ** 2 - x, (1 - x) ** 2 - y)
    return min(abs(c) for c in clauses)


# -- brute-force reach minima ---------------------------------------------

SEEDS = ((1.0, 0.0), (0.0, 1.0))


def _fold(x0: float, y0: float, pattern: str, ts: Sequence[np.ndarray]):
    x = np.full(np.broadcast(*ts).shape, x0) if ts else np.array(x0)
    y = np.full_like(x, y0)
    for kind, t in zip(pattern, ts):
        r = 1.0 - t
        if kind == "A":
            x, y = r * r * x, r * y + t
        else:
            x, y = r * x + t, r * r * y
    return x, y


def grid_minimum(tx: float, ty: float, k: int, points: int = 401, levels: int = 4) -> float:
    """Smallest distance to (tx, ty) over every seed and A/B pattern of
    exactly k steps (t = 0 is the identity, so shorter sequences count).

    A grid of `points` values per parameter covers [0, 1]^k; each further
    level re-grids a box of four cells around the best point found so far,
    so the final spacing is 4^levels / points^(levels + 1) of the cube.
    """
    if k not in (1, 2):
        raise ValueError("the grid reference covers k = 1 and k = 2 only")
    best = math.inf
    for x0, y0 in SEEDS:
        for pattern in ("".join(p) for p in product("AB", repeat=k)):
            lo = np.zeros(k)
            hi = np.ones(k)
            for _ in range(levels + 1):
                axes = [np.linspace(lo[i], hi[i], points) for i in range(k)]
                grids = np.meshgrid(*axes, indexing="ij") if k > 1 else axes
                x, y = _fold(x0, y0, pattern, grids)
                d = np.hypot(x - tx, y - ty)
                flat = int(np.argmin(d))
                here = np.unravel_index(flat, d.shape)
                best = min(best, float(d[here]))
                step = (hi - lo) / (points - 1)
                centre = np.array([axes[i][here[i]] for i in range(k)])
                lo = np.clip(centre - 2 * step, 0.0, 1.0)
                hi = np.clip(centre + 2 * step, 0.0, 1.0)
    return best


def diagonal_gap_one() -> float:
    """diagonal_gap(1): one step from a seed lands on the diagonal at the
    fixed point s = (3 - sqrt 5)/2, which is s - 1/3 above the limit."""
    return (3.0 - math.sqrt(5.0)) / 2.0 - 1.0 / 3.0


# -- checks ---------------------------------------------------------------


def check_suite(result, expected_checks: Sequence[str], trials: int) -> List[str]:
    """A verify-suite result: every named check present and passing."""
    problems = []
    names = {c.name for c in result.checks}
    missing = set(expected_checks) - names
    if missing:
        problems.append(f"{result.suite}: missing checks {sorted(missing)}")
    if result.trials != trials:
        problems.append(f"{result.suite}: ran {result.trials} trials, asked {trials}")
    for check in result.checks:
        if not check.passed:
            problems.append(f"{result.suite}/{check.name}: {check.detail}")
    if not result.passed:
        problems.append(f"{result.suite}: suite reports failure")
    return problems


def check_exact_coords(got: Sequence[Fraction], expected: Sequence[Fraction], what: str) -> List[str]:
    if len(got) != 5 or len(expected) != 5:
        return [f"{what}: expected 5 coordinates"]
    return [
        f"{what}: c{i + 1} is {g}, expected {e}"
        for i, (g, e) in enumerate(zip(got, expected))
        if not (isinstance(g, Fraction) and g == e)
    ]


def check_float_coords(got: Sequence[float], exact: Sequence[Fraction], tol: float, what: str) -> List[str]:
    if len(got) != 5 or len(exact) != 5:
        return [f"{what}: expected 5 coordinates"]
    return [
        f"{what}: c{i + 1} is {g!r}, exact {float(e)!r}, tolerance {tol}"
        for i, (g, e) in enumerate(zip(got, exact))
        if not (isinstance(g, float) and abs(g - float(e)) <= tol)
    ]


def check_limit_verdict(verdict) -> List[str]:
    """(1/3, 1/3) is outside, failing 4x > 3(1-y)^2 at exact equality."""
    problems = []
    if verdict.status.value != "Outside":
        problems.append(f"limit point classified {verdict.status.value}")
    if verdict.failed_condition != "4x>3(1-y)^2":
        problems.append(f"limit point failed {verdict.failed_condition!r}")
    if not verdict.boundary_equality:
        problems.append("limit point not flagged as a boundary tie")
    return problems


def check_same_verdict(float_verdict, exact_verdict) -> List[str]:
    got = (float_verdict.status, float_verdict.failed_condition)
    want = (exact_verdict.status, exact_verdict.failed_condition)
    if got != want:
        return [f"float verdict {got} differs from exact verdict {want}"]
    return []


# Float rounding allowed between two evaluations of one sequence: the fold
# and the word route each round a few dozen operations on values in [-1, 2].
ROUNDING = 1e-11


def check_reach(report, target: Tuple[float, ...], reevaluated: Tuple[float, ...]) -> List[str]:
    """A search report against the same sequence evaluated by the word route.

    `reevaluated` is the point the reported sequence reaches when turned into
    a word and evaluated through the group law; the report must name that
    point and its distance to the target.
    """
    problems = []
    point = tuple(c.to_float() for c in report.best_point.coords())
    distance = report.distance.to_float()
    if len(point) != len(target) or len(reevaluated) != len(target):
        return [f"dimension mismatch: point {point}, target {target}"]
    if not all(math.isfinite(c) for c in point + (distance,)):
        return [f"non-finite report: point {point}, distance {distance}"]
    if max(abs(a - b) for a, b in zip(point, reevaluated)) > ROUNDING:
        problems.append(f"reported point {point} but the word lands on {reevaluated}")
    true_distance = math.dist(reevaluated, target)
    if abs(true_distance - distance) > ROUNDING:
        problems.append(f"reported distance {distance!r}, word route gives {true_distance!r}")
    if not distance > 0:
        problems.append(f"distance {distance!r} is not positive")
    return problems


def check_profile(distances: Sequence[float], grid: Dict[int, float]) -> List[str]:
    """Profile distances for k = 1..len(distances): positive, nonincreasing,
    the last below the first, and within 1e-6 of the grid minima given."""
    problems = []
    if len(distances) < 2:
        return ["profile needs at least two budgets"]
    if not all(d > 0 for d in distances):
        problems.append(f"nonpositive distance in {distances}")
    for k in range(2, len(distances) + 1):
        if distances[k - 1] > distances[k - 2]:
            problems.append(f"distance rises from k={k - 1} to k={k}")
    if not distances[-1] < distances[0]:
        problems.append("largest budget is not closer than k=1")
    for k, reference in grid.items():
        if abs(distances[k - 1] - reference) > 1e-6:
            problems.append(f"k={k}: distance {distances[k - 1]!r}, grid minimum {reference!r}")
    return problems


def check_gaps(gaps: Sequence[float]) -> List[str]:
    """diagonal_gap(k) for k = 1..len(gaps): positive, nonincreasing, and
    the k = 1 value equal to s - 1/3 to 1e-9."""
    problems = []
    if not gaps:
        return ["no diagonal gaps"]
    if not all(g > 0 for g in gaps):
        problems.append(f"nonpositive gap in {gaps}")
    for k in range(2, len(gaps) + 1):
        if gaps[k - 1] > gaps[k - 2]:
            problems.append(f"gap rises from k={k - 1} to k={k}")
    if abs(gaps[0] - diagonal_gap_one()) > 1e-9:
        problems.append(f"diagonal_gap(1) = {gaps[0]!r}, expected {diagonal_gap_one()!r}")
    return problems


# The default synthesis tolerance; the landing check adds ROUNDING for the
# word route's own float error.
SYNTHESIS_TOLERANCE = 1e-9


def check_synthesis(result, target: Tuple[float, float], landed, near_limit: bool) -> List[str]:
    """A synthesis result.

    Near-limit targets must come back unsuccessful with stage "exhausted".
    Other targets must succeed with a word that `landed` (the check's own
    re-evaluation: a callable from the word to the point it evaluates to,
    raising if the word is not an alternating unit-mass word) puts within
    the synthesis tolerance of the target.
    """
    if near_limit:
        if result.success or result.stage != "exhausted":
            return [f"near-limit target {target} returned success={result.success}, stage {result.stage!r}"]
        return []
    if not result.success:
        return [f"target {target} not synthesized: {result.message}"]
    if result.word is None:
        return [f"target {target}: success without a word"]
    try:
        point = landed(result.word)
    except ValueError as exc:
        return [f"target {target}: word is not a valid Sigma word ({exc})"]
    miss = math.dist(point, target)
    if not miss <= SYNTHESIS_TOLERANCE + ROUNDING:
        return [f"target {target}: word lands on {point}, {miss:.3g} away"]
    return []
