"""Verification suites: randomized property checks runnable from the CLI.

Four suites cover the load-bearing identities: `algebra` (group and bracket
axioms), `commutation` (word-level maps against the induced point maps),
`invariance` (the region is closed under the maps for t < 1), and
`convergence` (the balanced words approach the limit element at rate 3/n).
Exact mode demands equality; float mode uses the documented tolerances.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from . import lie_core
from .dynamics import (
    XYPoint,
    eval_uvw,
    eval_xy,
    map_a_uvw,
    map_a_xy,
    map_b_uvw,
    map_b_xy,
    project,
)
from .region import Membership, _classify, membership
from .scalar import Mode, Scalar
from .words import SigmaWord, balanced_word, sigma_to_rword, word_map_a, word_map_b

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


def _rand_scalar(rnd: random.Random, mode: Mode) -> Scalar:
    if mode is Mode.EXACT:
        return Scalar.exact(rnd.randint(-12, 12), rnd.randint(1, 8))
    return Scalar.of_float(rnd.uniform(-1.0, 1.0))


def _rand_vector(rnd: random.Random, mode: Mode) -> lie_core.AlgebraVector:
    return lie_core.AlgebraVector(*(_rand_scalar(rnd, mode) for _ in range(5)))


def _vectors_close(a, b, tol: float) -> bool:
    """Coordinatewise `Scalar.close_to` of two algebra vectors or points."""
    return all(x.close_to(y, tol) for x, y in zip(a.coords(), b.coords()))


def _suite_algebra(mode: Mode, trials: int, seed: int) -> List[CheckResult]:
    rnd = random.Random(seed)
    tol = FLOAT_ALGEBRA_TOL
    zero = lie_core.zero_element(mode)
    failures = {"associativity": 0, "jacobi": 0, "step3": 0, "abelianization": 0,
                "identity-inverse": 0}
    for _ in range(trials):
        a = _rand_vector(rnd, mode)
        b = _rand_vector(rnd, mode)
        c = _rand_vector(rnd, mode)
        d = _rand_vector(rnd, mode)
        left = lie_core.multiply(lie_core.multiply(a, b), c)
        right = lie_core.multiply(a, lie_core.multiply(b, c))
        if not _vectors_close(left, right, tol):
            failures["associativity"] += 1
        jac = lie_core.add(
            lie_core.add(
                lie_core.bracket(a, lie_core.bracket(b, c)),
                lie_core.bracket(b, lie_core.bracket(c, a)),
            ),
            lie_core.bracket(c, lie_core.bracket(a, b)),
        )
        if not _vectors_close(jac, zero, tol):
            failures["jacobi"] += 1
        deep = lie_core.bracket(a, lie_core.bracket(b, lie_core.bracket(c, d)))
        if deep != zero:
            failures["step3"] += 1
        product = lie_core.multiply(a, b)
        if not (
            product.c1.close_to(a.c1 + b.c1, tol) and product.c2.close_to(a.c2 + b.c2, tol)
        ):
            failures["abelianization"] += 1
        unit = lie_core.multiply(a, lie_core.inverse(a))
        ident = lie_core.multiply(zero, a)
        if not (_vectors_close(unit, zero, tol) and _vectors_close(ident, a, tol)):
            failures["identity-inverse"] += 1
    return [
        CheckResult(name, count == 0, f"{count} violations in {trials} trials")
        for name, count in failures.items()
    ]


def _random_sigma_word(rnd: random.Random, mode: Mode, max_blocks: int = 20) -> SigmaWord:
    n = rnd.randint(1, max_blocks)
    xs = [rnd.randint(0, 9) for _ in range(n)]
    ys = [rnd.randint(0, 9) for _ in range(n)]
    if sum(xs) == 0:
        xs[rnd.randrange(n)] = 1
    if sum(ys) == 0:
        ys[rnd.randrange(n)] = 1
    sx, sy = sum(xs), sum(ys)
    return SigmaWord(
        tuple((Scalar.lift(a, mode, sx), Scalar.lift(b, mode, sy)) for a, b in zip(xs, ys))
    )


def _rand_parameter(rnd: random.Random, mode: Mode, include_one: bool = False) -> Scalar:
    hi = 97 if include_one else 96
    return Scalar.lift(rnd.randint(0, hi), mode, 97)


def _suite_commutation(mode: Mode, trials: int, seed: int) -> List[CheckResult]:
    rnd = random.Random(seed)
    tol = FLOAT_COMMUTATION_TOL
    failures = {"word-vs-space-a": 0, "word-vs-space-b": 0, "projection-a": 0,
                "projection-b": 0}
    for _ in range(trials):
        w = _random_sigma_word(rnd, mode)
        t = _rand_parameter(rnd, mode)
        p = eval_uvw(w)
        via_word_a = eval_uvw(word_map_a(w, t))
        via_space_a = map_a_uvw(t, p)
        if not _vectors_close(via_word_a, via_space_a, tol):
            failures["word-vs-space-a"] += 1
        via_word_b = eval_uvw(word_map_b(w, t))
        via_space_b = map_b_uvw(t, p)
        if not _vectors_close(via_word_b, via_space_b, tol):
            failures["word-vs-space-b"] += 1
        if not _vectors_close(project(via_space_a), map_a_xy(t, project(p)), tol):
            failures["projection-a"] += 1
        if not _vectors_close(project(via_space_b), map_b_xy(t, project(p)), tol):
            failures["projection-b"] += 1
    return [
        CheckResult(name, count == 0, f"{count} violations in {trials} trials")
        for name, count in failures.items()
    ]


def _random_interior_point(rnd: random.Random, mode: Mode) -> XYPoint:
    """Draw candidates until one is an interior member.  An exact candidate
    (px/1024, py/1024) is classified as the integer triple (px, py, 1024),
    which gets the verdict of its reduced Fractions, so Fractions are built
    only for the accepted point."""
    while True:
        if mode is Mode.EXACT:
            x, y, d = rnd.randint(1, 1023), rnd.randint(1, 1023), 1024
        else:
            x, y, d = rnd.random(), rnd.random(), 1
        if _classify(x, y, d, 0).status is Membership.INTERIOR_MEMBER:
            if mode is Mode.EXACT:
                return XYPoint(Scalar.exact(x, d), Scalar.exact(y, d))
            return XYPoint.of_floats(x, y)


def _suite_invariance(mode: Mode, trials: int, seed: int) -> List[CheckResult]:
    rnd = random.Random(seed)
    violations_a = 0
    violations_b = 0
    for _ in range(trials):
        p = _random_interior_point(rnd, mode)
        t = _rand_parameter(rnd, mode, include_one=False)
        if membership(map_a_xy(t, p)).status is Membership.OUTSIDE:
            violations_a += 1
        if membership(map_b_xy(t, p)).status is Membership.OUTSIDE:
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
    del seed  # deterministic suite
    limit = lie_core.AlgebraVector.of_ints(1, 1, 0, 0, 0, mode=mode)
    checks = []
    rate_ok = True
    monotone_ok = True
    xy_rate_ok = True
    previous: Optional[Scalar] = None
    third = Scalar.lift(1, mode, 3)
    limit_xy = XYPoint(third, third)
    for n in range(1, n_max + 1):
        w = balanced_word(n, mode)
        element = lie_core.evaluate_word(sigma_to_rword(w))
        gap = lie_core.distance_squared(element, limit)
        bound = Scalar.lift(9, mode, n * n)
        if gap > bound:
            rate_ok = False
        if previous is not None and gap > previous:
            monotone_ok = False
        previous = gap
        point = eval_xy(w)
        dx = point.x - third
        dy = point.y - third
        if dx * dx + dy * dy > bound:
            xy_rate_ok = False
    # The balanced words for n = 2, 3 land at (5, 1)/8 and (14, 5)/27.
    checkpoint_ok = all(
        _vectors_close(
            eval_xy(balanced_word(n, mode)),
            XYPoint(Scalar.lift(x, mode, n**3), Scalar.lift(y, mode, n**3)),
            1e-12,
        )
        for n, x, y in ((2, 5, 1), (3, 14, 5))
    )
    checks.append(CheckResult("rate-3-over-n", rate_ok, f"n up to {n_max}"))
    checks.append(CheckResult("monotone-norm", monotone_ok, f"n up to {n_max}"))
    checks.append(CheckResult("planar-rate", xy_rate_ok, f"n up to {n_max}"))
    checks.append(
        CheckResult("checkpoints-n2-n3", checkpoint_ok, "exact small cases")
    )
    return checks


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
