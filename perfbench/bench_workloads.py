"""The four workloads: seeded inputs and the operations run on them.

A workload is run in rounds.  `make_round(workload, seed, index)` builds the
inputs of one round from (workload, seed, index) alone and returns its
operations in a fixed order.  An operation is one call into a public
function of nilwords plus the check of what it returned; the check may read
what earlier operations of the same round recorded, which is how properties
that span several calls (a profile nonincreasing in k) are checked.

Calls go through module attributes (`lie_core.multiply`, not a name bound at
import), so the traced run's wrappers see them.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List

from nilwords import dynamics, lie_core, region, search, verify, words
from nilwords.scalar import Mode, Scalar

import bench_checks as checks

def _no_quality(result) -> Dict[str, float]:
    return {}


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], List[str]]
    # Figures of merit of the answer, summed per round by the traced run.
    quality: Callable[[Any], Dict[str, float]] = _no_quality


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeds are hashed with SHA-512, so they do not depend on the
    # interpreter's hash randomisation.
    return random.Random(f"{workload}/{seed}/{index}")


# -- exact-oracle and float-oracle ----------------------------------------

SUITE_CHECKS = {
    "algebra": ("associativity", "jacobi", "step3", "abelianization", "identity-inverse"),
    "commutation": ("word-vs-space-a", "word-vs-space-b", "projection-a", "projection-b"),
    "invariance": ("invariance-a", "invariance-b"),
    "convergence": ("rate-3-over-n", "monotone-norm", "planar-rate", "checkpoints-n2-n3"),
}

# Trials per suite batch, sized so every batch takes roughly the same time in
# its mode (about 0.1 s exact, 0.07 s float on the reference machine); the
# median operation is then a typical batch whatever the suite.  Convergence
# takes n_max as its trial count, drawn from the range given.
BATCH_TRIALS = {
    Mode.EXACT: {"algebra": 200, "commutation": 100, "invariance": 700, "convergence": (90, 100)},
    Mode.FLOAT: {"algebra": 300, "commutation": 140, "invariance": 900, "convergence": (120, 130)},
}
BATCHES_PER_SUITE = 4


def _suite_op(mode: Mode, suite: str, trials: int, seed: int) -> Op:
    return Op(
        f"verify.{suite}",
        lambda: verify.run_suite(suite, mode, trials, seed),
        lambda result: checks.check_suite(result, SUITE_CHECKS[suite], trials),
    )


def _vector(values, mode: Mode) -> lie_core.AlgebraVector:
    if mode is Mode.EXACT:
        return lie_core.AlgebraVector(*(Scalar(Mode.EXACT, Fraction(v)) for v in values))
    return lie_core.AlgebraVector(*(Scalar.of_float(float(v)) for v in values))


def _rword(letters, mode: Mode) -> words.RWord:
    make = (lambda v: Scalar(Mode.EXACT, Fraction(v))) if mode is Mode.EXACT else (
        lambda v: Scalar.of_float(float(v))
    )
    return words.RWord(
        tuple(words.Letter(words.Generator[g.upper()], make(t)) for g, t in letters)
    )


def _coords(g) -> tuple:
    return tuple(c.value for c in g.coords())


def _random_letters(rnd: random.Random) -> list:
    return [
        (rnd.choice("xy"), Fraction(rnd.randint(-9, 9), rnd.randint(1, 6)))
        for _ in range(rnd.randint(4, 12))
    ]


def _oracle_round(mode: Mode, rnd: random.Random) -> List[Op]:
    ops: List[Op] = []
    sizes = BATCH_TRIALS[mode]
    for _ in range(BATCHES_PER_SUITE):
        for suite in SUITE_CHECKS:
            trials = sizes[suite]
            if isinstance(trials, tuple):
                trials = rnd.randint(*trials)
            ops.append(_suite_op(mode, suite, trials, rnd.randrange(2**31)))
    if mode is Mode.EXACT:
        ops += _exact_sample(rnd)
    else:
        ops += _float_sample(rnd)
    return ops


def _exact_sample(rnd: random.Random) -> List[Op]:
    """Products and words against the tensor-algebra group law, and the
    verdict at the limit point."""
    ops = []
    for _ in range(3):
        a, b = (
            [Fraction(rnd.randint(-12, 12), rnd.randint(1, 8)) for _ in range(5)]
            for _ in range(2)
        )
        va, vb = _vector(a, Mode.EXACT), _vector(b, Mode.EXACT)
        ops.append(Op(
            "lie_core.multiply",
            lambda va=va, vb=vb: lie_core.multiply(va, vb),
            lambda g, a=a, b=b: checks.check_exact_coords(
                _coords(g), checks.tensor_multiply(a, b), f"product {a} * {b}"
            ),
        ))
    for _ in range(2):
        letters = _random_letters(rnd)
        word = _rword(letters, Mode.EXACT)
        ops.append(Op(
            "lie_core.evaluate_word",
            lambda word=word: lie_core.evaluate_word(word),
            lambda g, letters=letters: checks.check_exact_coords(
                _coords(g), checks.tensor_evaluate(letters), f"word {letters}"
            ),
        ))
    third = Scalar.exact(1, 3)
    limit = dynamics.XYPoint(third, third)
    ops.append(Op("region.membership", lambda: region.membership(limit), checks.check_limit_verdict))
    return ops


def _float_sample(rnd: random.Random) -> List[Op]:
    """Float products, words and verdicts on rational inputs against exact
    mode on the same inputs."""
    ops = []
    for _ in range(3):
        a, b = (
            [Fraction(rnd.randint(-64, 64), 64) for _ in range(5)] for _ in range(2)
        )
        fa, fb = _vector(a, Mode.FLOAT), _vector(b, Mode.FLOAT)
        ops.append(Op(
            "lie_core.multiply",
            lambda fa=fa, fb=fb: lie_core.multiply(fa, fb),
            lambda g, a=a, b=b: checks.check_float_coords(
                _coords(g),
                _coords(lie_core.multiply(_vector(a, Mode.EXACT), _vector(b, Mode.EXACT))),
                verify.FLOAT_ALGEBRA_TOL,
                f"float product {a} * {b}",
            ),
        ))
    for _ in range(2):
        letters = _random_letters(rnd)
        word = _rword(letters, Mode.FLOAT)
        ops.append(Op(
            "lie_core.evaluate_word",
            lambda word=word: lie_core.evaluate_word(word),
            lambda g, letters=letters: checks.check_float_coords(
                _coords(g),
                _coords(lie_core.evaluate_word(_rword(letters, Mode.EXACT))),
                verify.FLOAT_COMMUTATION_TOL,
                f"float word {letters}",
            ),
        ))
    for inside in (True, False):
        x, y = _dyadic_point(rnd, inside)
        point = dynamics.XYPoint.of_floats(float(x), float(y))
        exact = dynamics.XYPoint(Scalar(Mode.EXACT, x), Scalar(Mode.EXACT, y))
        ops.append(Op(
            "region.membership",
            lambda point=point: region.membership(point),
            lambda verdict, exact=exact: checks.check_same_verdict(
                verdict, region.membership(exact)
            ),
        ))
    return ops


def _dyadic_point(rnd: random.Random, inside: bool):
    """A point on the 1/1024 grid at least 1e-4 from every boundary curve,
    drawn inside the region or anywhere in the unit square."""
    while True:
        x, y = (Fraction(rnd.randint(0, 1024), 1024) for _ in range(2))
        if checks.boundary_distance(x, y) < Fraction(1, 10_000):
            continue
        if not inside or checks.in_region(x, y):
            return x, y


# -- reach-profile --------------------------------------------------------

PROFILE_K = 8
GAP_K = 8
# The uvw profile runs to k = 2 at ten seeded targets.  The k ladders of the
# xy profile and the gaps are single calls growing about 1.3-fold per step,
# so on their own the middle rank of the round's latencies is one call,
# measured once, and op_median_ms moved by 30 % between runs.  Twenty uvw
# calls of 0.05 to 0.6 s put the middle rank in a cluster of similar calls;
# their times vary erratically with the target, so the cluster is made
# large enough that the seed's draw of targets moves its middle little.
UVW_TARGETS = 10
UVW_K = 2
LIMIT = (1 / 3, 1 / 3)


@functools.lru_cache(maxsize=None)
def _grid(k: int) -> float:
    return checks.grid_minimum(*LIMIT, k)


def _word_route(report, project: bool) -> tuple:
    word = search.seq_to_word(report.best_sequence)
    point = dynamics.eval_xy(word) if project else dynamics.eval_uvw(word)
    return tuple(c.to_float() for c in point.coords())


def _reach_round(rnd: random.Random) -> List[Op]:
    target = dynamics.XYPoint.of_floats(*LIMIT)
    profile: Dict[int, float] = {}
    gaps: Dict[int, float] = {}

    def reach_check(k, seen, last, target_coords, project, extra):
        def check(report) -> List[str]:
            problems = checks.check_reach(report, target_coords, _word_route(report, project))
            seen[k] = report.distance.to_float()
            if k == last:
                if sorted(seen) != list(range(1, last + 1)):
                    return problems + [f"profile incomplete: budgets {sorted(seen)}"]
                problems += extra([seen[j] for j in range(1, last + 1)])
            return problems
        return check

    ops = [
        Op(
            f"search.nearest_reachable k={k}",
            lambda k=k: search.nearest_reachable(target, k),
            reach_check(k, profile, PROFILE_K, LIMIT, True,
                        lambda d: checks.check_profile(d, {1: _grid(1), 2: _grid(2)})),
            lambda report: {"search.profile_distance_sum": report.distance.to_float()},
        )
        for k in range(1, PROFILE_K + 1)
    ]
    # Each uvw target is the image of a balanced word with n blocks, computed
    # by the tensor group law: a group element near the limit that k <= 2
    # steps miss.
    for n in rnd.sample(range(6, 41), UVW_TARGETS):
        coords = checks.tensor_evaluate([(g, Fraction(1, n)) for _ in range(n) for g in "xy"])
        uvw = tuple(float(c) for c in coords[2:])
        uvw_target = dynamics.UVWPoint(*(Scalar.of_float(c) for c in uvw))
        uvw_profile: Dict[int, float] = {}
        ops += [
            Op(
                f"search.nearest_reachable_uvw n={n} k={k}",
                lambda k=k, uvw_target=uvw_target: search.nearest_reachable_uvw(uvw_target, k),
                reach_check(k, uvw_profile, UVW_K, uvw, False,
                            lambda d: checks.check_profile(d, {})),
            )
            for k in range(1, UVW_K + 1)
        ]

    def gap_check(k):
        def check(gap) -> List[str]:
            gaps[k] = gap.to_float()
            if k < GAP_K:
                return [] if gaps[k] > 0 else [f"diagonal_gap({k}) = {gaps[k]!r}"]
            if sorted(gaps) != list(range(1, GAP_K + 1)):
                return [f"gaps incomplete: budgets {sorted(gaps)}"]
            return checks.check_gaps([gaps[j] for j in range(1, GAP_K + 1)])
        return check

    ops += [
        Op(
            f"search.diagonal_gap k={k}",
            lambda k=k: search.diagonal_gap(k),
            gap_check(k),
            lambda gap: {"search.diagonal_gap_sum": gap.to_float()},
        )
        for k in range(1, GAP_K + 1)
    ]
    return ops


# -- synthesis ------------------------------------------------------------

ADMISSIBLE_TARGETS = 7
# Criterion 10's near-limit target, (1/3 + 5e-4) on both axes.  It is fixed
# rather than seeded: exhaustion took from 10.4 s to 16.1 s for offsets
# drawn from [2e-4, 7e-4], which would drown every other change in the
# workload's timings.
NEAR_LIMIT = 1 / 3 + 5e-4
MARGIN = Fraction(1, 100)


def _admissible_target(rnd: random.Random):
    """Criterion 10's targets: x != y, max(x, y) >= 0.45, inside the region
    with margin 0.01 on the strict conditions."""
    while True:
        x, y = rnd.random(), rnd.random()
        if max(x, y) < 0.45 or x == y:
            continue
        if checks.in_region(Fraction(x), Fraction(y), MARGIN):
            return x, y


def _seed_orbit_target(rnd: random.Random):
    """A point one step from a seed: ((1-t)^2, t) or its mirror image."""
    t = rnd.uniform(0.1, 0.3)
    x = (1.0 - t) * (1.0 - t)
    return (x, t) if rnd.random() < 0.5 else (t, x)


def _landed(word) -> tuple:
    sigma = words.validate_sigma(words.sigma_to_rword(word))
    return dynamics.eval_xy(sigma).to_floats()


def _coarse_length(result) -> int:
    """Letters of a synthesized word after dropping zero exponents."""
    return words.sigma_coarse_length(result.word) if result.word is not None else 0


def _synthesis_op(target, near_limit: bool) -> Op:
    point = dynamics.XYPoint.of_floats(*target)
    return Op(
        "search.synthesize_word",
        lambda: search.synthesize_word(point),
        lambda result: checks.check_synthesis(result, target, _landed, near_limit),
        lambda result: {"search.synth_coarse_length_sum": _coarse_length(result)},
    )


def _synthesis_round(rnd: random.Random) -> List[Op]:
    ops = [_synthesis_op(_seed_orbit_target(rnd), False)]
    ops += [_synthesis_op(_admissible_target(rnd), False) for _ in range(ADMISSIBLE_TARGETS)]
    ops.append(_synthesis_op((NEAR_LIMIT, NEAR_LIMIT), True))
    return ops


def make_round(workload: str, seed: int, index: int) -> List[Op]:
    rnd = _rng(workload, seed, index)
    if workload == "exact-oracle":
        return _oracle_round(Mode.EXACT, rnd)
    if workload == "float-oracle":
        return _oracle_round(Mode.FLOAT, rnd)
    if workload == "reach-profile":
        return _reach_round(rnd)
    if workload == "synthesis":
        return _synthesis_round(rnd)
    raise ValueError(f"unknown workload {workload!r}")
