"""Reachability search over finite compositions of the planar maps.

A map sequence starts from one of the two seed words (images (1,0) and
(0,1)) and applies k steps, each an a- or b-map with a parameter in [0,1].
Searches minimize the distance from the endpoint to a target over the
kinds of the steps and the parameter vector.

The search rests on two algebraic facts.  Consecutive steps of the same
kind fuse: the a-map at t then at u is one a-step at 1-(1-t)(1-u), and
likewise for b.  And the b-map, which rescales Y to Y^(1-t) and appends
Y^t, fixes the seed X Y, as the a-map fixes Y X, so a first step of that
kind adds nothing.  With budget k only the forms (XY; A B A ...) and
(YX; B A B ...) of length 1..k exist: k per seed.  The search optimizes
each form once, in the order of `_forms` (length, then seed), and keeps
the first form with the smallest distance, so on an exact tie the shortest
form wins.  A winner shorter than k is padded to k steps with identity
steps (t = 0) right after its first A step, or by repeating the step of
the form (B,).  Each form starts from the winner of its seed's form one
step shorter, an identity step appended, then from four seeded
Latin-hypercube points.  So a form's solution does not depend on k, and
each thread keeps the forms of the last problem it searched: a search on
the same problem, a k-ladder say, solves only the forms past them.

Swapping X and Y is a symmetry of the group: it swaps x and y, the a- and
b-maps, and the two seeds, so the form (YX; B A B ...) reaches the mirror
image of what (XY; A B A ...) reaches, (-u, w, v) for (u, v, w).  On a
target with x = y, or with u = 0 and v = w, and for the diagonal landing,
the two forms of a mirror pair pose the same problem, with the same
parameters, and only the XY forms are solved: half the forms, every winner
XY-seeded, and none of the twins' evaluations; their share varies with the
target, as a twin's solve rounds its own way.

Every search, and the numeric reach inside word synthesis, runs one solver:
`_solve`, a projected Levenberg-Marquardt over the box [0, 1]^n on the 1 to
3 residuals of a form (the planar fold, or the (u, v, w) image of the fold
with the Levy area carried along, minus the target, or a diagonal landing
minus 1/3) with their exact Jacobians (More 1978; Kanzow, Yamashita &
Fukushima 2004): one forward pass per point, the Jacobian is its backward
sweep (Griewank & Walther 2008), a suffix product per state coordinate.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .dynamics import UVWPoint, XYPoint, map_a_xy, map_b_xy, xy_distance
from .region import Membership, membership
from .scalar import Mode, Scalar, _mode_of
from .words import SigmaWord, _check_parameter, word_map_a, word_map_b

__all__ = [
    "Seed",
    "StepKind",
    "MapSequence",
    "SearchConfig",
    "DEFAULT_CONFIG",
    "SearchReport",
    "SynthesisDomainError",
    "SynthesisResult",
    "seed_point",
    "seed_sigma_word",
    "apply_sequence",
    "seq_to_word",
    "nearest_reachable",
    "nearest_reachable_uvw",
    "coarse_length_profile",
    "coarse_length_profile_uvw",
    "diagonal_gap",
    "synthesize_word",
]


def __getattr__(name: str) -> Any:
    """`search.optimize` is `scipy.optimize`, imported on first access.

    No search calls scipy, since every search runs on `_solve`; only the
    benchmark's tracer (perfbench/bench_trace.py) reads `search.optimize`,
    to install its solver proxy.  Importing scipy lazily keeps it out of
    every CLI start.  ROADMAP item 2, which points the tracer at `_solve`,
    deletes this hook and the scipy dependency.
    """
    if name == "optimize":
        from scipy import optimize

        globals()["optimize"] = optimize
        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Seed(Enum):
    XY = "XY"
    YX = "YX"


class StepKind(Enum):
    A = "A"
    B = "B"


class SynthesisDomainError(ValueError):
    """Synthesis target is outside the admissible region."""


@dataclass(frozen=True)
class MapSequence:
    """A seed, its steps and their arithmetic mode.  The mode is the step
    parameters' mode, so it may be left out unless there are no steps."""

    seed: Seed
    steps: Tuple[Tuple[StepKind, Scalar], ...]
    mode: Optional[Mode] = None

    def __post_init__(self):
        ts = [t for _, t in self.steps]
        object.__setattr__(self, "mode", _mode_of(ts, self.mode, "map sequence"))
        for t in ts:
            _check_parameter(t)

    def pattern(self) -> str:
        return "".join(kind.value for kind, _ in self.steps)


@dataclass(frozen=True)
class SearchConfig:
    master_seed: int = 1729
    max_iterations: int = 500
    synthesis_tolerance: float = 1e-9
    max_synthesis_steps: int = 12

    def __post_init__(self):
        broken = [
            rule
            for rule, holds in (
                ("max_iterations >= 1", self.max_iterations >= 1),
                ("0 < synthesis_tolerance < inf", 0.0 < self.synthesis_tolerance < math.inf),
                ("max_synthesis_steps >= 0", self.max_synthesis_steps >= 0),
            )
            if not holds
        ]
        if broken:
            raise ValueError(f"invalid SearchConfig {self}: needs {', '.join(broken)}")


DEFAULT_CONFIG = SearchConfig()


@dataclass(frozen=True)
class SearchReport:
    """The best sequence within a budget of k steps, padded to k steps: the
    answer of one search and a row of a profile, whose row k is the report
    of `nearest_reachable(target, k)` (or `nearest_reachable_uvw`).
    `best_point` is the point the sequence reaches, an `XYPoint` or, for
    the (u, v, w) objective, a `UVWPoint`; `distance` is a float-mode
    `Scalar`.  `evaluations` counts the residual evaluations of the walk on
    every form of at most k steps, k per seed since a first step fixing the
    seed adds nothing (on a target that is its own mirror only the XY
    forms), whichever call paid for them.  `converged` is the winning
    start's `_solve` verdict."""

    best_sequence: MapSequence
    best_point: Union[XYPoint, UVWPoint]
    distance: Scalar
    evaluations: int
    converged: bool


# seeds and folds --------------------------------------------------------


def seed_point(seed: Seed, mode: Mode) -> XYPoint:
    one = Scalar.one(mode)
    zero = Scalar.zero(mode)
    return XYPoint(one, zero) if seed is Seed.XY else XYPoint(zero, one)


def seed_sigma_word(seed: Seed, mode: Mode) -> SigmaWord:
    one = Scalar.one(mode)
    zero = Scalar.zero(mode)
    if seed is Seed.XY:
        return SigmaWord(((one, one),))
    # YX in block form needs a leading zero X-run and a trailing zero Y-run.
    return SigmaWord(((zero, one), (one, zero)))


def apply_sequence(seq: MapSequence) -> XYPoint:
    point = seed_point(seq.seed, seq.mode)
    for kind, t in seq.steps:
        point = map_a_xy(t, point) if kind is StepKind.A else map_b_xy(t, point)
    return point


def seq_to_word(seq: MapSequence) -> SigmaWord:
    word = seed_sigma_word(seq.seed, seq.mode)
    for kind, t in seq.steps:
        word = word_map_a(word, t) if kind is StepKind.A else word_map_b(word, t)
    return word


def _fold_xy(
    point: Tuple[float, float], kinds: Sequence[StepKind], ts: Sequence[float]
) -> Tuple[Tuple[float, float], list]:
    """The planar fold and its tape: per step, whether it is an A step,
    r = 1 - t and the state it acts on.  Parameters lie in [0, 1], as every
    point `_solve` evaluates, every winner and every padded step does."""
    x, y = point
    tape = []
    # A local, since looking up an Enum member costs about as much as the
    # arithmetic of a step.
    step_a = StepKind.A
    for kind, t in zip(kinds, ts):
        r = 1.0 - t
        is_a = kind is step_a
        tape.append((is_a, r, x, y))
        if is_a:
            x, y = r * r * x, r * y + t
        else:
            x, y = r * x + t, r * r * y
    return (x, y), tape


def _sweep_xy(tape: list) -> List[Tuple[float, float]]:
    """The columns of the 2 x n Jacobian of `_fold_xy` in the parameters.

    Each step acts on the state diagonally, A by diag(r^2, r) and B by
    diag(r, r^2), so column i is step i's own derivative scaled by the
    product of the later steps' factors: suffix products, no matrices.
    """
    columns = []
    sx = sy = 1.0
    for is_a, r, x, y in reversed(tape):
        if is_a:
            columns.append((-2.0 * r * x * sx, (1.0 - y) * sy))
            sx, sy = sx * (r * r), sy * r
        else:
            columns.append(((1.0 - x) * sx, -2.0 * r * y * sy))
            sx, sy = sx * r, sy * (r * r)
    columns.reverse()
    return columns


def _fold_xyu(
    point: Tuple[float, float, float], kinds: Sequence[StepKind], ts: Sequence[float]
) -> Tuple[Tuple[float, float, float], list]:
    """`_fold_xy` with the Levy area u carried along, for the (u, v, w)
    objective: (u, v, w) = (u, 6x - 3u - 2, 6y + 3u - 2) (the staircase
    law, `dynamics`), and u maps to r u - t under A and r u + t under B, so
    every step acts on (x, y, u) diagonally.  The planar searches keep
    `_fold_xy`, as carrying u there slowed them by about 13 %."""
    x, y, u = point
    tape = []
    step_a = StepKind.A
    for kind, t in zip(kinds, ts):
        r = 1.0 - t
        is_a = kind is step_a
        tape.append((is_a, r, x, y, u))
        if is_a:
            x, y, u = r * r * x, r * y + t, r * u - t
        else:
            x, y, u = r * x + t, r * r * y, r * u + t
    return (x, y, u), tape


def _sweep_xyu(tape: list) -> List[Tuple[float, float, float]]:
    """The columns of the 3 x n Jacobian of (u, v, w) = (u, 6x - 3u - 2,
    6y + 3u - 2) at the end of `_fold_xyu`, in the parameters: the suffix
    products of `_sweep_xy` with a third, r per step, for u."""
    columns = []
    sx = sy = su = 1.0
    for is_a, r, x, y, u in reversed(tape):
        if is_a:
            dx, dy, du = -2.0 * r * x * sx, (1.0 - y) * sy, (-1.0 - u) * su
            sx, sy = sx * (r * r), sy * r
        else:
            dx, dy, du = (1.0 - x) * sx, -2.0 * r * y * sy, (1.0 - u) * su
            sx, sy = sx * r, sy * (r * r)
        su *= r
        columns.append((du, 6.0 * dx - 3.0 * du, 6.0 * dy + 3.0 * du))
    columns.reverse()
    return columns


# the bounded least-squares solver -------------------------------------------

# A residual maps a point to (r_0, ..., r_{m-1}) and the tape of its forward
# pass; the Jacobian maps that tape to the n columns (dr_0/dx_i, ...).
_Residual = Callable[[Sequence[float]], Tuple[Tuple[float, ...], Any]]
_Jacobian = Callable[[Any], List[Tuple[float, ...]]]
# A trial step of one linearization: mu -> the clipped trial point, or None
# when the damped system underflows.
_Step = Callable[[float], Optional[List[float]]]


class _Solved(NamedTuple):
    point: Tuple[float, ...]
    cost: float
    iterations: int
    converged: bool
    evaluations: int


# `_solve`'s linearization at x for m = 1, 2, 3 residuals from the Jacobian
# columns of x's tape; one loop builds J_f, which holds the coordinates on a
# bound whose gradient J^T r points out of the box, and its Gram sums.  Returns
# None when J_f^T r = 0, else the trial step as a function of mu and the
# largest diagonal entry of J_f J_f^T, which sets the first mu.  Each is
# written out for its m, and clips its trial point to the box inline, in a
# plain loop (a list comprehension is a call of its own before Python 3.12):
# generic loops over m, or a call per coordinate, cost more than the residuals.


def _linearize_1(
    x: List[float], r: Tuple[float, ...], columns: List[Tuple[float, ...]]
) -> Optional[Tuple[_Step, float]]:
    (r0,) = r
    free = []
    a = 0.0
    for t, (p,) in zip(x, columns):
        g = p * r0
        if (t <= 0.0 and g > 0.0) or (t >= 1.0 and g < 0.0):
            p = 0.0
        free.append(p)
        a += p * p
    if a * r0 * r0 <= 0.0:
        return None

    def step(mu: float) -> Optional[List[float]]:
        det = a + mu
        if not det > 0.0:
            return None
        z0 = r0 / det
        trial = []
        for t, p in zip(x, free):
            v = t - p * z0
            trial.append(0.0 if v < 0.0 else 1.0 if v > 1.0 else v)
        return trial

    return step, a


def _linearize_2(
    x: List[float], r: Tuple[float, ...], columns: List[Tuple[float, ...]]
) -> Optional[Tuple[_Step, float]]:
    r0, r1 = r
    free = []
    a = b = c = 0.0
    for t, (p, q) in zip(x, columns):
        g = p * r0 + q * r1
        if (t <= 0.0 and g > 0.0) or (t >= 1.0 and g < 0.0):
            p = q = 0.0
        free.append((p, q))
        a += p * p
        b += p * q
        c += q * q
    if a * r0 * r0 + 2.0 * b * r0 * r1 + c * r1 * r1 <= 0.0:
        return None
    minor = max(a * c - b * b, 0.0)

    def step(mu: float) -> Optional[List[float]]:
        det = minor + mu * (a + c + mu)
        if not det > 0.0:
            return None
        z0 = ((c + mu) * r0 - b * r1) / det
        z1 = ((a + mu) * r1 - b * r0) / det
        trial = []
        for t, (p, q) in zip(x, free):
            v = t - p * z0 - q * z1
            trial.append(0.0 if v < 0.0 else 1.0 if v > 1.0 else v)
        return trial

    return step, max(a, c)


def _linearize_3(
    x: List[float], r: Tuple[float, ...], columns: List[Tuple[float, ...]]
) -> Optional[Tuple[_Step, float]]:
    r0, r1, r2 = r
    free = []
    a = b = c = d = e = f = 0.0
    for t, (p, q, s) in zip(x, columns):
        g = p * r0 + q * r1 + s * r2
        if (t <= 0.0 and g > 0.0) or (t >= 1.0 and g < 0.0):
            p = q = s = 0.0
        free.append((p, q, s))
        a += p * p
        b += p * q
        c += q * q
        d += p * s
        e += q * s
        f += s * s
    descent = a * r0 * r0 + c * r1 * r1 + f * r2 * r2
    if descent + 2.0 * (b * r0 * r1 + d * r0 * r2 + e * r1 * r2) <= 0.0:
        return None
    # The principal minors and determinant of the Gram matrix, clamped at 0
    # against rounding, so that each coefficient of det(G + mu I) as a
    # polynomial in mu is nonnegative, as it is exactly.
    m_ac = max(a * c - b * b, 0.0)
    m_af = max(a * f - d * d, 0.0)
    m_cf = max(c * f - e * e, 0.0)
    det_g = max(a * (c * f - e * e) - b * (b * f - d * e) + d * (b * e - c * d), 0.0)

    def step(mu: float) -> Optional[List[float]]:
        det = det_g + mu * (m_ac + m_af + m_cf + mu * (a + c + f + mu))
        if not det > 0.0:
            return None
        # the adjugate of G + mu I
        k00 = m_cf + mu * (c + f + mu)
        k11 = m_af + mu * (a + f + mu)
        k22 = m_ac + mu * (a + c + mu)
        k01 = d * e - b * (f + mu)
        k02 = b * e - d * (c + mu)
        k12 = b * d - e * (a + mu)
        z0 = (k00 * r0 + k01 * r1 + k02 * r2) / det
        z1 = (k01 * r0 + k11 * r1 + k12 * r2) / det
        z2 = (k02 * r0 + k12 * r1 + k22 * r2) / det
        trial = []
        for t, (p, q, s) in zip(x, free):
            v = t - p * z0 - q * z1 - s * z2
            trial.append(0.0 if v < 0.0 else 1.0 if v > 1.0 else v)
        return trial

    return step, max(a, c, f)


_LINEARIZE = {1: _linearize_1, 2: _linearize_2, 3: _linearize_3}


def _solve(
    residual: _Residual,
    jacobian: _Jacobian,
    x0: Sequence[float],
    max_iterations: int,
) -> _Solved:
    """Projected Levenberg-Marquardt for m = 1 to 3 residuals over [0, 1]^n.

    `residual` maps a point to (r_0, ..., r_{m-1}) and its forward tape, and
    `jacobian` that tape to the n columns of dr/dx: one forward pass per
    point, the Jacobian is its backward sweep.  The cost is the residual
    norm.  Each iteration tries one step delta = -J_f^T z, where
    (J_f J_f^T + mu I) z = r is an m x m system solved in closed form and J_f
    keeps the Jacobian columns of the free coordinates: a coordinate on a
    bound whose gradient points outward is held.  The trial point is clipped
    to the box and accepted only when the cost falls, after which mu shrinks;
    otherwise mu grows and the Jacobian is reused.  So every evaluated point
    lies in the box and the returned cost is never above the start's.
    Converged means a stop on a zero cost, a vanishing free gradient, or a
    step too small to move the point; not converged means the iteration cap
    (or a damped system whose determinant underflows to 0) ended the run.
    `evaluations` counts the calls of `residual`.
    """
    x = [0.0 if (v := float(t)) < 0.0 else 1.0 if v > 1.0 else v for t in x0]
    r, tape = residual(x)
    linearize = _LINEARIZE[len(r)]
    cost = math.hypot(*r)
    evaluations = 1
    mu = -1.0  # set from the first Jacobian
    step: Optional[_Step] = None  # the linearization at x
    iterations = 0
    converged = cost == 0.0
    while not converged and iterations < max_iterations:
        if step is None:
            model = linearize(x, r, jacobian(tape))
            if model is None:
                converged = True  # J_f^T r = 0: no descent inside the box
                break
            step, scale = model
            if mu < 0.0:
                mu = 1e-3 * scale
        iterations += 1
        trial = step(mu)
        if trial is None:
            break
        if trial == x:
            converged = True
            break
        trial_r, trial_tape = residual(trial)
        evaluations += 1
        trial_cost = math.hypot(*trial_r)
        if trial_cost < cost:
            x, r, tape, cost, step = trial, trial_r, trial_tape, trial_cost, None
            converged = cost == 0.0
            mu /= 3.0
        else:
            mu *= 4.0
    return _Solved(tuple(x), cost, iterations, converged, evaluations)


# forms and the continuation over them --------------------------------------


def _alternating(start: StepKind, length: int) -> Tuple[StepKind, ...]:
    other = StepKind.B if start is StepKind.A else StepKind.A
    return tuple(start if i % 2 == 0 else other for i in range(length))


def _forms(k: int, symmetric: bool = False) -> Iterator[Tuple[Seed, Tuple[StepKind, ...]]]:
    """The (seed, alternating form) pairs with at most k steps, ordered by
    length, then seed: (XY; A B A ...) and (YX; B A B ...), k per seed, as
    a first step that fixes the seed adds nothing.  Budget 0 has only the
    empty form.  A `symmetric` problem, one the X <-> Y swap maps to itself,
    gets only the XY forms: each YX form is the mirror of an XY form."""
    seeds = (Seed.XY,) if symmetric else (Seed.XY, Seed.YX)
    for length in range(1, k + 1) if k else (0,):
        for seed in seeds:
            yield seed, _alternating(StepKind.A if seed is Seed.XY else StepKind.B, length)


def _origin(seed: Seed) -> Tuple[float, float]:
    return (1.0, 0.0) if seed is Seed.XY else (0.0, 1.0)


def _origin_xyu(seed: Seed) -> Tuple[float, float, float]:
    return (1.0, 0.0, 1.0) if seed is Seed.XY else (0.0, 1.0, -1.0)


@functools.lru_cache(maxsize=128)
def _start_vectors(master_seed: int, dim: int) -> Tuple[Tuple[float, ...], ...]:
    """Four deterministic Latin-hypercube start points in [0,1]^dim, which
    depend only on the master seed and `dim`.

    Each axis is cut into 4 equal slices, and every point takes a value
    drawn uniformly in its own slice of each axis, the slices shuffled
    independently per axis (McKay, Beckman & Conover 1979).  The generator
    is seeded with the string "master_seed:dim", which `random.Random`
    hashes with SHA-512, so the points do not depend on PYTHONHASHSEED.
    Cached: every form of a walk asks for them again.
    """
    rnd = random.Random(f"{master_seed}:{dim}")
    slices = [rnd.sample(range(4), 4) for _ in range(dim)]
    return tuple(tuple((axis[i] + rnd.random()) / 4 for axis in slices) for i in range(4))


# The least-squares problem of one form: (seed, kinds) -> (residual, jacobian,
# number of parameters).
_Posed = Tuple[_Residual, _Jacobian, int]
_Problem = Callable[[Seed, Tuple[StepKind, ...]], _Posed]


# A solved form: (seed, kinds, its best `_Solved`, residual evaluations).
_Form = Tuple[Seed, Tuple[StepKind, ...], _Solved, int]


# This thread's last walk, (key, its forms solved so far); see `_solved_forms`.
_last_walk = threading.local()


def _resumed(key: tuple) -> list:
    """The slot's solved forms if it holds `key`, else a new empty walk."""
    walk = getattr(_last_walk, "walk", None)
    if walk is None or walk[0] != key:
        walk = _last_walk.walk = (key, [])
    return walk[1]


def _solved_forms(
    k_max: int,
    problem_of: _Problem,
    cfg: SearchConfig,
    enough: float = 0.0,
    symmetric: bool = False,
    key: Optional[tuple] = None,
) -> Iterator[_Form]:
    """Solve each form of `_forms(k_max, symmetric)` once, continuing along
    its family.

    A seed's forms, k of them since a first step fixing the seed adds
    nothing, form one family, each its predecessor with one more step.  A
    form starts first from its predecessor's winner with an identity step
    (t = 0) appended, a continuation (Allgower & Georg 1990): for the
    planar and (u, v, w) folds that start reaches the predecessor's point,
    so the form costs at most its predecessor's optimum.  A seed's first
    form starts from the all-0.5 vector.  The four points of
    `_start_vectors` follow.  The starts stop at the first
    whose cost is <= `enough`; the earlier start wins a tie, so at
    `enough = 0` stopping never changes the winner.  Yields (seed, kinds,
    the form's best `_Solved`, the residual evaluations of its starts).

    Pass `symmetric` only for a problem the X <-> Y swap maps to itself
    (a planar target with x = y, a (u, v, w) target with u = 0 and v = w,
    or the diagonal landing): a YX form and its XY mirror then have the
    same starts and pose the same problem, so the YX forms are skipped.  A
    planar or (u, v, w) twin's cost agrees with its XY twin's up to the
    rounding of sums taken in mirrored order; a landing twin's is the same
    bit for bit.

    With a `key` (`_key`; `enough` must be 0) the walk resumes this
    thread's slot when it holds (key, cfg), solving only the forms past
    those stored there, and stores each form once solved, so an interrupted
    walk leaves a valid prefix.  A form's starts depend only on the forms
    before it, so a resumed walk yields what a cold one does, bit for bit.
    """
    done = _resumed((key, cfg)) if key is not None and k_max else []
    winners: dict = {}  # seed -> its latest form's winning point
    for index, (seed, kinds) in enumerate(_forms(k_max, symmetric)):
        if index == len(done):
            residual, jacobian, dim = problem_of(seed, kinds)
            first = winners[seed] + (0.0,) if seed in winners else (0.5,) * dim
            best: Optional[_Solved] = None
            evaluations = 0
            for start in [first, *_start_vectors(cfg.master_seed, dim)] if dim else [first]:
                solved = _solve(residual, jacobian, start, cfg.max_iterations)
                evaluations += solved.evaluations
                if best is None or solved.cost < best.cost:
                    best = solved
                if solved.cost <= enough:
                    break
            assert best is not None
            done.append((seed, kinds, best, evaluations))
        form = done[index]
        winners[seed] = form[2].point
        yield form


# the search walk ----------------------------------------------------------


def _padded(
    kinds: Tuple[StepKind, ...], ts: Tuple[float, ...], k: int
) -> Tuple[Tuple[StepKind, ...], Tuple[float, ...]]:
    """Pad a form to k steps with identity steps (t = 0) right after its
    first A step, or after its only step for the form (B,)."""
    extra = k - len(kinds)
    if extra == 0:
        return kinds, ts
    cut = kinds.index(StepKind.A) + 1 if StepKind.A in kinds else 1
    kinds = kinds[:cut] + (kinds[cut - 1],) * extra + kinds[cut:]
    return kinds, ts[:cut] + (0.0,) * extra + ts[cut:]


def _walk(
    k_max: int, cfg: SearchConfig, key: tuple, problem_of: _Problem, symmetric: bool = False
) -> List[_Form]:
    """Keep a running best over `_solved_forms(k_max, symmetric=symmetric)`,
    resuming this thread's walk of the problem `key`.

    Returns one form per budget k (k = 0 alone for k_max = 0, else
    k = 1..k_max): the best of at most k steps, unpadded, with the residual
    evaluations spent on all forms of at most k steps.  A form's starts
    depend only on the forms before it, not on the budget, so each is what
    a walk stopped at its own budget finds.
    """
    bests: List[_Form] = []
    best: Optional[Tuple[Seed, Tuple[StepKind, ...], _Solved]] = None
    evaluations = 0
    solved_forms = _solved_forms(k_max, problem_of, cfg, symmetric=symmetric, key=key)
    for _, forms in itertools.groupby(solved_forms, key=lambda form: len(form[1])):
        for seed, kinds, solved, spent in forms:
            evaluations += spent
            if best is None or solved.cost < best[2].cost:
                best = (seed, kinds, solved)
        assert best is not None
        bests.append((*best, evaluations))
    return bests


def _finite_target(names: str, target: Sequence[float]) -> Sequence[float]:
    for name, value in zip(names, target):
        if not math.isfinite(value):
            raise ValueError(f"target coordinate {name} = {value} is not finite")
    return target


def _key(kind: str, target: Iterable[float]) -> tuple:
    """A problem's kind and target doubles, by `float.hex`: 0.0 != -0.0."""
    return (kind, *map(float.hex, target))


def _xy_problem(target: Tuple[float, float]) -> _Problem:
    """Reach (tx, ty) with the planar fold: residual fold - target."""
    tx, ty = _finite_target("xy", target)

    def problem_of(seed: Seed, kinds: Tuple[StepKind, ...]) -> _Posed:
        origin = _origin(seed)

        def residual(ts: Sequence[float]) -> Tuple[Tuple[float, float], list]:
            (x, y), tape = _fold_xy(origin, kinds, ts)
            return (x - tx, y - ty), tape

        return residual, _sweep_xy, len(kinds)

    return problem_of


def _uvw_problem(target: Tuple[float, float, float]) -> _Problem:
    """Reach (tu, tv, tw) with `_fold_xyu`: residual (u, 6x - 3u - 2,
    6y + 3u - 2) - target."""
    tu, tv, tw = _finite_target("uvw", target)

    def problem_of(seed: Seed, kinds: Tuple[StepKind, ...]) -> _Posed:
        origin = _origin_xyu(seed)

        def residual(ts: Sequence[float]) -> Tuple[Tuple[float, float, float], list]:
            (x, y, u), tape = _fold_xyu(origin, kinds, ts)
            return (u - tu, 6.0 * x - 3.0 * u - 2.0 - tv, 6.0 * y + 3.0 * u - 2.0 - tw), tape

        return residual, _sweep_xyu, len(kinds)

    return problem_of


# The point a sequence (seed, kinds, ts) reaches, in its objective's coordinates.
_PointOf = Callable[[Seed, Tuple[StepKind, ...], Sequence[float]], Union[XYPoint, UVWPoint]]
# A target's walk key, problem, symmetry and point map.
_Search = Tuple[tuple, _Problem, bool, _PointOf]


def _xy_point(seed: Seed, kinds: Tuple[StepKind, ...], ts: Sequence[float]) -> XYPoint:
    (x, y), _ = _fold_xy(_origin(seed), kinds, ts)
    return XYPoint.of_floats(x, y)


def _uvw_point(seed: Seed, kinds: Tuple[StepKind, ...], ts: Sequence[float]) -> UVWPoint:
    (x, y, u), _ = _fold_xyu(_origin_xyu(seed), kinds, ts)
    return UVWPoint(*map(Scalar.of_float, (u, 6.0 * x - 3.0 * u - 2.0, 6.0 * y + 3.0 * u - 2.0)))


def _xy_search(target: XYPoint) -> _Search:
    """A planar target's key, problem, symmetry (x == y as floats), point."""
    tx, ty = target.to_floats()
    return _key("xy", (tx, ty)), _xy_problem((tx, ty)), tx == ty, _xy_point


def _uvw_search(target: UVWPoint) -> _Search:
    """A (u, v, w) target's key, problem, symmetry (u == 0 and v == w as
    floats: the X <-> Y swap sends (u, v, w) to (-u, w, v)), point."""
    tu, tv, tw = goal = tuple(c.to_float() for c in target.coords())
    return _key("uvw", goal), _uvw_problem(goal), tu == 0.0 and tv == tw, _uvw_point


def _report(k: int, form: _Form, point_of: _PointOf) -> SearchReport:
    """The record of a budget's best form, padded to k steps."""
    seed, kinds, solved, evaluations = form
    kinds, ts = _padded(kinds, solved.point, k)
    return SearchReport(
        best_sequence=MapSequence(
            seed, tuple((kind, Scalar.of_float(t)) for kind, t in zip(kinds, ts)), Mode.FLOAT
        ),
        best_point=point_of(seed, kinds, ts),
        distance=Scalar.of_float(solved.cost),
        evaluations=evaluations,
        converged=solved.converged,
    )


def _nearest(k: int, cfg: SearchConfig, search: _Search) -> SearchReport:
    if k < 0:
        raise ValueError("step count must be nonnegative")
    key, problem_of, symmetric, point_of = search
    return _report(k, _walk(k, cfg, key, problem_of, symmetric)[-1], point_of)


def _profile(k_max: int, cfg: SearchConfig, search: _Search) -> List[SearchReport]:
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    key, problem_of, symmetric, point_of = search
    walk = _walk(k_max, cfg, key, problem_of, symmetric)
    return [_report(k, form, point_of) for k, form in enumerate(walk, start=1)]


def nearest_reachable(
    target: XYPoint, k: int, cfg: SearchConfig = DEFAULT_CONFIG
) -> SearchReport:
    """Best planar approximation to the target with at most k steps.

    Searches both seeds and their k alternating forms each (a first step
    fixing the seed adds nothing), solving each form's parameters by
    projected Levenberg-Marquardt (`_solve`) on the residual fold - target,
    from the starts of `_solved_forms`: the winner of the form one step
    shorter with an identity step appended, then four seeded
    Latin-hypercube points.  On an exact distance tie the shortest form
    wins, then the XY seed.  On a diagonal target (x == y as floats) the
    YX forms, mirrors of the XY forms, are not solved, so the winner is
    XY-seeded and `evaluations` counts the XY forms alone.
    A winner shorter than k is padded to k steps with identity steps
    (t = 0) right after its first A step, or by repeating the step of the
    form (B,).  The returned distance is the float norm of fold - target
    at the returned parameters.  It is not certified: rounding can put it
    below the exact distance of those doubles (in 19 of the 32 rows of the
    (1/3, 1/3) profile to k = 32, the square by up to 8.7e-13 relative).
    Calls on one target and `cfg` in a thread extend one walk.
    """
    return _nearest(k, cfg, _xy_search(target))


def nearest_reachable_uvw(
    target: UVWPoint, k: int, cfg: SearchConfig = DEFAULT_CONFIG
) -> SearchReport:
    """Same search with the full three-coordinate objective.

    The planar distance only lower-bounds the difficulty of reaching a
    group element; this variant scores sequences against (u, v, w) itself.
    The report's best_point is the reached UVWPoint.  A target with u == 0
    and v == w (as floats) is its own mirror: only its XY forms are solved.
    """
    return _nearest(k, cfg, _uvw_search(target))


def coarse_length_profile(
    target: XYPoint, k_max: int, cfg: SearchConfig = DEFAULT_CONFIG
) -> List[SearchReport]:
    """Distance to the target as a function of the step budget k = 1..k_max.

    One walk over the forms serves every k, and row k is the report
    `nearest_reachable(target, k, cfg)` returns.  Nonincreasing by
    construction.
    """
    return _profile(k_max, cfg, _xy_search(target))


def coarse_length_profile_uvw(
    target: UVWPoint, k_max: int, cfg: SearchConfig = DEFAULT_CONFIG
) -> List[SearchReport]:
    """Profile against the full three-coordinate objective.

    Row k is the report `nearest_reachable_uvw(target, k, cfg)` returns;
    used for experiments targeting a group element rather than its planar
    shadow.
    """
    return _profile(k_max, cfg, _uvw_search(target))


# diagonal analysis ------------------------------------------------------


def _landing(kind: StepKind, x0: float, y0: float) -> Optional[Tuple[float, float, float]]:
    """The diagonal point (d, d) one step from (x0, y0) reaches with t in
    [0, 1), as (d, dd/dx0, dd/dy0); None when no step lands.

    With (base, other) = (x0, y0) for A and (y0, x0) for B and r = 1 - t,
    the step lands where G(r) = base r^2 + (1 - other) r - 1 = 0, at
    d = r^2 base.  G(0) = -1, so exactly one root is positive, and it lies
    in (0, 1] iff G(1) = base - other >= 0.  With b = 1 - other, the root
    is r = 2 / (b + sqrt(b^2 + 4 base)), free of cancellation, and
    G_r = 2 base r + b = sqrt(b^2 + 4 base) > 0.  Implicit differentiation
    (G_base = r^2, G_other = -r) gives dd/dother = 2d / G_r and
    dd/dbase = r^2 - r dd/dother.
    """
    is_a = kind is StepKind.A
    base, other = (x0, y0) if is_a else (y0, x0)
    if base < other:
        return None
    b = 1.0 - other
    root = math.sqrt(b * b + 4.0 * base)
    r = 2.0 / (b + root)
    d = r * r * base
    d_other = 2.0 * d / root
    d_base = r * r - r * d_other
    return (d, d_base, d_other) if is_a else (d, d_other, d_base)


def _landing_problem(seed: Seed, kinds: Tuple[StepKind, ...]) -> _Posed:
    """Residual d - 1/3 of the form's diagonal landing, over the parameters
    of every step but the last, which lands exactly.  An A step lands iff
    it starts on or below the diagonal (x0 >= y0), a B step iff it starts
    on or above it; a point with no landing scores 2 - 1/3 with a zero
    gradient."""
    origin = _origin(seed)
    prefix, last = kinds[:-1], kinds[-1]

    def residual(ts: Sequence[float]) -> Tuple[Tuple[float], tuple]:
        start, tape = _fold_xy(origin, prefix, ts)
        d, d_x0, d_y0 = _landing(last, *start) or (2.0, 0.0, 0.0)
        return (d - 1 / 3,), (d_x0, d_y0, tape)

    def jacobian(landing: tuple) -> List[Tuple[float]]:
        d_x0, d_y0, tape = landing
        return [(d_x0 * p + d_y0 * q,) for p, q in _sweep_xy(tape)]

    return residual, jacobian, len(prefix)


def diagonal_gap(k: int, cfg: SearchConfig = DEFAULT_CONFIG) -> Scalar:
    """How far above 1/3 the diagonal points reachable in <= k steps stay.

    The final step lands exactly, at the one positive root of its landing
    equation (`_landing`), and the earlier steps are found by `_solve` on
    the residual d - 1/3, over the k alternating forms per seed (runs of
    one kind fuse, and a first step fixing the seed adds nothing).  The
    diagonal is its own mirror, so only the XY forms are solved.  Returns
    min(d) - 1/3, which the staircase law bounds below by 1/6 (k+1)^-2.
    """
    if k < 1:
        raise ValueError("need at least one step to reach the diagonal")
    solved_forms = _solved_forms(k, _landing_problem, cfg, symmetric=True, key=("landing",))
    costs = (solved.cost for _, _, solved, _ in solved_forms)
    return Scalar.of_float(min(costs))


# word synthesis ---------------------------------------------------------


@dataclass(frozen=True)
class SynthesisResult:
    success: bool
    residual: float
    stage: str
    message: str
    sequence: Optional[MapSequence] = None
    word: Optional[SigmaWord] = None
    achieved: Optional[XYPoint] = None


def _finish(target: XYPoint, seed: Seed, steps: List[Tuple[StepKind, float]], stage: str) -> SynthesisResult:
    sequence = MapSequence(
        seed, tuple((kind, Scalar.of_float(t)) for kind, t in steps), Mode.FLOAT
    )
    achieved = apply_sequence(sequence)
    word = seq_to_word(sequence)
    residual = xy_distance(achieved, target)
    return SynthesisResult(
        success=True,
        residual=residual,
        stage=stage,
        message=f"solved in stage {stage}",
        sequence=sequence,
        word=word,
        achieved=achieved,
    )


def _floor_distance(target_xy: Tuple[float, float], cfg: SearchConfig) -> Optional[float]:
    """The staircase floor's distance to the target when it proves that no
    sequence of at most L = `cfg.max_synthesis_steps` steps comes within
    `cfg.synthesis_tolerance` of it; None when it does not.

    An L-step form evaluates a word of at most L + 2 letters, whose exact
    image has x + y - 2/3 >= 1/(3(L+1)^2) (the staircase law, `dynamics`),
    so it lies at least (2/3 + 1/(3(L+1)^2) - tx - ty)/sqrt(2) from the
    target.  That floor falls as L grows: the cap's floor bounds every form
    up to the cap, so the test is all or nothing.  It is exact, on the
    target's doubles as integer ratios, comparing squares.  The floor must
    clear the tolerance by 1e-12 per step.  A cost `_solve` or `_finish`
    computes is the float fold of at most L steps on values in [0, 1], each
    step a few roundings that later steps do not amplify, so it is within
    about 4L ulps of 1 of the exact distance of the same parameters (1e-14
    at L = 12): with the margin, no float cost of any form passes the
    tolerance.
    """
    (nx, dx), (ny, dy) = (t.as_integer_ratio() for t in target_xy)
    nt, dt = cfg.synthesis_tolerance.as_integer_ratio()
    steps = cfg.max_synthesis_steps + 1
    q = 3 * steps * steps
    # floor minus target in x + y, over q dx dy; tolerance plus margin, over dt 10^12
    excess = (2 * steps * steps + 1) * dx * dy - q * (nx * dy + ny * dx)
    clearance = nt * 10**12 + steps * dt
    if excess > 0 and (excess * dt * 10**12) ** 2 > 2 * (clearance * q * dx * dy) ** 2:
        return excess / (q * dx * dy) / math.sqrt(2)
    return None


def _reach(
    target_xy: Tuple[float, float], cfg: SearchConfig
) -> Optional[Tuple[Seed, Tuple[StepKind, ...], Tuple[float, ...]]]:
    """Reach a planar point by `_solved_forms` within `cfg.max_synthesis_steps`.

    Returns the first (seed, kinds, ts) within `cfg.synthesis_tolerance`,
    so shorter sequences win; None when the budget ends.  A budget of 0
    steps leaves only the empty forms, which are not a reach.  A diagonal
    target solves only the XY forms, as in `nearest_reachable`.
    """
    tol = cfg.synthesis_tolerance
    tx, ty = target_xy
    solved_forms = _solved_forms(
        cfg.max_synthesis_steps, _xy_problem(target_xy), cfg, tol, symmetric=tx == ty
    )
    for seed, kinds, solved, _ in solved_forms:
        if kinds and solved.cost <= tol:
            return seed, kinds, solved.point
    return None


def synthesize_word(
    target: XYPoint, cfg: SearchConfig = DEFAULT_CONFIG
) -> SynthesisResult:
    """Construct an alternating unit-mass word whose image is the target.

    Stages, in order: the exact seed solutions (the two endpoints), the
    exact seed-orbit solutions (one step from a seed), and a direct numeric
    reach of the target by `_reach`, the shortest form first.  Every word
    has at most `cfg.max_synthesis_steps` steps.  Exhausting the budget is
    reported, not raised, as stage "exhausted"; that is the expected
    outcome for targets very near the excluded limit point (1/3, 1/3).  It
    comes two ways.  A proven one: the staircase floor puts every sequence
    within the budget farther from the target than the tolerance, no form
    is solved, and the message gives the floor.  A budget-limited one: the
    solver ran on every form and none came within the tolerance, which
    does not prove that none can.
    """
    verdict = membership(target)
    if verdict.status is Membership.OUTSIDE:
        raise SynthesisDomainError(
            f"target {target.to_floats()} is outside the region "
            f"(failed {verdict.failed_condition})"
        )
    x, y = target.to_floats()
    tol = cfg.synthesis_tolerance

    # Stage: seed.  The two endpoints are the seed images themselves.
    if verdict.status is Membership.ENDPOINT_MEMBER:
        seed = Seed.XY if x == 1 else Seed.YX
        return _finish(target, seed, [], "seed")

    # Stage: seed-orbit.  One step from a seed covers the two boundary
    # curves through the endpoints: a_t(1,0) = ((1-t)^2, t) and
    # b_t(0,1) = (t, (1-t)^2).
    if cfg.max_synthesis_steps >= 1:
        if 0.0 <= y < 1.0 and abs(x - (1.0 - y) ** 2) <= tol:
            return _finish(target, Seed.XY, [(StepKind.A, y)], "seed-orbit")
        if 0.0 <= x < 1.0 and abs(y - (1.0 - x) ** 2) <= tol:
            return _finish(target, Seed.YX, [(StepKind.B, x)], "seed-orbit")

    # Stage: direct.  Numeric reach of the target itself, unless the floor
    # proves it out of reach.
    floor = _floor_distance((x, y), cfg)
    found = _reach((x, y), cfg) if floor is None else None
    if found is not None:
        seed, kinds, ts = found
        result = _finish(target, seed, list(zip(kinds, ts)), "direct")
        if result.residual <= tol:
            return result

    cap = cfg.max_synthesis_steps
    if floor is not None:
        message = (
            f"the staircase floor proves that no sequence of <= {cap} steps "
            f"comes within {tol}: the floor is {floor:.6g} from the target"
        )
    else:
        message = f"no sequence of <= {cap} steps reached the target within {tol}"
    return SynthesisResult(
        success=False,
        residual=math.inf,
        stage="exhausted",
        message=f"{message}; targets near (1/3, 1/3) need unboundedly many steps",
    )
