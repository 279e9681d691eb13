"""Reachability search over finite compositions of the planar maps.

A map sequence starts from one of the two seed words (images (1,0) and
(0,1)) and applies k steps, each an a- or b-map with a parameter in [0,1].
Searches minimize the distance from the endpoint to a target over the
kinds of the steps and the parameter vector.

The search rests on one algebraic fact: consecutive steps of the same kind
fuse, applying the a-map at t then at u equals one a-step at
1-(1-t)(1-u), and likewise for b.  A kind sequence therefore reaches
exactly what its run-collapsed alternating form reaches, so with budget k
only the alternating forms of length 1..k exist: 2k per seed.  The search
optimizes each form once, in the order of `_forms` (length, then seed, then
starting kind), and keeps the first form with the smallest distance, so on
an exact tie the shortest form wins.  A winner shorter than k is padded to
k steps with identity steps (t = 0) right after its first A step, or by
repeating the step of the form (B,).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize
from scipy.stats import qmc

from .dynamics import UVWPoint, XYPoint, map_a_xy, map_b_xy, xy_distance
from .region import Membership, membership
from .scalar import DIAGONAL_FIXED_POINT, Mode, Scalar
from .words import SigmaWord, word_map_a, word_map_b

__all__ = [
    "Seed",
    "StepKind",
    "MapSequence",
    "SearchConfig",
    "DEFAULT_CONFIG",
    "SearchReport",
    "ProfileRow",
    "SynthesisDomainError",
    "SynthesisResult",
    "seed_point",
    "seed_uvw",
    "seed_sigma_word",
    "apply_sequence",
    "seq_to_word",
    "nearest_reachable",
    "nearest_reachable_uvw",
    "coarse_length_profile",
    "coarse_length_profile_uvw",
    "profile_to_csv",
    "diagonal_gap",
    "synthesize_word",
]


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
    seed: Seed
    steps: Tuple[Tuple[StepKind, Scalar], ...]

    def __post_init__(self):
        for kind, t in self.steps:
            if t < 0 or t > 1:
                raise ValueError(f"step parameter {t} outside [0, 1]")

    def pattern(self) -> str:
        return "".join(kind.value for kind, _ in self.steps)


@dataclass(frozen=True)
class SearchConfig:
    master_seed: int = 1729
    multistarts: int = 8
    max_iterations: int = 500
    synthesis_tolerance: float = 1e-9
    max_synthesis_steps: int = 12

    def __post_init__(self):
        broken = [
            rule
            for rule, holds in (
                ("multistarts >= 1", self.multistarts >= 1),
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
    best_sequence: MapSequence
    best_point: XYPoint
    distance: Scalar
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class ProfileRow:
    k: int
    distance: float
    pattern: str
    t_values: Tuple[float, ...]


# seeds and folds --------------------------------------------------------


def seed_point(seed: Seed, mode: Mode = Mode.FLOAT) -> XYPoint:
    one = Scalar.one(mode)
    zero = Scalar.zero(mode)
    return XYPoint(one, zero) if seed is Seed.XY else XYPoint(zero, one)


def seed_uvw(seed: Seed) -> Tuple[float, float, float]:
    return (1.0, 1.0, 1.0) if seed is Seed.XY else (-1.0, 1.0, 1.0)


def seed_sigma_word(seed: Seed, mode: Mode = Mode.FLOAT) -> SigmaWord:
    one = Scalar.one(mode)
    zero = Scalar.zero(mode)
    if seed is Seed.XY:
        return SigmaWord(((one, one),))
    # YX in block form needs a leading zero X-run and a trailing zero Y-run.
    return SigmaWord(((zero, one), (one, zero)))


def apply_sequence(seq: MapSequence) -> XYPoint:
    mode = seq.steps[0][1].mode if seq.steps else Mode.FLOAT
    point = seed_point(seq.seed, mode)
    for kind, t in seq.steps:
        point = map_a_xy(t, point) if kind is StepKind.A else map_b_xy(t, point)
    return point


def seq_to_word(seq: MapSequence) -> SigmaWord:
    mode = seq.steps[0][1].mode if seq.steps else Mode.FLOAT
    word = seed_sigma_word(seq.seed, mode)
    for kind, t in seq.steps:
        word = word_map_a(word, t) if kind is StepKind.A else word_map_b(word, t)
    return word


def _clamp(t: float) -> float:
    return 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)


def _fold_xy(
    point: Tuple[float, float], kinds: Sequence[StepKind], ts: Sequence[float]
) -> Tuple[float, float]:
    x, y = point
    for kind, raw in zip(kinds, ts):
        t = _clamp(raw)
        r = 1.0 - t
        if kind is StepKind.A:
            x, y = r * r * x, r * y + t
        else:
            x, y = r * x + t, r * r * y
    return x, y


def _fold_xy_jacobian(
    point: Tuple[float, float], kinds: Sequence[StepKind], ts: Sequence[float]
) -> np.ndarray:
    """The 2 x n Jacobian of `_fold_xy` with respect to the step parameters.

    Each step acts on the state diagonally, A by diag(r^2, r) and B by
    diag(r, r^2) with r = 1 - t, so column i is step i's own derivative
    scaled by the product of the later steps' factors: one forward pass and
    one backward sweep of suffix products, no matrix products.
    """
    x, y = point
    steps = []
    for kind, raw in zip(kinds, ts):
        t = _clamp(raw)
        r = 1.0 - t
        if kind is StepKind.A:
            steps.append((-2.0 * r * x, 1.0 - y, r * r, r))
            x, y = r * r * x, r * y + t
        else:
            steps.append((1.0 - x, -2.0 * r * y, r, r * r))
            x, y = r * x + t, r * r * y
    jac = np.empty((2, len(steps)))
    sx = sy = 1.0
    for i in range(len(steps) - 1, -1, -1):
        dx, dy, fx, fy = steps[i]
        jac[0, i] = dx * sx
        jac[1, i] = dy * sy
        sx *= fx
        sy *= fy
    return jac


def _fold_uvw(
    point: Tuple[float, float, float], kinds: Sequence[StepKind], ts: Sequence[float]
) -> Tuple[float, float, float]:
    u, v, w = point
    for kind, raw in zip(kinds, ts):
        t = _clamp(raw)
        r = 1.0 - t
        if kind is StepKind.A:
            u, v, w = r * u - t, r * r * v - 3 * t * r * u + t * (2 * t - 1), r * w + t
        else:
            u, v, w = r * u + t, r * v + t, r * r * w + 3 * t * r * u + t * (2 * t - 1)
    return u, v, w


# forms and the multistart optimizer ---------------------------------------


def _alternating(start: StepKind, length: int) -> Tuple[StepKind, ...]:
    other = StepKind.B if start is StepKind.A else StepKind.A
    return tuple(start if i % 2 == 0 else other for i in range(length))


def _forms(k: int) -> Iterator[Tuple[Seed, Tuple[StepKind, ...]]]:
    """The (seed, alternating form) pairs with at most k steps, ordered by
    length, then seed, then starting kind.  Budget 0 has only the empty form."""
    if k == 0:
        for seed in (Seed.XY, Seed.YX):
            yield seed, ()
    for length in range(1, k + 1):
        for seed in (Seed.XY, Seed.YX):
            for start in (StepKind.A, StepKind.B):
                yield seed, _alternating(start, length)


def _origin(seed: Seed) -> Tuple[float, float]:
    return (1.0, 0.0) if seed is Seed.XY else (0.0, 1.0)


def _length_context(tag: int, seed: Seed, kinds: Tuple[StepKind, ...]) -> Tuple[int, ...]:
    """Start-vector context of a nonempty form by its length and first kind."""
    return tag, 0 if seed is Seed.XY else 1, len(kinds), 0 if kinds[0] is StepKind.A else 1


def _start_vectors(dim: int, cfg: SearchConfig, context: Sequence[int]) -> np.ndarray:
    """Deterministic Latin-hypercube start points in [0,1]^dim."""
    seed_seq = np.random.SeedSequence([cfg.master_seed, *context, dim])
    rng = np.random.default_rng(seed_seq)
    sampler = qmc.LatinHypercube(d=dim, seed=rng)
    return sampler.random(cfg.multistarts)


def _multistart(
    objective: Callable[[Sequence[float]], float],
    dim: int,
    cfg: SearchConfig,
    context: Sequence[int],
) -> Tuple[float, Tuple[float, ...], bool]:
    """Bounded Nelder-Mead from each seeded start in [0,1]^dim.

    Returns (value, clamped parameters, converged) of the best start; the
    earlier start wins a tie.  With dim = 0 the objective is evaluated once.
    """
    if dim == 0:
        return objective(()), (), True
    best: Optional[Tuple[float, Tuple[float, ...], bool]] = None
    for start in _start_vectors(dim, cfg, context):
        result = optimize.minimize(
            objective,
            start,
            method="Nelder-Mead",
            bounds=[(0.0, 1.0)] * dim,
            options={
                "xatol": 1e-10,
                "fatol": 1e-16,
                "maxiter": cfg.max_iterations,
                "maxfev": 20 * cfg.max_iterations,
            },
        )
        if best is None or float(result.fun) < best[0]:
            best = (
                float(result.fun),
                tuple(_clamp(float(t)) for t in result.x),
                bool(result.success),
            )
    assert best is not None
    return best


# the search walk ----------------------------------------------------------

_Distance = Callable[[Seed, Tuple[StepKind, ...], Sequence[float]], float]


@dataclass(frozen=True)
class _Winner:
    """The best sequence within a budget of k steps, padded to k."""

    seed: Seed
    kinds: Tuple[StepKind, ...]
    ts: Tuple[float, ...]
    distance: float
    converged: bool
    evaluations: int


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


def _walk(k_max: int, distance_of: _Distance, cfg: SearchConfig, tag: int) -> List[_Winner]:
    """Optimize every form of `_forms(k_max)` once, keeping a running best.

    Returns one winner per budget k (k = 0 alone for k_max = 0, else
    k = 1..k_max), counting the objective evaluations spent on all forms of
    at most k steps.  Starts depend only on the form, not on the budget, so
    each winner is what a walk stopped at its own budget finds.
    """
    winners: List[_Winner] = []
    best: Optional[Tuple[float, Seed, Tuple[StepKind, ...], Tuple[float, ...], bool]] = None
    evaluations = 0

    def objective(ts: Sequence[float]) -> float:
        nonlocal evaluations
        evaluations += 1
        return distance_of(seed, kinds, ts)

    for length, forms in itertools.groupby(_forms(k_max), key=lambda form: len(form[1])):
        for seed, kinds in forms:
            b_positions = sum(1 << i for i, kind in enumerate(kinds) if kind is StepKind.B)
            context = (tag, 0 if seed is Seed.XY else 1, b_positions)
            distance, ts, converged = _multistart(objective, length, cfg, context)
            if best is None or distance < best[0]:
                best = (distance, seed, kinds, ts, converged)
        assert best is not None
        distance, best_seed, best_kinds, ts, converged = best
        padded_kinds, padded_ts = _padded(best_kinds, ts, length)
        winners.append(
            _Winner(best_seed, padded_kinds, padded_ts, distance, converged, evaluations)
        )
    return winners


def _xy_distance(target: XYPoint) -> _Distance:
    tx, ty = target.x.to_float(), target.y.to_float()

    def distance_of(seed: Seed, kinds: Tuple[StepKind, ...], ts: Sequence[float]) -> float:
        x, y = _fold_xy(_origin(seed), kinds, ts)
        return math.hypot(x - tx, y - ty)

    return distance_of


def _uvw_distance(target: UVWPoint) -> _Distance:
    tu, tv, tw = (c.to_float() for c in target.coords())

    def distance_of(seed: Seed, kinds: Tuple[StepKind, ...], ts: Sequence[float]) -> float:
        u, v, w = _fold_uvw(seed_uvw(seed), kinds, ts)
        return math.sqrt((u - tu) ** 2 + (v - tv) ** 2 + (w - tw) ** 2)

    return distance_of


def _report(winner: _Winner, point) -> SearchReport:
    steps = tuple((kind, Scalar.of_float(t)) for kind, t in zip(winner.kinds, winner.ts))
    return SearchReport(
        best_sequence=MapSequence(winner.seed, steps),
        best_point=point,
        distance=Scalar.of_float(winner.distance),
        evaluations=winner.evaluations,
        converged=winner.converged,
    )


def nearest_reachable(
    target: XYPoint, k: int, cfg: SearchConfig = DEFAULT_CONFIG
) -> SearchReport:
    """Best planar approximation to the target with at most k steps.

    Searches both seeds and the 2k alternating forms, with a multistart
    simplex search over each form's parameters.  On an exact distance tie
    the shortest form wins, then the XY seed, then the form starting with A.
    A winner shorter than k is padded to k steps with identity steps
    (t = 0) right after its first A step, or by repeating the step of the
    form (B,).  The returned distance is always an upper bound on the true
    minimum.
    """
    if k < 0:
        raise ValueError("step count must be nonnegative")
    winner = _walk(k, _xy_distance(target), cfg, tag=0)[-1]
    x, y = _fold_xy(_origin(winner.seed), winner.kinds, winner.ts)
    return _report(winner, XYPoint.of_floats(x, y))


def nearest_reachable_uvw(
    target: UVWPoint, k: int, cfg: SearchConfig = DEFAULT_CONFIG
) -> SearchReport:
    """Same search with the full three-coordinate objective.

    The planar distance only lower-bounds the difficulty of reaching a
    group element; this variant scores sequences against (u, v, w) itself.
    The report's best_point is the reached UVWPoint.
    """
    if k < 0:
        raise ValueError("step count must be nonnegative")
    winner = _walk(k, _uvw_distance(target), cfg, tag=1)[-1]
    u, v, w = _fold_uvw(seed_uvw(winner.seed), winner.kinds, winner.ts)
    return _report(winner, UVWPoint(Scalar.of_float(u), Scalar.of_float(v), Scalar.of_float(w)))


def _profile(k_max: int, distance_of: _Distance, cfg: SearchConfig, tag: int) -> List[ProfileRow]:
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    return [
        ProfileRow(
            k=k,
            distance=winner.distance,
            pattern="".join(kind.value for kind in winner.kinds),
            t_values=winner.ts,
        )
        for k, winner in enumerate(_walk(k_max, distance_of, cfg, tag), start=1)
    ]


def coarse_length_profile(
    target: XYPoint, k_max: int, cfg: SearchConfig = DEFAULT_CONFIG
) -> List[ProfileRow]:
    """Distance to the target as a function of the step budget k = 1..k_max.

    One walk over the forms serves every k, and row k equals
    `nearest_reachable(target, k, cfg)`.  Nonincreasing by construction.
    """
    return _profile(k_max, _xy_distance(target), cfg, tag=0)


def coarse_length_profile_uvw(
    target: UVWPoint, k_max: int, cfg: SearchConfig = DEFAULT_CONFIG
) -> List[ProfileRow]:
    """Profile against the full three-coordinate objective.

    Row k equals `nearest_reachable_uvw(target, k, cfg)`; used for
    experiments targeting a group element rather than its planar shadow.
    """
    return _profile(k_max, _uvw_distance(target), cfg, tag=1)


def profile_to_csv(rows: Sequence[ProfileRow]) -> str:
    lines = ["k,distance,pattern,t_vector"]
    for row in rows:
        ts = ";".join(repr(t) for t in row.t_values)
        lines.append(f"{row.k},{row.distance!r},{row.pattern},{ts}")
    return "\n".join(lines) + "\n"


# diagonal analysis ------------------------------------------------------


def _quadratic_roots(a: float, b: float, c: float) -> List[float]:
    """Real roots of a t^2 + b t + c, stable against cancellation."""
    if abs(a) < 1e-300:
        if abs(b) < 1e-300:
            return []
        return [-c / b]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    root = math.sqrt(disc)
    if b >= 0:
        q = -(b + root) / 2
    else:
        q = -(b - root) / 2
    roots = [q / a]
    if q != 0:
        roots.append(c / q)
    return roots


def _diagonal_landings(kind: StepKind, x0: float, y0: float) -> List[Tuple[float, float]]:
    """Parameters t in [0,1) whose step from (x0,y0) lands on the diagonal,
    paired with the landing coordinate d."""
    if kind is StepKind.A:
        a, b, c = x0, y0 - 2 * x0 - 1, x0 - y0
    else:
        a, b, c = y0, x0 - 2 * y0 - 1, y0 - x0
    landings = []
    for t in _quadratic_roots(a, b, c):
        if 0.0 <= t < 1.0:
            base = x0 if kind is StepKind.A else y0
            landings.append((t, (1.0 - t) ** 2 * base))
    return landings


def diagonal_gap(k: int, cfg: SearchConfig = DEFAULT_CONFIG) -> Scalar:
    """How far above 1/3 the diagonal points reachable in <= k steps stay.

    The final step is solved exactly (a quadratic decides which parameters
    land on the diagonal), the earlier steps are optimized numerically, and
    only alternating forms are searched since runs of one kind fuse.
    Returns min(d) - 1/3, which is positive for every finite k.
    """
    if k < 1:
        raise ValueError("need at least one step to reach the diagonal")
    best = math.inf
    for seed, kinds in _forms(k):
        prefix, last = kinds[:-1], kinds[-1]

        def landing(ts: Sequence[float]) -> float:
            x0, y0 = _fold_xy(_origin(seed), prefix, ts)
            options = [d for _, d in _diagonal_landings(last, x0, y0)]
            return min(options) if options else 2.0

        context = _length_context(2, seed, kinds)
        best = min(best, _multistart(landing, len(prefix), cfg, context)[0])
    return Scalar.of_float(best - 1 / 3)


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
        seed, tuple((kind, Scalar.of_float(t)) for kind, t in steps)
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


class _Solved(NamedTuple):
    point: Tuple[float, ...]
    cost: float
    iterations: int
    converged: bool


def _solve(
    residual: Callable[[List[float]], Tuple[float, float]],
    jacobian: Callable[[List[float]], np.ndarray],
    x0: Sequence[float],
    max_iterations: int,
) -> _Solved:
    """Projected Levenberg-Marquardt for two residuals over the box [0, 1]^n.

    `residual` maps a point to (r0, r1) and `jacobian` to the 2 x n array of
    their derivatives; the cost is the residual norm.  Each iteration tries
    one step delta = -J_f^T z, where (J_f J_f^T + mu I) z = r is a 2 x 2
    system solved in closed form and J_f keeps the Jacobian columns of the
    free coordinates: a coordinate on a bound whose gradient points outward
    is held.  The trial point is clipped to the box and accepted only when
    the cost falls, after which mu shrinks; otherwise mu grows and the
    Jacobian is reused.  So every evaluated point lies in the box and the
    returned cost is never above the start's.  Converged means a stop on a
    zero cost, a vanishing free gradient, or a step too small to move the
    point; not converged means the iteration cap (or a damped system too
    small to solve) ended the run.
    """
    x = [_clamp(float(t)) for t in x0]
    r0, r1 = residual(x)
    cost = math.hypot(r0, r1)
    mu = -1.0  # set from the first Jacobian
    free: Optional[List[Tuple[float, float]]] = None  # J_f's columns at x
    iterations = 0
    converged = cost == 0.0
    while not converged and iterations < max_iterations:
        if free is None:
            free = []
            for t, (p, q) in zip(x, jacobian(x).T.tolist()):
                g = p * r0 + q * r1
                held = (t <= 0.0 and g > 0.0) or (t >= 1.0 and g < 0.0)
                free.append((0.0, 0.0) if held else (p, q))
            a = sum(p * p for p, _ in free)
            b = sum(p * q for p, q in free)
            c = sum(q * q for _, q in free)
            if a * r0 * r0 + 2.0 * b * r0 * r1 + c * r1 * r1 <= 0.0:
                converged = True  # J_f^T r = 0: no descent inside the box
                break
            if mu < 0.0:
                mu = 1e-3 * max(a, c)
        iterations += 1
        det = max(a * c - b * b, 0.0) + mu * (a + c + mu)
        if not det > 0.0:
            break
        z0 = ((c + mu) * r0 - b * r1) / det
        z1 = ((a + mu) * r1 - b * r0) / det
        trial = [_clamp(t - p * z0 - q * z1) for t, (p, q) in zip(x, free)]
        if trial == x:
            converged = True
            break
        t0, t1 = residual(trial)
        trial_cost = math.hypot(t0, t1)
        if trial_cost < cost:
            x, r0, r1, cost, free = trial, t0, t1, trial_cost, None
            converged = cost == 0.0
            mu /= 3.0
        else:
            mu *= 4.0
    return _Solved(tuple(x), cost, iterations, converged)


def _reach(
    target_xy: Tuple[float, float],
    cfg: SearchConfig,
    context_tag: int,
    tolerance: float,
) -> Optional[Tuple[Seed, Tuple[StepKind, ...], Tuple[float, ...], float]]:
    """Reach a planar point by `_solve` over the alternating forms.

    Forms are tried in `_forms` order up to `cfg.max_synthesis_steps`
    steps, each from the all-0.5 vector and then up to four seeded starts,
    with the exact Jacobian of the planar fold (`_fold_xy_jacobian`).
    Returns the first (seed, kinds, ts, residual) meeting the tolerance,
    so shorter sequences win; None when the budget ends.
    """
    tx, ty = target_xy
    starts_budget = min(4, cfg.multistarts)
    for seed, kinds in _forms(cfg.max_synthesis_steps):
        if not kinds:  # a budget of 0 steps has nothing to solve
            return None
        origin = _origin(seed)

        def residual(ts: Sequence[float]) -> Tuple[float, float]:
            x, y = _fold_xy(origin, kinds, ts)
            return x - tx, y - ty

        def jacobian(ts: Sequence[float]) -> np.ndarray:
            return _fold_xy_jacobian(origin, kinds, ts)

        raw_starts = _start_vectors(
            len(kinds), cfg, _length_context(context_tag, seed, kinds)
        )[:starts_budget]
        for x0 in [[0.5] * len(kinds), *raw_starts]:
            solved = _solve(residual, jacobian, x0, cfg.max_iterations)
            if solved.cost <= tolerance:
                return seed, kinds, solved.point, solved.cost
    return None


def _reach_diagonal(
    d: float, cfg: SearchConfig
) -> Optional[Tuple[Seed, List[Tuple[StepKind, float]]]]:
    """A sequence landing on (d, d), or None within the step budget.

    The reach is solved tighter than the synthesis tolerance, and never
    looser than 1e-9, because the final step composed on top can amplify
    the source error slightly.
    """
    s = DIAGONAL_FIXED_POINT.value
    if abs(d - s) <= min(cfg.synthesis_tolerance, 1e-9):
        return Seed.XY, [(StepKind.A, s)]
    tolerance = min(1e-9, cfg.synthesis_tolerance / 4)
    found = _reach((d, d), cfg, context_tag=3, tolerance=tolerance)
    if found is None:
        return None
    seed, kinds, ts, _ = found
    return seed, list(zip(kinds, ts))


def synthesize_word(
    target: XYPoint, cfg: SearchConfig = DEFAULT_CONFIG
) -> SynthesisResult:
    """Construct an alternating unit-mass word whose image is the target.

    Stages, in order: exact seed and seed-orbit solutions; one quadratic
    step back to an admissible diagonal source plus a numeric reach of that
    source; a direct numeric reach of the target.  Exhausting the budget is
    reported, not raised; that is the expected outcome for targets very
    near the excluded limit point (1/3, 1/3).
    """
    verdict = membership(target)
    if verdict.status is Membership.OUTSIDE:
        raise SynthesisDomainError(
            f"target {target.to_floats()} is outside the region "
            f"(failed {verdict.failed_condition})"
        )
    x, y = target.to_floats()
    tol = cfg.synthesis_tolerance
    s = DIAGONAL_FIXED_POINT.value

    # Stage: seed.  The two endpoints are the seed images themselves.
    if verdict.status is Membership.ENDPOINT_MEMBER:
        seed = Seed.XY if x == 1 else Seed.YX
        return _finish(target, seed, [], "seed")

    # Stage: seed-orbit.  One step from a seed covers the two boundary
    # curves through the endpoints: a_t(1,0) = ((1-t)^2, t) and
    # b_t(0,1) = (t, (1-t)^2).
    if 0.0 <= y < 1.0 and abs(x - (1.0 - y) ** 2) <= tol:
        return _finish(target, Seed.XY, [(StepKind.A, y)], "seed-orbit")
    if 0.0 <= x < 1.0 and abs(y - (1.0 - x) ** 2) <= tol:
        return _finish(target, Seed.YX, [(StepKind.B, x)], "seed-orbit")

    # Stage: diagonal-step.  Solve for a final step that maps a diagonal
    # source (d, d) onto the target; admissible sources have d in (1/3, s].
    candidates: List[Tuple[float, StepKind, float]] = []
    for final_kind in (StepKind.A, StepKind.B):
        if final_kind is StepKind.A:
            coeffs = (1.0, -(1.0 + y), y - x)
        else:
            coeffs = (1.0, -(1.0 + x), x - y)
        for t in _quadratic_roots(*coeffs):
            # A root at t = 0 means the source is the target itself, which
            # the direct stage handles; skip to avoid duplicated work.
            if not 1e-12 < t < 1.0:
                continue
            numer = (y - t) if final_kind is StepKind.A else (x - t)
            d = numer / (1.0 - t)
            if 1 / 3 < d <= s + 1e-12:
                candidates.append((d, final_kind, t))
    # Prefer sources near the fixed point: those take the shortest reach.
    candidates.sort(key=lambda item: (-item[0], item[1].value, item[2]))
    deduped: List[Tuple[float, StepKind, float]] = []
    for item in candidates:
        if not deduped or abs(item[0] - deduped[-1][0]) > 1e-12:
            deduped.append(item)
    candidates = deduped
    for d, final_kind, t in candidates:
        reached = _reach_diagonal(min(d, s), cfg)
        if reached is None:
            continue
        seed, steps = reached
        result = _finish(target, seed, steps + [(final_kind, t)], "diagonal-step")
        if result.residual <= tol:
            return result

    # Stage: direct.  Numeric reach of the target itself; this also covers
    # admissible targets whose diagonal-source quadratics have no usable
    # root.
    found = _reach((x, y), cfg, context_tag=4, tolerance=tol)
    if found is not None:
        seed, kinds, ts, _ = found
        result = _finish(target, seed, list(zip(kinds, ts)), "direct")
        if result.residual <= tol:
            return result

    return SynthesisResult(
        success=False,
        residual=math.inf,
        stage="exhausted",
        message=(
            f"no sequence of <= {cfg.max_synthesis_steps} steps reached the "
            f"target within {tol}; targets near (1/3, 1/3) need unboundedly "
            "many steps"
        ),
    )
