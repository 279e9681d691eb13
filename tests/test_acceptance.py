"""Acceptance gate: ten criteria, one test (one pass/fail line) each.

Each criterion states its numeric tolerance and wall-clock budget; the
budgets are asserted so a regression in either correctness or speed fails
the same gate.  Run with `pytest -v tests/test_acceptance.py` to see the
per-criterion lines.
"""

import math
import random
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

from nilwords.dynamics import XYPoint, eval_xy, project, extract_uvw
from nilwords.lie_core import evaluate_word
from nilwords.region import EpsilonPolicy, Membership, membership, render_region
from nilwords.scalar import DIAGONAL_FIXED_POINT, Mode, Scalar
from nilwords.search import (
    coarse_length_profile,
    diagonal_gap,
    nearest_reachable,
    synthesize_word,
)
from nilwords.verify import run_suite
from nilwords.words import balanced_word, parse_word

S = DIAGONAL_FIXED_POINT.value


def timed(budget_seconds):
    """Context manager asserting the block finishes inside its budget."""

    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc_type is None:
                elapsed = time.perf_counter() - self.t0
                assert elapsed < budget_seconds, (
                    f"took {elapsed:.1f}s, budget {budget_seconds}s"
                )

    return _Timer()


def test_acceptance_01_algebra_exactness():
    # 10^4 random rational triples: associativity and Jacobi hold with zero
    # error; the same trials' quadruples confirm step-3 vanishing.  (<10 s)
    with timed(10.0):
        result = run_suite("algebra", mode=Mode.EXACT, trials=10_000)
    failures = [c for c in result.checks if not c.passed]
    assert result.passed, failures
    names = {c.name for c in result.checks}
    assert {"associativity", "jacobi", "step3"} <= names


def test_acceptance_02_seed_evaluations():
    # XY and YX evaluate exactly to the two seed elements, whose planar
    # projections are the endpoints (1,0) and (0,1).  (instant)
    with timed(1.0):
        xy = evaluate_word(parse_word("X^1 Y^1", Mode.EXACT))
        yx = evaluate_word(parse_word("Y^1 X^1", Mode.EXACT))
        assert [c.value for c in xy.coords()] == [1, 1, 1, 1, 1]
        assert [c.value for c in yx.coords()] == [1, 1, -1, 1, 1]
        px = project(extract_uvw(xy))
        py = project(extract_uvw(yx))
        assert (px.x.value, px.y.value) == (1, 0)
        assert (py.x.value, py.y.value) == (0, 1)


def test_acceptance_03_commutation_oracle():
    # 10^4 random block words (<= 20 blocks, rational exponents) and
    # rational t: word-level maps then evaluation equal the space maps after
    # evaluation, exactly; projection intertwines exactly.  (<60 s)
    with timed(60.0):
        result = run_suite("commutation", mode=Mode.EXACT, trials=10_000)
    failures = [c for c in result.checks if not c.passed]
    assert result.passed, failures
    names = {c.name for c in result.checks}
    assert {"word-vs-space-a", "word-vs-space-b"} <= names
    assert {"projection-a", "projection-b"} <= names


def test_acceptance_04_invariance_of_inequalities():
    # 10^5 exact trials: interior points stay members under either map for
    # t in [0, 1), with zero Outside verdicts.  (<60 s)
    with timed(60.0):
        result = run_suite("invariance", mode=Mode.EXACT, trials=100_000)
    failures = [c for c in result.checks if not c.passed]
    assert result.passed, failures
    for check in result.checks:
        assert check.detail.startswith("0 Outside"), check


def test_acceptance_05_limit_point_exclusion():
    # (1/3, 1/3) is outside, failing 4x > 3(1-y)^2 at exact equality.
    # (instant)
    with timed(1.0):
        point = XYPoint(Scalar.exact(1, 3), Scalar.exact(1, 3))
        verdict = membership(point)
        assert verdict.status is Membership.OUTSIDE
        assert verdict.failed_condition == "4x>3(1-y)^2"
        assert verdict.boundary_equality


def test_acceptance_06_balanced_word_convergence():
    # Group-norm distance of balanced_word(n) to the limit element is at
    # most 3/n and nonincreasing for n = 1..256; the planar images approach
    # (1/3, 1/3); the n = 2, 3 checkpoints hold exactly.  (<30 s)
    with timed(30.0):
        result = run_suite("convergence", mode=Mode.EXACT, trials=256)
        assert result.passed, [c for c in result.checks if not c.passed]
        two = eval_xy(balanced_word(2))
        three = eval_xy(balanced_word(3))
        assert (two.x.value, two.y.value) == (Fraction(5, 8), Fraction(1, 8))
        assert (three.x.value, three.y.value) == (
            Fraction(14, 27),
            Fraction(5, 27),
        )


def test_acceptance_07_unbounded_coarse_length():
    # The step-budget profile toward (1/3, 1/3) stays strictly positive
    # while nonincreasing, and the diagonal gap is positive for k <= 8 with
    # diagonal_gap(1) = s - 1/3 to 1e-9: no finite budget reaches the
    # limit, but larger budgets keep getting closer.  (<3 min)
    with timed(180.0):
        rows = coarse_length_profile(XYPoint.of_floats(1 / 3, 1 / 3), 8)
        distances = [row.distance.to_float() for row in rows]
        assert all(d > 0 for d in distances)
        assert all(a >= b for a, b in zip(distances, distances[1:]))
        assert distances[-1] < distances[0]
        gaps = [diagonal_gap(k).to_float() for k in range(1, 9)]
        assert gaps[0] == pytest.approx(S - 1 / 3, abs=1e-9)
        assert all(g > 0 for g in gaps)


GRID_POINTS = 10_000


def _grid_fold(x, y, kinds, ts):
    for kind, t in zip(kinds, ts):
        r = 1.0 - t
        if kind == "A":
            x, y = r * r * x, r * y + t
        else:
            x, y = r * x + t, r * r * y
    return x, y


def _grid_oracle(targets, k):
    """Dense-grid minimum of the distance over every seed and pattern, for
    each target: each (seed, pattern, chunk) is folded once for all."""
    t = np.linspace(0.0, 1.0, GRID_POINTS)
    best = [math.inf] * len(targets)
    patterns = [
        tuple("AB"[(p >> i) & 1] for i in range(k)) for p in range(2**k)
    ]
    chunks = [(t,)] if k == 1 else [
        (t[i : i + 250][:, None], t[None, :]) for i in range(0, GRID_POINTS, 250)
    ]
    for x0, y0 in ((1.0, 0.0), (0.0, 1.0)):
        for kinds in patterns:
            for ts in chunks:
                x, y = _grid_fold(x0, y0, kinds, ts)
                for n, (tx, ty) in enumerate(targets):
                    best[n] = min(best[n], float(np.min((x - tx) ** 2 + (y - ty) ** 2)))
    return [math.sqrt(d2) for d2 in best]


def test_acceptance_08_optimizer_grid_sanity():
    # For k <= 2 the multistart optimizer agrees with a dense grid of 10^4
    # points per parameter to 1e-6 in distance.  The symmetric comparison
    # needs a positive minimum: at an exactly reachable target the distance
    # is locally linear, so a grid of spacing 1e-4 cannot certify anything
    # below ~1e-5 and only the optimizer-not-worse direction is meaningful.
    # (<60 s)
    with timed(60.0):
        targets = ((1 / 3, 1 / 3), (0.36, 0.34), (0.6, 0.2))
        grids = {k: _grid_oracle(targets, k) for k in (1, 2)}
        for n, (tx, ty) in enumerate(targets[:2]):
            target = XYPoint.of_floats(tx, ty)
            for k in (1, 2):
                opt = nearest_reachable(target, k).distance.to_float()
                grid = grids[k][n]
                assert abs(opt - grid) <= 1e-6, (tx, ty, k, opt, grid)
        reachable = XYPoint.of_floats(0.6, 0.2)
        for k in (1, 2):
            opt = nearest_reachable(reachable, k).distance.to_float()
            grid = grids[k][2]
            assert opt <= grid + 1e-6, (k, opt, grid)
        assert opt <= 1e-9 and grid <= 2e-4


def test_acceptance_09_region_figure(tmp_path):
    # The rendered SVG classifies the probe points the same way membership
    # does, and the diagonal curve-intersection marker sits at (s, s) to
    # 1e-9.  (<10 s)
    with timed(10.0):
        out = tmp_path / "region.svg"
        summary = render_region(str(out))
        assert summary.cell_shaded(0.36, 0.36)
        assert membership(XYPoint.of_floats(0.36, 0.36)).status is (
            Membership.INTERIOR_MEMBER
        )
        assert not summary.cell_shaded(0.5, 0.5)
        assert membership(XYPoint.of_floats(0.5, 0.5)).status is (
            Membership.OUTSIDE
        )
        for ex, ey in ((1.0, 0.0), (0.0, 1.0)):
            assert membership(XYPoint.of_floats(ex, ey)).status is (
                Membership.ENDPOINT_MEMBER
            )
        root = ET.parse(out).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        markers = {
            c.get("data-label"): (float(c.get("cx")), float(c.get("cy")))
            for c in root.findall(".//svg:circle[@class='marker']", ns)
        }
        assert markers["endpoint-(1,0)"] == (1.0, 0.0)
        assert markers["endpoint-(0,1)"] == (0.0, 1.0)
        sx, sy = markers["diagonal-fixed-point"]
        reference = (3.0 - math.sqrt(5.0)) / 2.0
        assert sx == pytest.approx(reference, abs=1e-9)
        assert sy == pytest.approx(reference, abs=1e-9)


def test_acceptance_10_word_synthesis():
    # synthesize_word reaches (1/4, 1/2), (s, s), and 100 random interior
    # targets with x != y and max(x, y) >= 0.45, each to residual <= 1e-9;
    # a target within 1e-3 of (1/3, 1/3) fails with a report rather than
    # silently.  "Interior" is sampled with a 0.01 margin on the strict
    # conditions: the step count needed to approach the open boundary arcs
    # grows without bound (the criterion-7 phenomenon holds along the whole
    # arc, not just at the limit point), so zero-margin samples occasionally
    # land on targets needing thousands of steps.  (<60 s)
    with timed(60.0):
        for x, y in ((0.25, 0.5), (S, S)):
            result = synthesize_word(XYPoint.of_floats(x, y))
            assert result.success, (x, y, result.message)
            assert result.residual <= 1e-9
            assert result.word is not None
        margin = EpsilonPolicy.for_mode(Mode.FLOAT, 0.01)
        rnd = random.Random(2024)
        done = 0
        while done < 100:
            x, y = rnd.random(), rnd.random()
            if max(x, y) < 0.45 or x == y:
                continue
            point = XYPoint.of_floats(x, y)
            if membership(point, margin).status is not Membership.INTERIOR_MEMBER:
                continue
            result = synthesize_word(point)
            assert result.success, (x, y, result.message)
            assert result.residual <= 1e-9
            done += 1
        near = 1 / 3 + 5e-4
        assert math.hypot(near - 1 / 3, near - 1 / 3) < 1e-3
        failed = synthesize_word(XYPoint.of_floats(near, near))
        assert not failed.success
        assert failed.stage == "exhausted"
        assert failed.message
