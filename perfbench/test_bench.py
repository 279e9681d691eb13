"""Tests of the benchmark itself: every output check rejects a corrupted
result and passes the genuine one, and the metric lists agree with
BENCHMARK.json.  Run with `python3 -m pytest perfbench`."""

import dataclasses
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_checks as checks  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402
from nilwords import lie_core, region, search, verify, words  # noqa: E402
from nilwords.dynamics import XYPoint  # noqa: E402
from nilwords.scalar import Mode, Scalar  # noqa: E402

LIMIT = XYPoint.of_floats(1 / 3, 1 / 3)


def _exact(values):
    return lie_core.AlgebraVector(*(Scalar(Mode.EXACT, Fraction(v)) for v in values))


def _values(g):
    return tuple(c.value for c in g.coords())


# -- the independent references -------------------------------------------


def test_tensor_law_gives_the_seed_elements():
    assert checks.tensor_evaluate([("x", 1), ("y", 1)]) == (1, 1, 1, 1, 1)
    assert checks.tensor_evaluate([("y", 1), ("x", 1)]) == (1, 1, -1, 1, 1)


def test_region_predicate_at_known_points():
    third = Fraction(1, 3)
    assert not checks.in_region(third, third)
    assert checks.in_region(Fraction(36, 100), Fraction(36, 100))
    assert not checks.in_region(Fraction(1, 2), Fraction(1, 2))


def test_grid_minimum_is_the_k1_optimum():
    report = search.nearest_reachable(LIMIT, 1)
    assert abs(checks.grid_minimum(1 / 3, 1 / 3, 1) - report.distance.to_float()) <= 1e-9


# -- exact products and words ---------------------------------------------


def test_product_off_by_one_unit_in_c4_is_rejected():
    a = [Fraction(3, 4), Fraction(-2, 3), Fraction(5, 7), Fraction(1, 2), Fraction(-7, 8)]
    b = [Fraction(-1, 5), Fraction(9, 4), Fraction(2, 3), Fraction(-3, 2), Fraction(4, 3)]
    reference = checks.tensor_multiply(a, b)
    got = _values(lie_core.multiply(_exact(a), _exact(b)))
    assert checks.check_exact_coords(got, reference, "product") == []
    for unit in (Fraction(1), Fraction(1, 10**12)):
        corrupted = got[:3] + (got[3] + unit,) + got[4:]
        problems = checks.check_exact_coords(corrupted, reference, "product")
        assert len(problems) == 1 and "c4" in problems[0]


def test_float_product_off_in_c4_is_rejected():
    a = [Fraction(i, 64) for i in (3, -40, 17, 9, -61)]
    b = [Fraction(i, 64) for i in (-12, 5, 33, -2, 50)]
    exact = _values(lie_core.multiply(_exact(a), _exact(b)))
    floats = lie_core.AlgebraVector(*(Scalar.of_float(float(v)) for v in a))
    other = lie_core.AlgebraVector(*(Scalar.of_float(float(v)) for v in b))
    got = _values(lie_core.multiply(floats, other))
    tol = verify.FLOAT_ALGEBRA_TOL
    assert checks.check_float_coords(got, exact, tol, "product") == []
    corrupted = got[:3] + (got[3] + 1.0,) + got[4:]
    assert checks.check_float_coords(corrupted, exact, tol, "product")
    assert checks.check_float_coords(got[:4], exact, tol, "product")


def test_wrong_word_evaluation_is_rejected():
    letters = [("x", Fraction(1, 2)), ("y", Fraction(-3, 4)), ("x", Fraction(2, 3)), ("y", 1)]
    word = bench_workloads._rword(letters, Mode.EXACT)
    got = _values(lie_core.evaluate_word(word))
    assert checks.check_exact_coords(got, checks.tensor_evaluate(letters), "word") == []
    assert checks.check_exact_coords(got, checks.tensor_evaluate(letters[:-1]), "word")


def test_limit_verdict_check():
    third = Scalar.exact(1, 3)
    verdict = region.membership(XYPoint(third, third))
    assert checks.check_limit_verdict(verdict) == []
    assert checks.check_limit_verdict(dataclasses.replace(verdict, boundary_equality=False))
    assert checks.check_limit_verdict(
        region.RegionVerdict(region.Membership.INTERIOR_MEMBER)
    )


def test_float_verdict_must_match_exact():
    inside = XYPoint.of_floats(0.375, 0.375)
    exact = XYPoint(Scalar.exact(3, 8), Scalar.exact(3, 8))
    assert checks.check_same_verdict(region.membership(inside), region.membership(exact)) == []
    outside = region.membership(XYPoint.of_floats(0.5, 0.5))
    assert checks.check_same_verdict(outside, region.membership(exact))


def test_suite_check_is_not_vacuous():
    result = verify.run_suite("algebra", Mode.EXACT, 5, seed=3)
    names = bench_workloads.SUITE_CHECKS["algebra"]
    assert checks.check_suite(result, names, 5) == []
    assert checks.check_suite(result, names, 6)
    assert checks.check_suite(dataclasses.replace(result, checks=result.checks[1:]), names, 5)
    broken = [dataclasses.replace(result.checks[0], passed=False)] + result.checks[1:]
    assert checks.check_suite(dataclasses.replace(result, checks=broken), names, 5)


# -- reach profile --------------------------------------------------------


@pytest.fixture(scope="module")
def profile():
    return [search.nearest_reachable(LIMIT, k) for k in (1, 2, 3)]


def _word_route(report):
    return bench_workloads._word_route(report, True)


def test_genuine_profile_passes(profile):
    for report in profile:
        assert checks.check_reach(report, (1 / 3, 1 / 3), _word_route(report)) == []
    distances = [r.distance.to_float() for r in profile]
    grid = {k: checks.grid_minimum(1 / 3, 1 / 3, k) for k in (1, 2)}
    assert checks.check_profile(distances, grid) == []


def test_profile_row_with_raised_distance_is_rejected(profile):
    report = profile[1]
    raised = dataclasses.replace(report, distance=Scalar.of_float(report.distance.to_float() + 1e-4))
    assert checks.check_reach(raised, (1 / 3, 1 / 3), _word_route(report))
    distances = [r.distance.to_float() for r in profile]
    grid = {k: checks.grid_minimum(1 / 3, 1 / 3, k) for k in (1, 2)}
    distances[1] += 1e-4
    assert any("grid" in p for p in checks.check_profile(distances, grid))
    distances = [r.distance.to_float() for r in profile]
    distances[2] = distances[1] + 1e-4
    assert any("rises" in p for p in checks.check_profile(distances, {}))
    assert checks.check_profile(distances[:1], {})


def test_reported_point_must_match_the_word_route(profile):
    report = profile[2]
    moved = dataclasses.replace(report, best_point=XYPoint.of_floats(0.3, 0.3))
    assert checks.check_reach(moved, (1 / 3, 1 / 3), _word_route(report))


def test_gap_check():
    gaps = [search.diagonal_gap(k).to_float() for k in (1, 2)]
    assert checks.check_gaps(gaps) == []
    assert checks.check_gaps([gaps[0] + 1e-6, gaps[1]])
    assert checks.check_gaps([gaps[0], gaps[0] + 1e-3])
    assert checks.check_gaps([])


# -- synthesis ------------------------------------------------------------


@pytest.fixture(scope="module")
def synthesized():
    target = (0.25, 0.5)
    return target, search.synthesize_word(XYPoint.of_floats(*target))


def _unchecked_sigma(blocks):
    """A SigmaWord built without its constructor's validation, as a faulty
    program could return one."""
    word = object.__new__(words.SigmaWord)
    object.__setattr__(word, "blocks", blocks)
    return word


def test_genuine_synthesis_passes(synthesized):
    target, result = synthesized
    assert checks.check_synthesis(result, target, bench_workloads._landed, False) == []


def test_word_with_one_exponent_nudged_is_rejected(synthesized):
    target, result = synthesized
    blocks = list(result.word.blocks)
    s, t = blocks[0]
    blocks[0] = (s + Scalar.of_float(1e-7), t)
    nudged = dataclasses.replace(result, word=_unchecked_sigma(tuple(blocks)))
    problems = checks.check_synthesis(nudged, target, bench_workloads._landed, False)
    assert problems and "Sigma" in problems[0]
    # The same nudge taken back from another X block keeps unit mass; the
    # word is valid but no longer lands on the target.
    j = next(i for i, (s, _) in enumerate(result.word.blocks) if i > 0 and s.to_float() > 1e-6)
    s_j, t_j = blocks[j]
    blocks[j] = (s_j - Scalar.of_float(1e-7), t_j)
    shifted = dataclasses.replace(result, word=words.SigmaWord(tuple(blocks)))
    problems = checks.check_synthesis(shifted, target, bench_workloads._landed, False)
    assert problems and "lands" in problems[0]


def test_exhausted_target_reported_as_success_is_rejected(synthesized):
    _, success = synthesized
    near = (bench_workloads.NEAR_LIMIT, bench_workloads.NEAR_LIMIT)
    exhausted = search.SynthesisResult(False, math.inf, "exhausted", "budget spent")
    assert checks.check_synthesis(exhausted, near, bench_workloads._landed, True) == []
    assert checks.check_synthesis(success, near, bench_workloads._landed, True)
    claimed = dataclasses.replace(exhausted, success=True)
    assert checks.check_synthesis(claimed, near, bench_workloads._landed, True)
    # A failure on an admissible target, or a success without a word, fails.
    assert checks.check_synthesis(exhausted, (0.25, 0.5), bench_workloads._landed, False)
    assert checks.check_synthesis(
        dataclasses.replace(success, word=None), (0.25, 0.5), bench_workloads._landed, False
    )


def test_near_limit_target_is_within_1e3_of_the_limit():
    assert math.dist((bench_workloads.NEAR_LIMIT,) * 2, (1 / 3, 1 / 3)) < 1e-3


# -- workloads, tracing and BENCHMARK.json --------------------------------


def test_rounds_depend_only_on_workload_seed_and_index():
    first = bench_workloads.make_round("float-oracle", 7, 2)
    again = bench_workloads.make_round("float-oracle", 7, 2)
    other = bench_workloads.make_round("float-oracle", 8, 2)
    assert [op.name for op in first] == [op.name for op in again]
    assert [op.call() for op in first[-7:]] == [op.call() for op in again[-7:]]
    assert [op.call() for op in first[-7:]] != [op.call() for op in other[-7:]]


def test_tracer_counts_calls_and_restores_the_program():
    original = lie_core.multiply
    ops = bench_workloads.make_round("float-oracle", 1, 0)
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        round_ = run._run_round(ops, tracer, {})
    finally:
        tracer.uninstall()
    assert lie_core.multiply is original
    assert search.optimize.minimize.__module__.startswith("scipy")
    assert round_["failed"] == 0
    assert tracer.calls["verify.algebra"] == bench_workloads.BATCHES_PER_SUITE
    assert tracer.calls["lie_core.multiply"] > 0
    assert tracer.counts["scalar.objects"] > 0
    assert all(span[2] != "search.objective" for span in tracer.spans)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(bench_workloads.make_round(w, 1, 0) for w in run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_times_are_scaled_by_the_reference_pass(monkeypatch):
    # A machine running the reference pass at half speed halves every time.
    monkeypatch.setattr(run, "_reference_pass", lambda: 2 * run.REFERENCE_PASS_S)
    ok, value, wall, reference = run._timed(lambda: 7)
    assert ok and value == 7
    assert reference == pytest.approx(wall / 2)
    ok, value, _, _ = run._timed(lambda: 1 / 0)
    assert not ok and isinstance(value, ZeroDivisionError)
