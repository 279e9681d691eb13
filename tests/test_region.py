"""Region membership, the diagonal slice, boundary sampling, rendering."""

import xml.etree.ElementTree as ET
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nilwords.dynamics import XYPoint
from nilwords.region import (
    CONDITIONS,
    EpsilonPolicy,
    Membership,
    RegionVerdict,
    _classify,
    boundary_sample,
    membership,
    render_region,
)
from nilwords.scalar import DIAGONAL_FIXED_POINT, Mode, Scalar

S = DIAGONAL_FIXED_POINT.value

unit_coords = st.fractions(min_value=0, max_value=1, max_denominator=64)


def exact_point(x, y):
    return XYPoint(Scalar.exact(Fraction(x)), Scalar.exact(Fraction(y)))


def classify(x, y):
    return membership(XYPoint.of_floats(x, y))


def fraction_verdict(x, y):
    """The five conditions evaluated directly on Fractions."""
    margins = (1 - x, 1 - y, 4 * x - 3 * (1 - y) ** 2, 4 * y - 3 * (1 - x) ** 2)
    for name, margin in zip(CONDITIONS, margins):
        if margin <= 0:
            return (Membership.OUTSIDE, name, margin == 0)
    if (1 - y) ** 2 >= x or (1 - x) ** 2 >= y:
        return (Membership.INTERIOR_MEMBER, None, False)
    return (Membership.OUTSIDE, "or-clause", False)


class TestMembership:
    def test_endpoints(self):
        for p in (exact_point(1, 0), exact_point(0, 1)):
            verdict = membership(p)
            assert verdict.status is Membership.ENDPOINT_MEMBER
            assert verdict.failed_condition is None
            assert verdict.is_member()
        assert classify(1.0, 0.0).status is Membership.ENDPOINT_MEMBER

    def test_interior_examples(self):
        for x, y in ((0.36, 0.36), (0.9, 0.05), (0.05, 0.9), (0.25, 0.5)):
            verdict = classify(x, y)
            assert verdict.status is Membership.INTERIOR_MEMBER, (x, y)
            assert verdict.is_member()

    def test_limit_point_excluded_by_exact_tie(self):
        verdict = membership(exact_point(Fraction(1, 3), Fraction(1, 3)))
        assert verdict.status is Membership.OUTSIDE
        assert verdict.failed_condition == "4x>3(1-y)^2"
        assert verdict.boundary_equality

    def test_or_clause_failure(self):
        verdict = classify(0.5, 0.5)
        assert verdict.status is Membership.OUTSIDE
        assert verdict.failed_condition == "or-clause"
        assert not verdict.boundary_equality

    def test_first_failure_in_fixed_order(self):
        assert classify(1.5, 1.5).failed_condition == "x<1"
        assert classify(0.5, 1.5).failed_condition == "y<1"
        assert classify(0.01, 0.5).failed_condition == "4x>3(1-y)^2"
        assert classify(0.9, 0.001).failed_condition == "4y>3(1-x)^2"

    def test_square_edge_ties(self):
        verdict = membership(exact_point(1, Fraction(1, 2)))
        assert verdict.failed_condition == "x<1"
        assert verdict.boundary_equality

    def test_exact_tie_on_second_parabola(self):
        # 4y = 3(1-x)^2 = 3/4 exactly
        verdict = membership(exact_point(Fraction(1, 2), Fraction(3, 16)))
        assert verdict.status is Membership.OUTSIDE
        assert verdict.failed_condition == "4y>3(1-x)^2"
        assert verdict.boundary_equality

    def test_exact_point_on_non_strict_curve_is_member(self):
        # x = (1-y)^2 holds with equality at both points; at (4/9, 1/3)
        # y > (1-x)^2 = 25/81, so only the non-strict tie keeps it inside
        for x, y in ((Fraction(9, 25), Fraction(2, 5)), (Fraction(4, 9), Fraction(1, 3))):
            assert x == (1 - y) ** 2
            verdict = membership(exact_point(x, y))
            assert verdict.status is Membership.INTERIOR_MEMBER, (x, y)
            assert not verdict.boundary_equality

    def test_large_denominators_match_direct_evaluation(self):
        # the invariance suite maps 1/1024-grid points by t = m/97, giving
        # denominators 1024 * 97^2
        q = 1024 * 97**2
        for x, y, status in (
            (Fraction(3468533, q), Fraction(3372185, q), Membership.INTERIOR_MEMBER),
            (Fraction(4335667, q), Fraction(4335667, q), Membership.OUTSIDE),
        ):
            assert x.denominator == q and y.denominator == q
            verdict = membership(exact_point(x, y))
            assert verdict.status is status
            got = (verdict.status, verdict.failed_condition, verdict.boundary_equality)
            assert got == fraction_verdict(x, y)

    def test_margin_policy(self):
        p = XYPoint.of_floats(0.345, 0.345)
        assert membership(p).status is Membership.INTERIOR_MEMBER
        wide = EpsilonPolicy.for_mode(Mode.FLOAT, 0.1)
        verdict = membership(p, wide)
        assert verdict.status is Membership.OUTSIDE
        assert verdict.failed_condition == "4x>3(1-y)^2"

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            EpsilonPolicy.for_mode(Mode.EXACT, 0.1)
        with pytest.raises(ValueError):
            EpsilonPolicy.for_mode(Mode.FLOAT, -0.5)
        assert EpsilonPolicy.for_mode(Mode.EXACT).eps == 0

    def test_condition_order_is_pinned(self):
        assert CONDITIONS == (
            "x<1",
            "y<1",
            "4x>3(1-y)^2",
            "4y>3(1-x)^2",
            "or-clause",
        )

    @given(unit_coords, unit_coords)
    def test_swap_symmetry(self, x, y):
        a = membership(exact_point(x, y))
        b = membership(exact_point(y, x))
        assert a.status is b.status

    @given(unit_coords, unit_coords)
    def test_exact_and_float_agree_off_ties(self, x, y):
        exact = membership(exact_point(x, y))
        if exact.boundary_equality:
            return
        # denominators up to 64 keep every float computation exact too
        approx = classify(float(x), float(y))
        assert approx.status is exact.status


def eager_classify(x, y, d, eps):
    """The classification that builds all four strict margins and a new
    verdict on every call: `_classify` must agree with it everywhere."""
    if (x == d and y == 0) or (x == 0 and y == d):
        return RegionVerdict(Membership.ENDPOINT_MEMBER)
    d_minus_x = d - x
    d_minus_y = d - y
    strict_margins = (
        ("x<1", d_minus_x),
        ("y<1", d_minus_y),
        ("4x>3(1-y)^2", 4 * x * d - 3 * d_minus_y * d_minus_y),
        ("4y>3(1-x)^2", 4 * y * d - 3 * d_minus_x * d_minus_x),
    )
    for name, margin in strict_margins:
        if not (margin > eps):
            return RegionVerdict(Membership.OUTSIDE, name, margin == 0)
    or_holds = (d_minus_y * d_minus_y - x * d >= 0) or (
        d_minus_x * d_minus_x - y * d >= 0
    )
    if not or_holds:
        return RegionVerdict(Membership.OUTSIDE, "or-clause", False)
    return RegionVerdict(Membership.INTERIOR_MEMBER)


def int_triples(rnd):
    """Every triple with d <= 24 and coordinates in -1..d+1, which holds
    ties on every curve (the limit point (1, 1, 3) among them), and seeded
    triples on and next to each boundary curve for large d."""
    for d in range(1, 25):
        for x in range(-1, d + 2):
            for y in range(-1, d + 2):
                yield x, y, d
    for _ in range(3000):
        d = rnd.randint(1, 10**6)
        y = rnd.randint(-2, d + 2)
        near = (
            d,  # x = 1
            3 * (d - y) ** 2 // (4 * d),  # 4x = 3(1-y)^2
            (d - y) ** 2 // d,  # x = (1-y)^2
            math.isqrt(max(0, 4 * y * d // 3)),  # 4y = 3(1-x)^2, as d - x
        )
        for i, x in enumerate(near):
            x = d - x if i == 3 else x
            for step in (-1, 0, 1):
                yield x + step, y, d
                yield y, x + step, d
    for d in (1, 3, 97 * 97 * 1024):
        yield d, 0, d
        yield 0, d, d


def float_triples(rnd):
    """Seeded doubles in and around the unit square, points on the curves
    to the last bit, and non-finite and huge values."""
    for _ in range(5000):
        yield rnd.uniform(-0.1, 1.1), rnd.uniform(-0.1, 1.1), 1.0
        t = rnd.random()
        for on in (0.75 * (1 - t) ** 2, (1 - t) ** 2, 1.0):
            for x in (math.nextafter(on, -1), on, math.nextafter(on, 2)):
                yield x, t, 1.0
                yield t, x, 1.0
    special = (math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, 1.0, 0.5)
    for x in special:
        for y in special:
            yield x, y, 1.0
    yield 1.0, 0.0, 1.0
    yield 0.0, 1.0, 1.0


class TestFirstFailureClassify:
    def check(self, x, y, d, eps):
        got, want = _classify(x, y, d, eps), eager_classify(x, y, d, eps)
        assert got == want, (x, y, d, eps)
        assert (got.status, got.failed_condition, got.boundary_equality) == (
            want.status, want.failed_condition, want.boundary_equality
        )
        return got

    def test_int_triples(self):
        seen = set()
        for x, y, d in int_triples(random.Random(19)):
            v = self.check(x, y, d, 0)
            seen.add((v.status, v.failed_condition, v.boundary_equality))
        # every verdict but a tie on the or-clause, which has none
        assert len(seen) == 2 + 4 * 2 + 1

    @pytest.mark.parametrize("eps", (0.0, 1e-3))
    def test_float_triples(self, eps):
        for x, y, d in float_triples(random.Random(23)):
            self.check(x, y, d, eps)

    def test_verdicts_are_shared(self):
        assert _classify(1, 1, 3, 0) is _classify(2, 2, 6, 0)
        assert _classify(1, 0, 1, 0) is _classify(3, 0, 3, 0)
        assert _classify(1, 1, 2, 0) is _classify(0.5, 0.5, 1.0, 0.0)
        assert _classify(1, 1, 3, 0) is not _classify(1, 2, 3, 0)


class TestDiagonal:
    def test_membership_matches_interval(self):
        inside = (1 / 3 + 1e-6, 0.35, 0.36, 0.38, S)
        outside = (0.0, 0.2, 1 / 3, S + 1e-6, 0.5, 0.9, 1.0)
        for d in inside:
            assert classify(d, d).status is Membership.INTERIOR_MEMBER, d
        for d in outside:
            assert classify(d, d).status is Membership.OUTSIDE, d

    def test_fixed_point_is_the_last_member(self):
        # 1 ulp above s the disjunction already fails
        import math

        above = math.nextafter(S, 1.0)
        assert classify(S, S).status is Membership.INTERIOR_MEMBER
        assert classify(above, above).failed_condition == "or-clause"


class TestBoundarySample:
    def test_labels_and_counts(self):
        curves = boundary_sample(33)
        assert [c.label for c in curves] == [
            "x=1",
            "y=1",
            "4x=3(1-y)^2",
            "4y=3(1-x)^2",
            "x=(1-y)^2",
            "y=(1-x)^2",
        ]
        assert all(len(c.points) == 33 for c in curves)

    def test_anchor_points(self):
        by_label = {c.label: c for c in boundary_sample(5)}
        assert by_label["x=1"].points[0] == (1.0, 0.0)
        assert by_label["x=1"].points[-1] == (1.0, 1.0)
        assert by_label["4x=3(1-y)^2"].points[0] == (0.75, 0.0)
        assert by_label["4x=3(1-y)^2"].points[-1] == (0.0, 1.0)
        assert by_label["x=(1-y)^2"].points[0] == (1.0, 0.0)
        assert by_label["x=(1-y)^2"].points[-1] == (0.0, 1.0)

    def test_points_satisfy_curve_equations(self):
        by_label = {c.label: c for c in boundary_sample(65)}
        for x, y in by_label["4y=3(1-x)^2"].points:
            assert 4 * y == pytest.approx(3 * (1 - x) ** 2, abs=1e-12)
        for x, y in by_label["y=(1-x)^2"].points:
            assert y == pytest.approx((1 - x) ** 2, abs=1e-12)

    def test_stays_in_unit_square(self):
        for curve in boundary_sample(257):
            for x, y in curve.points:
                assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0

    def test_count_validation(self):
        with pytest.raises(ValueError):
            boundary_sample(1)


class TestRender:
    def test_svg_structure(self, tmp_path):
        out = tmp_path / "region.svg"
        summary = render_region(str(out), format="svg", count=64, resolution=128)
        root = ET.parse(out).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        paths = root.findall(".//svg:path[@class='boundary']", ns)
        assert len(paths) == 6
        labels = {p.get("data-label") for p in paths}
        assert "4x=3(1-y)^2" in labels and "y=(1-x)^2" in labels
        circles = root.findall(".//svg:circle[@class='marker']", ns)
        assert len(circles) == 4
        assert len(root.findall(".//svg:rect", ns)) > 100
        assert summary.format == "svg"
        assert summary.path == str(out)

    def test_svg_marker_positions(self, tmp_path):
        out = tmp_path / "region.svg"
        render_region(str(out), format="svg", count=16, resolution=32)
        root = ET.parse(out).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        found = {
            c.get("data-label"): (float(c.get("cx")), float(c.get("cy")))
            for c in root.findall(".//svg:circle[@class='marker']", ns)
        }
        assert found["endpoint-(1,0)"] == (1.0, 0.0)
        assert found["endpoint-(0,1)"] == (0.0, 1.0)
        lx, ly = found["limit-(1/3,1/3)"]
        assert lx == pytest.approx(1 / 3, abs=1e-12)
        sx, sy = found["diagonal-fixed-point"]
        assert sx == pytest.approx(S, abs=1e-9)
        assert sy == pytest.approx(S, abs=1e-9)

    def test_shading_probes(self, tmp_path):
        out = tmp_path / "region.svg"
        summary = render_region(str(out), format="svg", count=16, resolution=256)
        assert summary.cell_shaded(0.36, 0.36)
        assert summary.cell_shaded(0.9, 0.05)
        assert not summary.cell_shaded(0.5, 0.5)
        assert not summary.cell_shaded(0.1, 0.1)

    # eps = 1 fails x < 1 at every cell center, so every row is empty.
    @pytest.mark.parametrize(
        "resolution, eps", [(64, 0.0), (37, 0.01), (5, 0.3), (1, 0.0), (16, 1.0)]
    )
    def test_shading_agrees_with_membership(self, tmp_path, resolution, eps):
        out = tmp_path / "region.svg"
        summary = render_region(str(out), count=16, resolution=resolution, eps=eps)
        policy = EpsilonPolicy.for_mode(Mode.FLOAT, eps)
        for j in range(resolution):
            for i in range(resolution):
                cx = (i + 0.5) / resolution
                cy = (j + 0.5) / resolution
                expected = membership(XYPoint.of_floats(cx, cy), policy).is_member()
                assert summary.cell_shaded(cx, cy) == expected, (cx, cy)
        if eps >= 1:
            assert not any(summary.shaded_rows)

    def test_csv_output(self, tmp_path):
        out = tmp_path / "region.csv"
        summary = render_region(str(out), format="csv", count=20)
        lines = out.read_text().splitlines()
        assert lines[0] == "curve_label,x,y"
        assert len(lines) == 1 + 6 * 20
        label, x, y = lines[1].split(",")
        assert label == "x=1"
        float(x), float(y)
        assert summary.format == "csv"

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            render_region(str(tmp_path / "r.bin"), format="png")
