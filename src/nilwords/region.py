"""The admissible planar region and its rendering.

The region is cut out of the unit square by five conditions in fixed order:
x < 1, y < 1, 4x > 3(1-y)^2, 4y > 3(1-x)^2, and the non-strict disjunction
(x <= (1-y)^2 or y <= (1-x)^2), together with the two isolated endpoints
(1, 0) and (0, 1).  Membership reports the first violated condition and
whether the violation is an exact tie, since boundary points other than the
endpoints are deliberately classified outside rather than adjudicated.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from .scalar import DIAGONAL_FIXED_POINT, Mode, ModeMismatchError, Scalar, _cleared, _raw
from .dynamics import XYPoint

__all__ = [
    "Membership",
    "RegionVerdict",
    "EpsilonPolicy",
    "CONDITIONS",
    "membership",
    "BoundaryCurve",
    "boundary_sample",
    "RenderSummary",
    "render_region",
]


class Membership(Enum):
    INTERIOR_MEMBER = "InteriorMember"
    ENDPOINT_MEMBER = "EndpointMember"
    OUTSIDE = "Outside"


# Identifiers of the five conditions, in the order they are checked.
CONDITIONS = ("x<1", "y<1", "4x>3(1-y)^2", "4y>3(1-x)^2", "or-clause")


@dataclass(frozen=True)
class RegionVerdict:
    status: Membership
    failed_condition: Optional[str] = None
    boundary_equality: bool = False

    def is_member(self) -> bool:
        return self.status is not Membership.OUTSIDE


@dataclass(frozen=True)
class EpsilonPolicy:
    """Margin demanded of the strict conditions; zero means plain strictness.

    The margin is a testing convenience for float mode only, so exact mode
    requires eps = 0.  The non-strict disjunction never takes a margin.
    """

    eps: Scalar

    def __post_init__(self):
        if not math.isfinite(self.eps.value) or self.eps < 0:
            raise ValueError("margin must be a finite nonnegative number")
        if self.eps.mode is Mode.EXACT and self.eps != 0:
            raise ValueError("exact mode does not admit a nonzero margin")

    @staticmethod
    def for_mode(mode: Mode, eps: float = 0.0) -> "EpsilonPolicy":
        """The policy whose margin is the double eps, lifted into the mode.
        NaN and infinity have no exact value; they are refused as doubles."""
        if not math.isfinite(eps):
            return EpsilonPolicy(Scalar.of_float(eps))
        num, den = eps.as_integer_ratio()
        return EpsilonPolicy(Scalar.lift(num, mode, den))


def membership(p: XYPoint, policy: Optional[EpsilonPolicy] = None) -> RegionVerdict:
    """Classify a planar point against the five conditions.

    Endpoint checks come first; then each strict condition must clear the
    policy margin, and the disjunction must hold non-strictly.  The verdict
    names the first failure and flags an exact tie on a strict condition.

    Every condition is homogeneous in (x, y, 1), so an exact point is
    tested as the ints (x L, y L, L) over the lcm L of its denominators
    (`scalar._cleared`); the signs are unchanged because exact mode only
    admits eps = 0, which is passed as the int 0, as any zero margin is:
    comparing an int with the `Fraction` 0 costs a `Fraction` comparison.
    Float points are tested as (x, y, 1).
    """
    if policy is not None and policy.eps.mode is not p.mode:
        raise ModeMismatchError(
            f"cannot classify a {p.mode.value} point with a "
            f"{policy.eps.mode.value} margin"
        )
    d, (x, y) = _cleared(p.mode, _raw(p.mode, p.coords()))
    eps = policy.eps.value if policy is not None else 0
    return _classify(x, y, d, eps or 0)


# The verdicts `_classify` returns, built once: RegionVerdict is frozen, so
# every call that ends the same way can share one.
_ENDPOINT = RegionVerdict(Membership.ENDPOINT_MEMBER)
_INTERIOR = RegionVerdict(Membership.INTERIOR_MEMBER)
_OUTSIDE_X, _OUTSIDE_Y, _OUTSIDE_QX, _OUTSIDE_QY = (
    {tie: RegionVerdict(Membership.OUTSIDE, name, tie) for tie in (False, True)}
    for name in CONDITIONS[:4]
)
_OUTSIDE_OR = RegionVerdict(Membership.OUTSIDE, CONDITIONS[4], False)


def _classify(x, y, d, eps) -> RegionVerdict:
    """`membership` of the point (x/d, y/d), d > 0, given as the homogeneous
    triple (x, y, d) of ints or floats.  Scaling the triple by a positive
    factor keeps every sign and every tie, so with eps = 0 any such triple
    of a point gets the same verdict.

    The conditions are tested in their fixed order and each margin is
    computed only once the conditions before it hold, so the function stops
    at the first failure.  It returns one of the shared, immutable verdicts
    above rather than building a new one."""
    if (x == d and y == 0) or (x == 0 and y == d):
        return _ENDPOINT
    d_minus_x = d - x
    if not d_minus_x > eps:
        return _OUTSIDE_X[d_minus_x == 0]
    d_minus_y = d - y
    if not d_minus_y > eps:
        return _OUTSIDE_Y[d_minus_y == 0]
    margin = 4 * x * d - 3 * d_minus_y * d_minus_y
    if not margin > eps:
        return _OUTSIDE_QX[margin == 0]
    margin = 4 * y * d - 3 * d_minus_x * d_minus_x
    if not margin > eps:
        return _OUTSIDE_QY[margin == 0]
    if d_minus_y * d_minus_y - x * d >= 0 or d_minus_x * d_minus_x - y * d >= 0:
        return _INTERIOR
    return _OUTSIDE_OR


@dataclass(frozen=True)
class BoundaryCurve:
    label: str
    points: Tuple[Tuple[float, float], ...]


def boundary_sample(count: int) -> List[BoundaryCurve]:
    """Sample the six bounding curves at `count` parameter values each.

    Every curve is parameterized over [0, 1] by the free coordinate and
    lies inside the unit square.
    """
    if count < 2:
        raise ValueError("need at least 2 sample points per curve")
    ts = [i / (count - 1) for i in range(count)]

    curves = [
        BoundaryCurve("x=1", tuple((1.0, t) for t in ts)),
        BoundaryCurve("y=1", tuple((t, 1.0) for t in ts)),
        BoundaryCurve(
            "4x=3(1-y)^2", tuple((0.75 * (1 - t) ** 2, t) for t in ts)
        ),
        BoundaryCurve(
            "4y=3(1-x)^2", tuple((t, 0.75 * (1 - t) ** 2) for t in ts)
        ),
        BoundaryCurve("x=(1-y)^2", tuple(((1 - t) ** 2, t) for t in ts)),
        BoundaryCurve("y=(1-x)^2", tuple((t, (1 - t) ** 2) for t in ts)),
    ]
    return curves


MARKERS = (
    ("endpoint-(1,0)", 1.0, 0.0),
    ("endpoint-(0,1)", 0.0, 1.0),
    ("limit-(1/3,1/3)", 1 / 3, 1 / 3),
    ("diagonal-fixed-point", DIAGONAL_FIXED_POINT.value, DIAGONAL_FIXED_POINT.value),
)


@dataclass(frozen=True)
class RenderSummary:
    path: str
    format: str
    resolution: int
    markers: Tuple[Tuple[str, float, float], ...]
    shaded_rows: Tuple[range, ...]

    def cell_shaded(self, x: float, y: float) -> bool:
        """Whether the shading grid covers the cell containing (x, y)."""
        n = self.resolution
        i = min(n - 1, max(0, int(x * n)))
        j = min(n - 1, max(0, int(y * n)))
        return i in self.shaded_rows[j]


# Where a failed condition lies along a grid row: failures of y<1,
# 4x>3(1-y)^2 and 4y>3(1-x)^2 come before the interior (0), failures of
# x<1 and the disjunction after it (2).
_SIDE = dict(zip(CONDITIONS, (2, 0, 0, 0, 2)))


def _interior_run(columns: Sequence, y, d, eps) -> range:
    """The indices i, one run, for which the point (columns[i]/d, y/d) passes
    `_classify`, given the increasing columns of one grid row, all in (0, d)
    and none an endpoint.

    Along a row y is fixed, and for x in (0, d) every quantity `_classify`
    tests is monotone in x: exactly on ints, and in rounded arithmetic too,
    since correctly rounded + - * are monotone.  The failures `_SIDE` puts
    at 0 form a prefix of the row and those at 2 a suffix, so the interior
    columns are one run, found by two bisections on the side of each verdict.
    """
    def side(x) -> int:
        verdict = _classify(x, y, d, eps)
        return 1 if verdict is _INTERIOR else _SIDE[verdict.failed_condition]

    start = bisect.bisect_left(columns, 1, key=side)
    return range(start, bisect.bisect_left(columns, 2, lo=start, key=side))


def _shaded_rows(resolution: int, eps: float) -> Tuple[range, ...]:
    """For each grid row j, the columns i whose cell center passes
    `_classify`: the `_interior_run` of the row.  A cell center is never an
    endpoint."""
    centers = [(i + 0.5) / resolution for i in range(resolution)]
    return tuple(_interior_run(centers, y, 1.0, eps) for y in centers)


def _svg_document(shaded_rows: Sequence[range], curves: Sequence[BoundaryCurve]) -> str:
    h = 1.0 / len(shaded_rows)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="640" height="640" viewBox="-0.05 -0.05 1.1 1.1">',
        '<rect x="-0.05" y="-0.05" width="1.1" height="1.1" fill="white"/>',
        # Flip to mathematical orientation: y grows upward.
        '<g transform="matrix(1 0 0 -1 0 1)">',
        '<g id="shading" fill="#9ecae1" stroke="none">',
    ]
    lines.extend(
        f'<rect x="{row.start * h:.8f}" y="{j * h:.8f}" '
        f'width="{len(row) * h:.8f}" height="{h:.8f}"/>'
        for j, row in enumerate(shaded_rows)
        if row
    )
    lines.append("</g>")
    lines.append(
        '<g id="boundary" fill="none" stroke="#1f3552" stroke-width="0.004">'
    )
    for index, curve in enumerate(curves):
        steps = " ".join(f"L {x:.6f} {y:.6f}" for x, y in curve.points[1:])
        x0, y0 = curve.points[0]
        lines.append(
            f'<path id="curve-{index}" class="boundary" '
            f'data-label="{curve.label}" d="M {x0:.6f} {y0:.6f} {steps}">'
            f"<title>{curve.label}</title></path>"
        )
    lines.append("</g>")
    lines.append('<g id="markers" fill="#b2182b" stroke="none">')
    for label, mx, my in MARKERS:
        lines.append(
            f'<circle class="marker" data-label="{label}" '
            f'cx="{mx!r}" cy="{my!r}" r="0.012"/>'
        )
    lines.append("</g>")
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines)


def render_region(
    out: str,
    format: str = "svg",
    count: int = 512,
    resolution: int = 512,
    eps: float = 0.0,
) -> RenderSummary:
    """Write the region picture (SVG) or the boundary polylines (CSV).

    The SVG shades grid cells whose centers pass the interior test, draws
    the six labeled boundary curves, and marks the two endpoints, the
    excluded limit point, and the diagonal fixed point.
    """
    curves = boundary_sample(count)
    shaded_rows = _shaded_rows(resolution, eps)
    if format == "svg":
        text = _svg_document(shaded_rows, curves)
    elif format == "csv":
        rows = ["curve_label,x,y"]
        for curve in curves:
            rows.extend(f"{curve.label},{x!r},{y!r}" for x, y in curve.points)
        text = "\n".join(rows) + "\n"
    else:
        raise ValueError(f"unknown render format {format!r}")
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(text)
    return RenderSummary(
        path=out,
        format=format,
        resolution=resolution,
        markers=MARKERS,
        shaded_rows=shaded_rows,
    )
