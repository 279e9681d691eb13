"""Induced point dynamics of the word-rewriting maps.

Evaluating any unit-mass alternating word gives a group element
(1, 1, u, v, w); the rewriting maps act on the (u, v, w) part by the cubic
polynomial maps below, and after an affine change of coordinates to the
plane, by even simpler quadratic maps.  The planar maps are transcribed
independently of the space maps so the commutation identities checked in
the tests genuinely cross-validate both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .lie_core import GroupElement, evaluate_word
from .scalar import Mode, Scalar
from .words import SigmaWord, _check_parameter, balanced_word, sigma_to_rword

__all__ = [
    "UVWPoint",
    "XYPoint",
    "UnitMassError",
    "extract_uvw",
    "map_a_uvw",
    "map_b_uvw",
    "project",
    "map_a_xy",
    "map_b_xy",
    "eval_uvw",
    "eval_xy",
    "xy_distance",
    "balanced_trajectory",
]

# Float-mode slack when checking that a word has unit mass on each generator.
ABELIANIZATION_TOLERANCE = 1e-9


@dataclass(frozen=True)
class UVWPoint:
    u: Scalar
    v: Scalar
    w: Scalar

    def coords(self) -> Tuple[Scalar, Scalar, Scalar]:
        return (self.u, self.v, self.w)

    @property
    def mode(self) -> Mode:
        return self.u.mode


@dataclass(frozen=True)
class XYPoint:
    x: Scalar
    y: Scalar

    def coords(self) -> Tuple[Scalar, Scalar]:
        return (self.x, self.y)

    @property
    def mode(self) -> Mode:
        return self.x.mode

    @staticmethod
    def of_floats(x: float, y: float) -> "XYPoint":
        return XYPoint(Scalar.of_float(x), Scalar.of_float(y))

    def to_floats(self) -> Tuple[float, float]:
        return (self.x.to_float(), self.y.to_float())


class UnitMassError(ValueError):
    """The element does not project to generator masses (1, 1)."""


def extract_uvw(g: GroupElement) -> UVWPoint:
    """Read off (u, v, w) from an element of the form (1, 1, u, v, w)."""
    if not (
        g.c1.close_to(1, ABELIANIZATION_TOLERANCE) and g.c2.close_to(1, ABELIANIZATION_TOLERANCE)
    ):
        raise UnitMassError(f"generator masses ({g.c1}, {g.c2}) are not (1, 1)")
    return UVWPoint(g.c3, g.c4, g.c5)


def map_a_uvw(t: Scalar, p: UVWPoint) -> UVWPoint:
    _check_parameter(t)
    r = 1 - t
    return UVWPoint(
        r * p.u - t,
        r * r * p.v - 3 * t * r * p.u + t * (2 * t - 1),
        r * p.w + t,
    )


def map_b_uvw(t: Scalar, p: UVWPoint) -> UVWPoint:
    _check_parameter(t)
    r = 1 - t
    return UVWPoint(
        r * p.u + t,
        r * p.v + t,
        r * r * p.w + 3 * t * r * p.u + t * (2 * t - 1),
    )


def project(p: UVWPoint) -> XYPoint:
    """Affine projection x = (v + 3u + 2)/6, y = (w - 3u + 2)/6."""
    return XYPoint((p.v + 3 * p.u + 2) / 6, (p.w - 3 * p.u + 2) / 6)


def map_a_xy(t: Scalar, p: XYPoint) -> XYPoint:
    _check_parameter(t)
    r = 1 - t
    return XYPoint(r * r * p.x, r * p.y + t)


def map_b_xy(t: Scalar, p: XYPoint) -> XYPoint:
    _check_parameter(t)
    r = 1 - t
    return XYPoint(r * p.x + t, r * r * p.y)


def eval_uvw(w: SigmaWord) -> UVWPoint:
    return extract_uvw(evaluate_word(sigma_to_rword(w)))


def eval_xy(w: SigmaWord) -> XYPoint:
    return project(eval_uvw(w))


def xy_distance(p: XYPoint, q: XYPoint) -> float:
    return math.hypot(
        p.x.to_float() - q.x.to_float(), p.y.to_float() - q.y.to_float()
    )


def balanced_trajectory(n_max: int, mode: Mode = Mode.EXACT) -> List[dict]:
    """Planar images of the balanced words for n = 1..n_max.

    Rows carry n, the point, and its distance to the limit (1/3, 1/3);
    suitable for CSV emission.
    """
    third = Scalar.lift(1, mode, 3)
    limit = XYPoint(third, third)
    rows = []
    for n in range(1, n_max + 1):
        point = eval_xy(balanced_word(n, mode))
        rows.append(
            {
                "n": n,
                "x": point.x,
                "y": point.y,
                "distance": xy_distance(point, limit),
            }
        )
    return rows
