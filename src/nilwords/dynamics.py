"""Induced point dynamics of the word-rewriting maps.

Evaluating any unit-mass alternating word gives a group element
(1, 1, u, v, w); the rewriting maps act on the (u, v, w) part by the cubic
polynomial maps below, and after an affine change of coordinates to the
plane, by even simpler quadratic maps.  The planar maps are transcribed
independently of the space maps so the commutation identities checked in
the tests genuinely cross-validate both.

The staircase law gives every image in closed form.  Read a unit-mass
alternating word as a monotone staircase path in the (A, B) plane from
(0, 0) to (1, 1), X^a a step right by a and Y^b a step up by b; the
element is the path's signature truncated at step 3 (Chen 1957).  With
A_j the X-mass before Y-letter j and B_i the Y-mass before X-letter i:

    x = sum_j b_j A_j^2,   y = sum_i a_i B_i^2,
    u = sum_j b_j A_j - sum_i a_i B_i   (the Levy area),
    v = 6x - 3u - 2,       w = 6y + 3u - 2.

The a-map scales every X-mass by 1 - t and appends X^t, so it multiplies x
by (1 - t)^2 and sends y to (1 - t) y + t: the planar map, line for line.
With g = A - B along the path, x + y - 2/3 = (1/6) sum |g_end^3 - g_start^3|
over the letters (per letter the sides differ by the increment of
-(A + B)(A - B)^2 / 2, which is 0 at both ends).  As |q^3 - p^3| >=
|q - p|^3 / 4, the first and last letters start or end at g = 0, and the
|dg| sum to 2, a word of c letters has x + y - 2/3 >= 1/(3(c - 1)^2),
with equality at the zigzag word, whose first and last letters have mass
1/(c - 1) and the others 2/(c - 1).  So the image of X + Y, (1/3, 1/3),
is never reached, and coming within e of it takes
c >= 1 + (sqrt(2)/(6e))^(1/2) letters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple

from . import lie_core, words
from .lie_core import GroupElement, _evaluate
from .scalar import Mode, Scalar, _cleared, _close, _lift, _raw
from .words import SigmaWord, _check_parameter

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
    image = _map_a_uvw(t.value, 1, *_raw(t.mode, p.coords()), 1)
    return UVWPoint(*(Scalar(t.mode, v) for v in image))


def map_b_uvw(t: Scalar, p: UVWPoint) -> UVWPoint:
    _check_parameter(t)
    image = _map_b_uvw(t.value, 1, *_raw(t.mode, p.coords()), 1)
    return UVWPoint(*(Scalar(t.mode, v) for v in image))


def project(p: UVWPoint) -> XYPoint:
    """Affine projection x = (v + 3u + 2)/6, y = (w - 3u + 2)/6."""
    x, y, d = _project(*_raw(p.mode, p.coords()), 1)
    return XYPoint(Scalar(p.mode, x / d), Scalar(p.mode, y / d))


def map_a_xy(t: Scalar, p: XYPoint) -> XYPoint:
    _check_parameter(t)
    x, y, _ = _map_a_xy(t.value, 1, *_raw(t.mode, p.coords()), 1)
    return XYPoint(Scalar(t.mode, x), Scalar(t.mode, y))


def map_b_xy(t: Scalar, p: XYPoint) -> XYPoint:
    _check_parameter(t)
    x, y, _ = _map_b_xy(t.value, 1, *_raw(t.mode, p.coords()), 1)
    return XYPoint(Scalar(t.mode, x), Scalar(t.mode, y))


# The point maps on raw values with t = k/q, one copy each: the public maps
# above call them with (k, q) = (t, 1) and scale 1, where the factors 1 leave
# every double unchanged, and the commutation and invariance suites call them
# on ints.  A (u, v, w) point is given scaled, as (u L^2, v L^3, w L^3) and L,
# the weights under which the group law is homogeneous; its image comes
# scaled by q L.  A planar point (x/d, y/d) is given as the triple (x, y, d),
# and so is its image.  Every formula is homogeneous under these scalings.
def _map_a_uvw(k, q, u, v, w, scale) -> tuple:
    r = q - k
    s2 = scale * scale
    s3 = s2 * scale
    return (
        q * (r * u - k * s2),
        q * (r * r * v - 3 * k * r * u * scale + k * (2 * k - q) * s3),
        q * q * (r * w + k * s3),
    )


def _map_b_uvw(k, q, u, v, w, scale) -> tuple:
    r = q - k
    s2 = scale * scale
    s3 = s2 * scale
    return (
        q * (r * u + k * s2),
        q * q * (r * v + k * s3),
        q * (r * r * w + 3 * k * r * u * scale + k * (2 * k - q) * s3),
    )


def _project(u, v, w, scale) -> tuple:
    """`project` of the scaled point (u, v, w), as a planar triple."""
    s3 = scale * scale * scale
    return (v + 3 * u * scale + 2 * s3, w - 3 * u * scale + 2 * s3, 6 * s3)


def _map_a_xy(k, q, x, y, d) -> tuple:
    r = q - k
    return (r * r * x, r * q * y + k * q * d, q * q * d)


def _map_b_xy(k, q, x, y, d) -> tuple:
    r = q - k
    return (r * q * x + k * q * d, r * r * y, q * q * d)


def _sigma_element(w: SigmaWord) -> GroupElement:
    """The group element of a Sigma word, from its blocks' raw values: the
    same product as `evaluate_word(sigma_to_rword(w))`, without the letters."""
    return _evaluate(
        (True, False) * len(w.blocks),
        [part.value for block in w.blocks for part in block],
        w.mode,
    )


def eval_uvw(w: SigmaWord) -> UVWPoint:
    """(u, v, w) of the element of a Sigma word, evaluated block by block on
    the raw exponent values; zero blocks are kept and contribute nothing."""
    return extract_uvw(_sigma_element(w))


def eval_xy(w: SigmaWord) -> XYPoint:
    return project(eval_uvw(w))


def xy_distance(p: XYPoint, q: XYPoint) -> float:
    return math.hypot(
        p.x.to_float() - q.x.to_float(), p.y.to_float() - q.y.to_float()
    )


def _balanced_states(n_max: int, mode: Mode) -> Iterator[Tuple[tuple, object]]:
    """The raw state (c1, ..., c5) of `balanced_word(n, mode)` and its scale
    s, for n = 1 .. n_max, the state being scaled by (s, s, s^2, s^3, s^3):
    ints and s = n in exact mode, where every block is 1 over n, and in float
    mode the doubles `_sigma_element` gives, with s = 1.

    Word n is n blocks of its cleared share.  When that share equals word
    n - 1's, word n is word n - 1 followed by one more block, so its state
    is the previous state extended by two letters (Chen 1957).  Exact shares
    are always the int 1, so the exact words cost two letters each.  A word
    whose share differs, every float word, is evaluated afresh, and its
    blocks pass `_check_sigma` as `SigmaWord` checks them.  Every state must
    have the unit masses `extract_uvw` checks; for an extended word, whose
    X-mass and Y-mass are the sums of its blocks, that check is the Sigma
    sum rule.  `_check_sigma` and `_letters` are read from their modules at
    each word, so a test can replace them."""
    state = previous = None
    for n in range(1, n_max + 1):
        scale, (share,) = _cleared(mode, [_lift(mode, 1, n)])
        if share == previous:
            state = lie_core._letters((True, False), (share, share), state)
        else:
            blocks = [share] * n
            words._check_sigma(blocks, blocks, scale, mode)
            state = lie_core._letters((True, False) * n, blocks * 2, (0, 0, 0, 0, 0))
        if not all(_close(mode, c, scale, ABELIANIZATION_TOLERANCE) for c in state[:2]):
            masses = ", ".join(str(Scalar.lift(c, mode, scale)) for c in state[:2])
            raise UnitMassError(f"generator masses ({masses}) are not (1, 1)")
        previous = share
        yield state, scale
