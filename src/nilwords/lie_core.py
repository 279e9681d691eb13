"""The free 3-step nilpotent Lie algebra on two generators, as a group.

Coordinates c1..c5 are taken w.r.t. the basis (X, Y, half the bracket of X
and Y, one-twelfth of [X,[X,Y]], one-twelfth of [Y,[Y,X]]).  Exponential
coordinates identify the algebra with its group, so exp = log = identity
and the group law is the closed degree-3 polynomial below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .scalar import Mode, Scalar, _cleared, _raw, _restored
from .words import Generator, RWord

__all__ = [
    "AlgebraVector",
    "GroupElement",
    "bracket",
    "multiply",
    "inverse",
    "evaluate_word",
    "abelianization_lower_bound",
    "element_to_json",
]


@dataclass(frozen=True)
class AlgebraVector:
    c1: Scalar
    c2: Scalar
    c3: Scalar
    c4: Scalar
    c5: Scalar

    def __post_init__(self):
        mode = self.c1.mode
        if not (mode is self.c2.mode is self.c3.mode is self.c4.mode is self.c5.mode):
            raise ValueError("all coordinates must share one arithmetic mode")

    def coords(self) -> Tuple[Scalar, Scalar, Scalar, Scalar, Scalar]:
        return (self.c1, self.c2, self.c3, self.c4, self.c5)

    @property
    def mode(self) -> Mode:
        return self.c1.mode


# Group elements in exponential coordinates are the same data.
GroupElement = AlgebraVector


# The product and the bracket are weighted-homogeneous: with weights 1, 1, 2,
# 3, 3 on c1..c5, every term of output coordinate i has weight w_i.  Scaling
# the inputs by L**w_i therefore scales the outputs by L**w_i, for any L.
# Exact inputs take L = lcm of their denominators (`scalar._cleared`), which
# turns them into ints; the law runs on ints and one Fraction per coordinate
# is built at the end (`scalar._restored`).  Floats pass L = 1.  A law run
# through `_apply` must keep this homogeneity, or the scaled result is wrong.
_WEIGHTS = (1, 1, 2, 3, 3)


def _product(a: tuple, b: tuple) -> tuple:
    """The group law behind `multiply` and the algebra suite, on raw values."""
    a1, a2, a3, a4, a5 = a
    b1, b2, b3, b4, b5 = b
    d = a1 * b2 - a2 * b1
    return (
        a1 + b1,
        a2 + b2,
        a3 + b3 + d,
        a4 + b4 + 3 * (a1 * b3 - a3 * b1) + (a1 - b1) * d,
        a5 + b5 - 3 * (a2 * b3 - a3 * b2) - (a2 - b2) * d,
    )


def _bracket(a: tuple, b: tuple) -> tuple:
    """The Lie bracket behind `bracket` and the algebra suite, on raw values."""
    a1, a2, a3 = a[:3]
    b1, b2, b3 = b[:3]
    return (
        0,
        0,
        2 * (a1 * b2 - a2 * b1),
        6 * (a1 * b3 - a3 * b1),
        -6 * (a2 * b3 - a3 * b2),
    )


def _apply(law, a: AlgebraVector, b: AlgebraVector) -> AlgebraVector:
    """A weighted-homogeneous law on two elements of one mode."""
    mode = a.mode
    den, ints = _cleared(mode, _raw(mode, a.coords() + b.coords()), _WEIGHTS * 2)
    raw = _restored(mode, den, law(ints[:5], ints[5:]), _WEIGHTS)
    return AlgebraVector(*(Scalar(mode, v) for v in raw))


def bracket(a: AlgebraVector, b: AlgebraVector) -> AlgebraVector:
    """Lie bracket in coordinates: (0, 0, 2d, 6(a1*b3 - a3*b1),
    -6(a2*b3 - a3*b2)) with d = a1*b2 - a2*b1.

    The c3 axis carries half of [X,Y], so [X,Y] contributes 2 there, and the
    two degree-3 axes carry 1/12 of their nested brackets, giving the
    factors 6 and -6.  Like the product, exact coordinates are evaluated on
    ints scaled by (L, L, L^2, L^3, L^3) for a common denominator L.
    """
    return _apply(_bracket, a, b)


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group law: a + b + [a,b]/2 + [a,[a,b]]/12 + [b,[b,a]]/12.

    The series terminates at degree 3 because all deeper brackets vanish,
    so this closed form is the exact product, not a truncation.  In
    coordinates it is the d-form `_product`, d = a1*b2 - a2*b1, whose
    outputs have weights 1, 1, 2, 3, 3, evaluated on integers scaled by
    (L, L, L^2, L^3, L^3) in exact mode.
    """
    return _apply(_product, a, b)


def inverse(a: GroupElement) -> GroupElement:
    """Componentwise negation: a and -a commute, so BCH collapses."""
    return AlgebraVector(*(-x for x in a.coords()))


def evaluate_word(w: RWord) -> GroupElement:
    """Left-to-right product of the letter powers, in the word's mode; the
    empty word gives the identity 0.

    The letters' generators and raw exponent values go to `_evaluate`, the
    one copy of the letter-by-letter group law.
    """
    generator_x = Generator.X
    return _evaluate(
        [letter.generator is generator_x for letter in w.letters],
        [letter.exponent.value for letter in w.letters],
        w.mode,
    )


def _evaluate(is_x: Sequence[bool], ts: Sequence, mode: Mode) -> GroupElement:
    """Product of X^t (where is_x) and Y^t powers of the raw values ts.

    Exact exponents are scaled to integers by their common denominator L
    (floats keep L = 1), so `_letters` returns the state scaled by (L, L,
    L^2, L^3, L^3).
    """
    den, ts = _cleared(mode, ts)
    state = _restored(mode, den, _letters(is_x, ts, (0, 0, 0, 0, 0)), _WEIGHTS)
    return AlgebraVector(*(Scalar(mode, v) for v in state))


def _letters(is_x: Sequence[bool], ts: Sequence, state: tuple) -> tuple:
    """The letter-by-letter group law behind `evaluate_word`, `eval_uvw`, the
    balanced words and the commutation suite: the raw state (c1, ..., c5) of
    the product of `state` by X^t (where is_x) and Y^t.  A fresh word starts
    from the identity (0, 0, 0, 0, 0); a word that extends another starts
    from that word's state, since the product is associative.

    Each letter applies the group law specialised to X^t = (t, 0, 0, 0, 0)
    or Y^t = (0, t, 0, 0, 0).  The law is weighted-homogeneous, so exponents
    given as integers over a common denominator L, from a state scaled by
    (L, L, L^2, L^3, L^3), give the state scaled the same way.
    """
    c1, c2, c3, c4, c5 = state
    for x, t in zip(is_x, ts):
        if x:
            c1, c3, c4, c5 = (
                c1 + t,
                c3 - c2 * t,
                c4 - (3 * c3 + (c1 - t) * c2) * t,
                c5 + c2 * c2 * t,
            )
        else:
            c2, c3, c4, c5 = (
                c2 + t,
                c3 + c1 * t,
                c4 + c1 * c1 * t,
                c5 + (3 * c3 - (c2 - t) * c1) * t,
            )
    return (c1, c2, c3, c4, c5)


def abelianization_lower_bound(g: GroupElement) -> Scalar:
    """|c1| + |c2|: no word shorter than this evaluates to g, because the
    quotient by the commutator subgroup adds exponents per generator."""
    return abs(g.c1) + abs(g.c2)


def element_to_json(g: AlgebraVector) -> list:
    """Five scalars in basis order, in the scalar wire format."""
    return [c.as_json() for c in g.coords()]
