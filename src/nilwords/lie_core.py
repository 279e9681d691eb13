"""The free 3-step nilpotent Lie algebra on two generators, as a group.

Coordinates c1..c5 are taken w.r.t. the basis (X, Y, half the bracket of X
and Y, one-twelfth of [X,[X,Y]], one-twelfth of [Y,[Y,X]]).  Exponential
coordinates identify the algebra with its group, so exp = log = identity
and the group law is the closed degree-3 polynomial below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .scalar import Mode, ModeMismatchError, Scalar
from .words import Generator, RWord

__all__ = [
    "AlgebraVector",
    "GroupElement",
    "zero_element",
    "basis",
    "add",
    "neg",
    "bracket",
    "multiply",
    "inverse",
    "generator_power",
    "evaluate_word",
    "abelianization_lower_bound",
    "distance_squared",
    "element_to_json",
    "element_from_json",
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

    @staticmethod
    def of_ints(c1: int, c2: int, c3: int, c4: int, c5: int, mode: Mode) -> "AlgebraVector":
        return AlgebraVector(*(Scalar.lift(c, mode) for c in (c1, c2, c3, c4, c5)))


# Group elements in exponential coordinates are the same data.
GroupElement = AlgebraVector


def zero_element(mode: Mode) -> AlgebraVector:
    z = Scalar.zero(mode)
    return AlgebraVector(z, z, z, z, z)


def basis(mode: Mode) -> Tuple[AlgebraVector, ...]:
    """The five basis vectors, in coordinate order."""
    return tuple(
        AlgebraVector.of_ints(*(1 if j == i else 0 for j in range(5)), mode=mode)
        for i in range(5)
    )


def add(a: AlgebraVector, b: AlgebraVector) -> AlgebraVector:
    return AlgebraVector(*(x + y for x, y in zip(a.coords(), b.coords())))


def neg(a: AlgebraVector) -> AlgebraVector:
    return AlgebraVector(*(-x for x in a.coords()))


def _values(a: AlgebraVector) -> tuple:
    return tuple(c.value for c in a.coords())


def _check_modes(a: AlgebraVector, b: AlgebraVector) -> Mode:
    if a.mode is not b.mode:
        raise ModeMismatchError(
            f"cannot combine {a.mode.value} and {b.mode.value} elements"
        )
    return a.mode


# The product and the bracket are weighted-homogeneous: with weights 1, 1, 2,
# 3, 3 on c1..c5, every term of output coordinate i has weight w_i.  Scaling
# the inputs by L**w_i therefore scales the outputs by L**w_i, for any L.
# Exact inputs take L = lcm of their denominators, which turns them into
# ints; the law runs on ints and one Fraction per coordinate is built at the
# end.  Floats pass L = 1.  A law run through `_on_integers` must keep this
# homogeneity, or the scaled result is wrong.
def _scaled(v: tuple, den: int, den2: int, den3: int) -> tuple:
    c1, c2, c3, c4, c5 = v
    return (
        c1.numerator * (den // c1.denominator),
        c2.numerator * (den // c2.denominator),
        c3.numerator * (den2 // c3.denominator),
        c4.numerator * (den3 // c4.denominator),
        c5.numerator * (den3 // c5.denominator),
    )


def _to_integers(a: tuple, b: tuple) -> Tuple[int, tuple, tuple]:
    """Common denominator L and both vectors' coordinates times L**weight."""
    den = math.lcm(*[c.denominator for c in a + b])
    den2 = den * den
    den3 = den2 * den
    return den, _scaled(a, den, den2, den3), _scaled(b, den, den2, den3)


def _from_integers(den: int, scaled: tuple) -> tuple:
    c1, c2, c3, c4, c5 = scaled
    den2 = den * den
    den3 = den2 * den
    return (
        Fraction(c1, den),
        Fraction(c2, den),
        Fraction(c3, den2),
        Fraction(c4, den3),
        Fraction(c5, den3),
    )


def _product(a: tuple, b: tuple) -> tuple:
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
    a1, a2, a3 = a[:3]
    b1, b2, b3 = b[:3]
    return (
        0,
        0,
        2 * (a1 * b2 - a2 * b1),
        6 * (a1 * b3 - a3 * b1),
        -6 * (a2 * b3 - a3 * b2),
    )


def _on_integers(law, a: tuple, b: tuple) -> tuple:
    """Apply a weighted-homogeneous law to two coordinate tuples."""
    if isinstance(a[0], float):
        return law(a, b)
    den, sa, sb = _to_integers(a, b)
    return _from_integers(den, law(sa, sb))


def bracket(a: AlgebraVector, b: AlgebraVector) -> AlgebraVector:
    """Lie bracket in coordinates: (0, 0, 2d, 6(a1*b3 - a3*b1),
    -6(a2*b3 - a3*b2)) with d = a1*b2 - a2*b1.

    The c3 axis carries half of [X,Y], so [X,Y] contributes 2 there, and the
    two degree-3 axes carry 1/12 of their nested brackets, giving the
    factors 6 and -6.  Like the product, exact coordinates are evaluated on
    ints scaled by (L, L, L^2, L^3, L^3) for a common denominator L.
    """
    mode = _check_modes(a, b)
    raw = _on_integers(_bracket, _values(a), _values(b))
    zero = Scalar.zero(mode)
    return AlgebraVector(zero, zero, *(Scalar(mode, v) for v in raw[2:]))


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group law: a + b + [a,b]/2 + [a,[a,b]]/12 + [b,[b,a]]/12.

    The series terminates at degree 3 because all deeper brackets vanish,
    so this closed form is the exact product, not a truncation.  In
    coordinates it is the d-form `_product`, d = a1*b2 - a2*b1, whose
    outputs have weights 1, 1, 2, 3, 3, evaluated on integers scaled by
    (L, L, L^2, L^3, L^3) in exact mode.
    """
    mode = _check_modes(a, b)
    raw = _on_integers(_product, _values(a), _values(b))
    return AlgebraVector(*(Scalar(mode, v) for v in raw))


def inverse(a: GroupElement) -> GroupElement:
    """Componentwise negation: a and -a commute, so BCH collapses."""
    return neg(a)


def generator_power(g: Generator, t: Scalar) -> GroupElement:
    zero = Scalar.zero(t.mode)
    if g is Generator.X:
        return AlgebraVector(t, zero, zero, zero, zero)
    return AlgebraVector(zero, t, zero, zero, zero)


def evaluate_word(w: RWord, mode: Optional[Mode] = None) -> GroupElement:
    """Left-to-right product of the letter powers; empty word gives 0.

    The letters' generators and raw exponent values go to `_evaluate`, the
    one copy of the letter-by-letter group law.  The mode argument only
    matters for the empty word, whose letters cannot reveal one.
    """
    return _evaluate(
        [letter.generator is Generator.X for letter in w.letters],
        [letter.exponent.value for letter in w.letters],
        w.mode(mode if mode is not None else Mode.FLOAT),
    )


def _evaluate(is_x: Sequence[bool], ts: Sequence, mode: Mode) -> GroupElement:
    """Product of X^t (where is_x) and Y^t powers of the raw values ts.

    Each letter applies the group law specialised to X^t = (t, 0, 0, 0, 0)
    or Y^t = (0, t, 0, 0, 0).  Exact exponents are scaled to integers by
    their common denominator L, the state by (L, L, L^2, L^3, L^3).
    """
    if mode is Mode.EXACT:
        den = math.lcm(*(t.denominator for t in ts))
        ts = [t.numerator * (den // t.denominator) for t in ts]
        c1 = c2 = c3 = c4 = c5 = 0
    else:
        c1 = c2 = c3 = c4 = c5 = 0.0
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
    state = (c1, c2, c3, c4, c5)
    if mode is Mode.EXACT:
        state = _from_integers(den, state)
    return AlgebraVector(*(Scalar(mode, v) for v in state))


def abelianization_lower_bound(g: GroupElement) -> Scalar:
    """|c1| + |c2|: no word shorter than this evaluates to g, because the
    quotient by the commutator subgroup adds exponents per generator."""
    return abs(g.c1) + abs(g.c2)


def distance_squared(a: AlgebraVector, b: AlgebraVector) -> Scalar:
    total = Scalar.zero(a.mode)
    for x, y in zip(a.coords(), b.coords()):
        d = x - y
        total = total + d * d
    return total


def element_to_json(g: AlgebraVector) -> list:
    """Five scalars in basis order, in the scalar wire format."""
    return [c.as_json() for c in g.coords()]


def element_from_json(data: Sequence, mode: Mode = Mode.FLOAT) -> AlgebraVector:
    if len(data) != 5:
        raise ValueError(f"expected 5 coordinates, got {len(data)}")
    return AlgebraVector(*(Scalar.parse(str(item), mode) for item in data))
