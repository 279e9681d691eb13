"""Dual-mode scalar arithmetic: exact rationals or IEEE-754 doubles.

All group-law, word-map and region formulas downstream are polynomial with
rational coefficients, so exact mode evaluates them without any rounding and
serves as the oracle for the float path.  Both modes hide behind the single
:class:`Scalar` type; mixing modes in one expression is an error rather than
a silent coercion.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Union

__all__ = [
    "Mode",
    "ModeMismatchError",
    "Scalar",
    "DIAGONAL_FIXED_POINT",
]


class Mode(Enum):
    EXACT = "exact"
    FLOAT = "float"


class ModeMismatchError(TypeError):
    """Raised when exact and float scalars meet in one operation."""


NumberLike = Union[int, Fraction, float, str, "Scalar"]


class Scalar:
    """An immutable number tagged with its arithmetic mode.

    Exact mode wraps :class:`fractions.Fraction` (arbitrary-precision,
    gcd-normalized, positive denominator); float mode wraps a Python float.
    Plain ints are mode-neutral and may appear on either side of any
    operator, which keeps polynomial formulas like ``(1 - t) * x`` readable.
    """

    __slots__ = ("mode", "value")

    mode: Mode
    value: Union[Fraction, float]

    def __init__(self, mode: Mode, value: Union[Fraction, float]):
        # The slots' own descriptors get past the guard below.
        _set_mode(self, mode)
        _set_value(self, value)

    def __setattr__(self, name, val):
        raise AttributeError("Scalar is immutable")

    def __delattr__(self, name):
        raise AttributeError("Scalar is immutable")

    # construction -----------------------------------------------------

    @staticmethod
    def exact(value: Union[int, Fraction, str], den: int = 1) -> "Scalar":
        """Exact rational scalar; accepts ints, Fractions, or strings like "3/4"."""
        if isinstance(value, str):
            value = Fraction(value)
        return Scalar(Mode.EXACT, Fraction(value, den))

    @staticmethod
    def of_float(value: float) -> "Scalar":
        return Scalar(Mode.FLOAT, float(value))

    @staticmethod
    def zero(mode: Mode) -> "Scalar":
        return Scalar(mode, _lift(mode, 0))

    @staticmethod
    def one(mode: Mode) -> "Scalar":
        return Scalar(mode, _lift(mode, 1))

    @staticmethod
    def lift(num: int, mode: Mode, den: int = 1) -> "Scalar":
        """The rational num/den of two ints in the given mode: exact, or the
        correctly rounded double (int true division rounds once).  In float
        mode num may also be a double, which is divided once."""
        return Scalar(mode, _lift(mode, num, den))

    @staticmethod
    def parse(text: str, mode: Mode) -> "Scalar":
        """Parse "p/q" or decimal notation into the requested mode.

        Raises ValueError for text that is no finite number in the mode:
        "nan" and "inf" always, a zero denominator such as "1/0", and in
        float mode also values that overflow a double, such as "1e400".
        """
        text = text.strip()
        try:
            if mode is Mode.EXACT:
                return Scalar(Mode.EXACT, Fraction(text))
            try:
                value = float(text)
            except ValueError:
                value = float(Fraction(text))
        except ZeroDivisionError:
            raise ValueError(f"{text!r} has a zero denominator") from None
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{text!r} is not a finite number")
        return Scalar(Mode.FLOAT, value)

    # arithmetic -------------------------------------------------------

    def _coerce(self, other: NumberLike) -> Union[Fraction, float]:
        if isinstance(other, Scalar):
            if other.mode is not self.mode:
                raise ModeMismatchError(
                    f"cannot combine {self.mode.value} and {other.mode.value} scalars"
                )
            return other.value
        if isinstance(other, int):
            # Fractions and floats combine with an int exactly as with
            # Fraction(n) or float(n).
            return other
        raise ModeMismatchError(f"cannot combine Scalar with {type(other).__name__}")

    def __add__(self, other: NumberLike) -> "Scalar":
        return Scalar(self.mode, self.value + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other: NumberLike) -> "Scalar":
        return Scalar(self.mode, self.value - self._coerce(other))

    def __rsub__(self, other: NumberLike) -> "Scalar":
        return Scalar(self.mode, self._coerce(other) - self.value)

    def __mul__(self, other: NumberLike) -> "Scalar":
        return Scalar(self.mode, self.value * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other: NumberLike) -> "Scalar":
        divisor = self._coerce(other)
        if divisor == 0:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(self.mode, self.value / divisor)

    def __rtruediv__(self, other: NumberLike) -> "Scalar":
        if self.value == 0:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(self.mode, self._coerce(other) / self.value)

    def __neg__(self) -> "Scalar":
        return Scalar(self.mode, -self.value)

    def __abs__(self) -> "Scalar":
        return Scalar(self.mode, abs(self.value))

    # comparisons ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self.mode is other.mode and self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def close_to(self, other: NumberLike, tol: float) -> bool:
        """Equality in exact mode, where tol is ignored; |self - other| <= tol
        in float mode, which never holds for NaN."""
        return _close(self.mode, self.value, self._coerce(other), tol)

    def __hash__(self) -> int:
        return hash((self.mode, self.value))

    def __lt__(self, other: NumberLike) -> bool:
        return self.value < self._coerce(other)

    def __le__(self, other: NumberLike) -> bool:
        return self.value <= self._coerce(other)

    def __gt__(self, other: NumberLike) -> bool:
        return self.value > self._coerce(other)

    def __ge__(self, other: NumberLike) -> bool:
        return self.value >= self._coerce(other)

    # views ------------------------------------------------------------

    def to_float(self) -> float:
        """Nearest double to the represented value."""
        return float(self.value)

    def is_finite(self) -> bool:
        """False only for a float that overflowed to inf or became NaN."""
        return self.mode is Mode.EXACT or math.isfinite(self.value)

    def as_json(self) -> str:
        """Wire format: "p/q" in exact mode, shortest decimal in float mode."""
        return str(self.value) if self.mode is Mode.EXACT else repr(self.value)

    def __repr__(self) -> str:
        return f"Scalar({self.as_json()}, {self.mode.value})"

    def __str__(self) -> str:
        return self.as_json()


_set_mode = Scalar.__dict__["mode"].__set__
_set_value = Scalar.__dict__["value"].__set__


# The exact-or-float decisions on raw values.  Every module that runs a
# kernel on raw values unwraps its Scalars with `_raw`, clears exact
# denominators with `_cleared`, and wraps the results with `_lift` or
# `_restored`; none of them branches on the mode itself.


def _lift(mode: Mode, num, den=1):
    """`Scalar.lift` on raw values: Fraction(num, den) in exact mode, num / den
    in float mode, where den = 1 leaves a double unchanged."""
    return Fraction(num, den) if mode is Mode.EXACT else num / den


def _raw(mode: Mode, scalars) -> tuple:
    """The values of scalars, which must all be in the given mode."""
    for s in scalars:
        if s.mode is not mode:
            raise ModeMismatchError(f"cannot combine {mode.value} and {s.mode.value} scalars")
    return tuple([s.value for s in scalars])


def _cleared(mode: Mode, values, weights=None) -> tuple:
    """(L, ints) for exact values: L is the lcm of their denominators and each
    value of weight w (1 when weights is None) is scaled by L**w into an int.
    A kernel that is weighted-homogeneous in these weights then runs on ints.
    Float values come back unchanged, with L = 1."""
    if mode is Mode.FLOAT:
        return 1, values
    den = math.lcm(*[v.denominator for v in values])
    if weights is None:
        return den, [v.numerator * (den // v.denominator) for v in values]
    return den, [v.numerator * (den**w // v.denominator) for v, w in zip(values, weights)]


def _restored(mode: Mode, den, values, weights) -> tuple:
    """The inverse of `_cleared`: each value of weight w over den**w."""
    return tuple(_lift(mode, v, den**w) for v, w in zip(values, weights))


def _dilated(mode: Mode, den, ints, weights) -> tuple:
    """(den, ints) in exact mode; in float mode (1, `_restored` ints), each
    int over den**w by int/int division, so correctly rounded."""
    if mode is Mode.EXACT:
        return den, ints
    return 1, _restored(mode, den, ints, weights)


def _mode_of(scalars, mode: Optional[Mode], what: str) -> Mode:
    """The mode of a container of scalars: the given mode, else its first
    scalar's.  An empty container must be given a mode; every scalar must be
    in the container's mode, or ModeMismatchError is raised."""
    if mode is None:
        if not scalars:
            raise ValueError(f"an empty {what} must be given a mode")
        mode = scalars[0].mode
    _raw(mode, scalars)
    return mode


def _close(mode: Mode, a, b, tol: float) -> bool:
    """`Scalar.close_to` on raw values: a == b in exact mode, where tol is
    ignored; |a - b| <= tol in float mode, which never holds for NaN."""
    if mode is Mode.EXACT:
        return a == b
    return abs(a - b) <= tol


def _tuples_close(mode: Mode, tol: float) -> Callable[[tuple, tuple], bool]:
    """`_close` of each coordinate of two raw tuples of one length, as one
    function: whole-tuple equality in exact mode, where tol is ignored;
    every |x - y| <= tol in float mode, which never holds for NaN."""
    if mode is Mode.EXACT:
        return operator.eq
    return lambda a, b: all(abs(x - y) <= tol for x, y in zip(a, b))


# The largest diagonal coordinate of the admissible planar region: the root
# of x^2 - 3x + 1 in (0, 1), i.e. (3 - sqrt 5)/2, correctly rounded.
# Irrational, so it exists only as a float-mode constant.
DIAGONAL_FIXED_POINT = Scalar.of_float(0.38196601125010515)

assert abs((3 - math.sqrt(5)) / 2 - DIAGONAL_FIXED_POINT.value) <= math.ulp(0.382)
